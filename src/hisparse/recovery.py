"""Hierarchical and flat recovery behind one entry point, plus guarantee calculators.

``solve(y, op, cfg)`` runs the solver named by ``cfg.algorithm``. The
thresholding solvers are one gradient-descent loop with unit step:

    x_temp = x + A^H (y - A x)

followed by hi_threshold on x_temp. HiIHT/HiHTP select under the unknown's
hierarchical profile; the flat IHT/HTP are the one-level case (a single
block of length U*D*M with sparsity k = cfg.sparsity()). The IHT variants
keep x_temp on the selected support, the HTP variants refit it by dense
least squares on the exact columns A[:, S]. Iteration stops when the
selected support repeats or after max_iters passes. OMP grows its support
one correlation pick at a time, k picks at most, with the same
least-squares refit. Supports are sorted int64 arrays of flat indices.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .blocks import (
    BlockShape,
    DimensionError,
    MultiLevelVector,
    SparsityProfile,
    hi_threshold,
)
from .operators import VectorizationOption, as_option

HI_ALGORITHMS = ("HiIHT", "HiHTP")
FLAT_ALGORITHMS = ("IHT", "HTP", "OMP")


class GuaranteeVoidError(ValueError):
    """Requested constants lie outside the regime where the guarantee holds."""


@dataclass
class RecoveryConfig:
    algorithm: str = "HiIHT"
    profile: SparsityProfile | None = None
    max_iters: int = 10
    ls_tolerance: float = 1e-10
    flat_k: int | None = None

    def __post_init__(self):
        if self.algorithm not in HI_ALGORITHMS + FLAT_ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.flat_k is not None and self.flat_k < 1:
            raise ValueError("flat_k must be >= 1")
        if self.algorithm in HI_ALGORITHMS and self.profile is None:
            raise ValueError(f"{self.algorithm} needs a profile")
        if self.profile is None and self.flat_k is None:
            raise ValueError(f"{self.algorithm} needs a profile or flat_k")

    def sparsity(self, shape: BlockShape) -> int:
        """Flat selection size: explicit flat_k, else the profile product."""
        if self.flat_k is not None:
            return min(self.flat_k, shape.total)
        return min(self.profile.clip(shape).max_support, shape.total)


@dataclass
class RecoveryResult:
    x_hat: MultiLevelVector
    support: np.ndarray
    iterations: int
    residual_norm: float
    error_trace: list[float] | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "support": [int(i) for i in self.support],
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
        }
        if self.error_trace is not None:
            doc["error_trace"] = [float(e) for e in self.error_trace]
        return doc


def _check_measurement(y, op) -> np.ndarray:
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (op.out_dim,):
        raise DimensionError(f"measurement length {y.shape} != {op.out_dim}")
    if not np.all(np.isfinite(y.view(np.float64))):
        raise ValueError("measurement contains non-finite entries")
    return y


def _restricted_lstsq(y, op, support: np.ndarray) -> np.ndarray:
    """Coefficients of argmin over vectors supported on ``support`` of ||y - A x||.

    One dense least-squares solve on the exact columns A[:, support].
    """
    beta, *_ = np.linalg.lstsq(op.columns(support), y, rcond=None)
    return beta


def _threshold_loop(y, op, cfg: RecoveryConfig, select_shape, profile, pursuit: bool, x_true):
    shape = op.shape_in
    x = np.zeros(shape.total, dtype=np.complex128)
    trace = [] if x_true is not None else None
    prev_support = None
    iterations = 0
    for i in range(1, cfg.max_iters + 1):
        iterations = i
        x_temp = x + op.adjoint_values(y - op.forward(x))
        support = hi_threshold(MultiLevelVector(select_shape, x_temp), profile)
        x = np.zeros(shape.total, dtype=np.complex128)
        x[support] = _restricted_lstsq(y, op, support) if pursuit else x_temp[support]
        if trace is not None:
            trace.append(float(np.linalg.norm(x - x_true)))
        if prev_support is not None and np.array_equal(support, prev_support):
            break
        prev_support = support
    residual = float(np.linalg.norm(y - op.forward(x)))
    return RecoveryResult(
        x_hat=MultiLevelVector(shape, x),
        support=support,
        iterations=iterations,
        residual_norm=residual,
        error_trace=trace,
    )


def _omp(y, op, cfg: RecoveryConfig, x_true):
    """Orthogonal matching pursuit: k greedy correlation picks with LS refits."""
    shape = op.shape_in
    selected: list[int] = []
    cols = np.empty((op.out_dim, 0), dtype=np.complex128)
    beta = np.zeros(0, dtype=np.complex128)
    r = y.copy()
    trace = [] if x_true is not None else None
    ynorm = float(np.linalg.norm(y))
    iterations = 0
    for _ in range(cfg.sparsity(shape)):
        if float(np.linalg.norm(r)) <= cfg.ls_tolerance * max(1.0, ynorm):
            break
        iterations += 1
        corr = np.abs(op.adjoint_values(r))
        corr[selected] = -1.0
        selected.append(int(np.argmax(corr)))
        cols = np.concatenate([cols, op.columns(selected[-1:])], axis=1)
        beta, *_ = np.linalg.lstsq(cols, y, rcond=None)
        r = y - cols @ beta
        if trace is not None:
            x = np.zeros(shape.total, dtype=np.complex128)
            x[selected] = beta
            trace.append(float(np.linalg.norm(x - x_true)))
    x = np.zeros(shape.total, dtype=np.complex128)
    if selected:
        x[selected] = beta
    support = np.sort(np.asarray(selected, dtype=np.int64))
    support = support[np.abs(x[support]) > 0.0]
    return RecoveryResult(
        x_hat=MultiLevelVector(shape, x),
        support=support,
        iterations=iterations,
        residual_norm=float(np.linalg.norm(r)),
        error_trace=trace,
    )


def solve(y, op, cfg: RecoveryConfig, x_true=None) -> RecoveryResult:
    """Recover the unknown from y with the solver named by cfg.algorithm.

    Args:
        y: measurement vector of length op.out_dim.
        op: forward/adjoint operator (fast or dense).
        cfg: solver configuration. HiIHT/HiHTP select under cfg.profile
            (clipped to op.shape_in); IHT/HTP/OMP use k = cfg.sparsity().
        x_true: optional ground truth; records a per-iteration error trace.
    """
    y = _check_measurement(y, op)
    if cfg.algorithm == "OMP":
        return _omp(y, op, cfg, x_true)
    if cfg.algorithm in HI_ALGORITHMS:
        select_shape, profile = op.shape_in, cfg.profile.clip(op.shape_in)
    else:
        select_shape = BlockShape((op.in_dim,))
        profile = SparsityProfile((cfg.sparsity(op.shape_in),))
    pursuit = cfg.algorithm in ("HiHTP", "HTP")
    return _threshold_loop(y, op, cfg, select_shape, profile, pursuit, x_true)


@dataclass(frozen=True)
class ContractionConstants:
    kappa: float
    tau: float
    contractive: bool


def contraction_constants(delta: float, algorithm: str) -> ContractionConstants:
    """Per-iteration error constants (kappa, tau) of the thresholding solvers.

    Valid for restricted-isometry deviation delta < 1/sqrt(3). For HiHTP the
    kappa formula can still exceed 1 inside that range; this is reported as
    non-contractive (tau = inf) rather than raised.
    """
    if not 0.0 <= delta < 1.0 / math.sqrt(3.0):
        raise GuaranteeVoidError(f"delta {delta} outside [0, 1/sqrt(3))")
    if algorithm == "HiIHT":
        kappa = math.sqrt(3.0) * delta
        num = 2.18
    elif algorithm == "HiHTP":
        kappa = math.sqrt(2.0 * delta / (1.0 - delta**2))
        num = 5.15
    else:
        raise ValueError(f"no contraction constants for {algorithm!r}")
    contractive = kappa < 1.0
    tau = num / (1.0 - kappa) if contractive else math.inf
    return ContractionConstants(kappa=kappa, tau=tau, contractive=contractive)


def min_overhead(delta_tau, delta_theta, V, L, K_V, K_L, N, M, C=1.0, option="FS"):
    """Sufficient pilot and antenna counts for the recovery guarantee.

    Natural logarithm throughout; the universal constant C is an input
    (its numeric value is not pinned, C=1 is a qualitative default).
    Returns (Np_min, Mp_min), each saturated at N resp. M.
    """
    if delta_tau <= 0 or delta_theta <= 0:
        raise GuaranteeVoidError("delta_tau and delta_theta must be positive")
    if delta_tau + delta_theta + delta_tau * delta_theta >= 1.0 / math.sqrt(3.0):
        raise GuaranteeVoidError(
            "need delta_tau + delta_theta + delta_tau*delta_theta < 1/sqrt(3)"
        )
    log4_n = math.log(N) ** 4
    log4_m = math.log(M) ** 4
    if as_option(option) is VectorizationOption.FS:
        np_min = min(3.0 * C * delta_tau**-2 * K_V * K_L * log4_n, float(N))
        mp_min = min(9.0 * C * delta_theta**-2 * V * L * log4_m, float(M))
    else:
        np_min = min(9.0 * C * delta_tau**-2 * V * L * log4_n, float(N))
        mp_min = min(3.0 * C * delta_theta**-2 * K_L * log4_m, float(M))
    return np_min, mp_min
