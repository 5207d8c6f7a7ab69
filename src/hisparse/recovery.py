"""Hierarchical and flat recovery behind one entry point, plus guarantee calculators.

``solve(y, op, cfg)`` runs the solver named by ``cfg.algorithm``. The
thresholding solvers are one gradient-descent loop with unit step:

    x_temp = x + A^H (y - A x)

followed by hi_threshold on the squared moduli of x_temp, shaped by the block
dims. A^H y is held in one of this thread's work buffers
(``blocks.work_buffer``): a caller that already has it passes it as ``aty``
and the loop copies it there (a sweep's trial row forms it once per draw
that more than one of its conditions reads), otherwise the solve forms it
there with ``op.adjoint_values``. Its squared moduli are formed once per
solve in a second buffer; pass 1 starts from x = 0 and selects on the two
as they are. The iterate x is one buffer per solve, updated in place. The
step is ``op.adjoint_residual(y, A^H y, S, x[S], out)`` on x's support S,
so no pass reads the rest of x; it returns the entries where
A^H (y - A x) differs from A^H y, and its values there. x is zero off S and
IEEE addition commutes, so either way below x_temp is x plus the step bit for
bit, apart from the sign of a zero off S (0.0 + -0.0 is +0.0).

  * With every antenna observed (Mp = M) the step stays in the delay domain
    (see ``adjoint_residual``). On the operator's FFT route it changes only
    the entries of the angles that x occupies. A later pass writes those
    over A^H y, adds x on S only, zeroes S in x, patches those entries'
    moduli, selects, reads x_temp on the new support and puts the saved
    A^H y entries and moduli back before a refit reads A^H y. It makes no
    length-in_dim copy and no full moduli pass.
  * With Mp < M, and with Mp = M on the operator's Gram route (one product
    of the whole unknown with the restricted delay Gram), the step changes
    every entry: with Mp < M it is ``adjoint_values(y - forward(S, x[S]))``,
    the textbook sum. It is written into this thread's ``step`` buffer
    (``out``). The pass adds x on S to that buffer, forms its moduli in the
    ``step_moduli`` buffer and selects on those two; A^H y and its moduli
    are not touched, so nothing is saved or put back.

Against the textbook forward + adjoint step and a refit by one ``lstsq`` of
the restricted Gram, only estimates with Mp = M move, at rounding level,
with the same supports and pass counts: HiIHT/IHT through the delay-domain
step, and HiHTP/HTP/OMP through the per-angle block refit of
``solve_normal`` (HiHTP/HTP select on the step but refit from A^H y, so the
step moves them only where a support choice sits on a tie at rounding
level). The tests bound the relative MSE change by 1e-12. Every Mp < M solve
runs the textbook arithmetic and keeps its bits.
The work buffers never reach a result, so only x, allocated per
solve, leaves the loop, and solves on different threads share nothing.
Every solver takes one hierarchical profile, cfg.profile, clipped to the
unknown's layout. HiIHT/HiHTP select under it;
the flat IHT/HTP are the one-level case (a single block of length U*D*M with
sparsity k = the clipped profile's size, its max_support). The IHT variants
keep x_temp on the selected support, the HTP variants refit it by least
squares on S. Every stop is read from one history of the passes (each one's
support and values, and the latest pass to select each support): iteration
stops when pass i selects pass i - 1's support (``RecoveryResult.stop``
"support-repeat") or after max_iters passes ("max-iters"); a
run capped at max_iters = i replays the first i passes of a longer one, so
capped reruns expose the iterates. The HTP variants also stop at an exact
cycle. Their iterate is the refit on its support, so from pass 1 on each
support is a fixed function of the one before; once pass i selects the
support of a pass j < i - 1, the run repeats with period p = i - j. The loop
then stops and returns what pass max_iters would: pass j + (max_iters - j)
mod p's support and refit values, with iterations = max_iters, the same in
every bit as the full run ("support-cycle"). The IHT variants carry values
from pass to pass, so they run on past such a repeat. OMP grows its support
one correlation pick at a time, k picks at most, with the same least-squares
refit, and reports its pick count as iterations; it stops on "residual" once
its residual falls to LS_TOLERANCE, else on "k-picks". Every refit is the
operator's ``op.solve_normal(A^H y, S)``, which solves the |S| x |S| normal
equations (A^H A)[S, S] beta = (A^H y)[S] and keeps the minimum-norm solution
on a rank-deficient support; the route it takes is the operator's. Supports are
sorted int64 arrays of flat indices, and the estimate ``RecoveryResult.x_hat``
is the flat vector of length op.in_dim in layout op.shape_in.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .blocks import (DimensionError, SparsityProfile, _is_integer, hi_threshold, squared_moduli,
                     work_buffer)
from .operators import VectorizationOption, as_option

HI_ALGORITHMS = ("HiIHT", "HiHTP")
FLAT_ALGORITHMS = ("IHT", "HTP", "OMP")
LS_ALGORITHMS = ("HiHTP", "HTP", "OMP")  # the solvers that refit by least squares
# OMP stops once its residual is this small relative to max(1, ||y||).
LS_TOLERANCE = 1e-10


class GuaranteeVoidError(ValueError):
    """Requested constants lie outside the regime where the guarantee holds."""


@dataclass
class RecoveryConfig:
    algorithm: str = "HiIHT"
    profile: SparsityProfile | None = None
    max_iters: int = 10

    def __post_init__(self):
        if self.algorithm not in HI_ALGORITHMS + FLAT_ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not _is_integer(self.max_iters) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not isinstance(self.profile, SparsityProfile):
            raise ValueError(f"{self.algorithm} needs a profile (SparsityProfile), got {self.profile!r}")


@dataclass
class RecoveryResult:
    x_hat: np.ndarray
    support: np.ndarray
    iterations: int
    residual_norm: float
    stop: str  # "support-repeat", "support-cycle" or "max-iters"; OMP "residual" or "k-picks"


def _check_measurement(y, op) -> np.ndarray:
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (op.out_dim,):
        raise DimensionError(f"measurement length {y.shape} != {op.out_dim}")
    if not np.all(np.isfinite(y.view(np.float64))):
        raise ValueError("measurement contains non-finite entries")
    return y


def _threshold_loop(y, op, max_iters: int, dims, profile, pursuit: bool, given_aty):
    aty = work_buffer("aty", (op.in_dim,), np.complex128)
    if given_aty is None:
        op.adjoint_values(y, out=aty)
    else:  # a copy: the passes of the FFT step route patch aty in place
        np.copyto(aty, given_aty)
    moduli = squared_moduli(aty, out=work_buffer("moduli", (op.in_dim,), np.float64))
    x_temp, x_moduli = aty, moduli  # what a pass selects on: pass 1 takes A^H y as it is
    x = np.zeros(op.in_dim, dtype=np.complex128)
    latest, passes = {}, []  # support bytes -> latest pass that selected it; (support, values) per pass
    stop = "max-iters"
    for i in range(1, max_iters + 1):
        if i > 1:
            # x_temp = x + A^H (y - A x).
            changed, step = op.adjoint_residual(y, aty, support, x[support],
                                                out=work_buffer("step", aty.shape, aty.dtype))
            if isinstance(changed, slice):  # every entry: the step, in this thread's buffers
                x_temp = step
                x_temp[support] += x[support]
                x_moduli = squared_moduli(step, out=work_buffer("step_moduli", moduli.shape, moduli.dtype))
            else:  # A^H y and its moduli, patched where the step changed them
                saved, saved_moduli = aty[changed], moduli[changed]
                aty[changed] = step
                aty[support] += x[support]
                moduli[changed] = squared_moduli(aty[changed])
            x[support] = 0.0
        support = hi_threshold(x_moduli.reshape(dims), profile)
        values = x_temp[support]
        if x_temp is aty and i > 1:  # A^H y back, before a refit reads it
            aty[changed], moduli[changed] = saved, saved_moduli
        x[support] = values = op.solve_normal(aty, support) if pursuit else values
        passes.append((support, values))
        key = support.tobytes()
        j, latest[key] = latest.get(key), i
        if j == i - 1:  # the previous pass's support
            stop = "support-repeat"
            break
        if pursuit and j is not None:  # pass i repeats pass j < i - 1: a cycle of period i - j
            stop = "support-cycle"
            x[support] = 0.0
            support, values = passes[j - 1 + (max_iters - j) % (i - j)]
            x[support] = values
            i = max_iters  # the pass whose answer this is
            break
    residual = float(np.linalg.norm(y - op.forward(support, x[support])))
    return RecoveryResult(
        x_hat=x,
        support=support,
        iterations=i,
        residual_norm=residual,
        stop=stop,
    )


def _omp(y, op, k: int, aty):
    """Orthogonal matching pursuit: k greedy correlation picks with LS refits.

    The picked columns are kept only to form the residual; ``aty`` is only read.
    """
    aty = op.adjoint_values(y) if aty is None else aty
    selected: list[int] = []
    cols = np.empty((op.out_dim, 0), dtype=np.complex128)
    beta = np.zeros(0, dtype=np.complex128)
    r = y.copy()
    ynorm = float(np.linalg.norm(y))
    stop = "k-picks"
    for _ in range(k):
        if float(np.linalg.norm(r)) <= LS_TOLERANCE * max(1.0, ynorm):
            stop = "residual"
            break
        corr = np.abs(op.adjoint_values(r))
        corr[selected] = -1.0
        selected.append(int(np.argmax(corr)))
        cols = np.concatenate([cols, op.columns(selected[-1:])], axis=1)
        beta = op.solve_normal(aty, selected)
        r = y - cols @ beta
    x = np.zeros(op.in_dim, dtype=np.complex128)
    x[selected] = beta
    support = np.sort(np.asarray(selected, dtype=np.int64))
    support = support[np.abs(x[support]) > 0.0]
    return RecoveryResult(
        x_hat=x,
        support=support,
        iterations=len(selected),
        residual_norm=float(np.linalg.norm(r)),
        stop=stop,
    )


def solve(y, op, cfg: RecoveryConfig, aty=None) -> RecoveryResult:
    """Recover the unknown from y with the solver named by cfg.algorithm.

    Args:
        y: measurement vector of length op.out_dim.
        op: the sensing operator. solve reads its ``shape_in`` (a
            BlockShape), ``in_dim``, ``out_dim``, ``forward(idx, values)``,
            ``adjoint_values(y, out=None)``, for the thresholding solvers
            ``adjoint_residual(y, aty, idx, values, out=None)`` (an index
            of the entries it changes, and their values: ``slice(None)``
            and the whole step, written into ``out``, when it changes every
            entry, or an int64 index and the step there), for HiHTP, HTP and OMP
            ``solve_normal(aty, idx)`` and, for OMP, ``columns(idx)``.
        cfg: solver configuration. cfg.profile is clipped to op.shape_in;
            HiIHT/HiHTP select under the clipped profile, IHT/HTP select and
            OMP picks k = its max_support entries.
        aty: A^H y of this op and y, if the caller already has it: a
            complex128 array of length op.in_dim, which solve only reads.
            When None, the solve forms it with ``op.adjoint_values(y)``.
    """
    y = _check_measurement(y, op)
    if aty is not None and not (isinstance(aty, np.ndarray) and aty.dtype == np.complex128
                                and aty.shape == (op.in_dim,)):
        raise DimensionError(f"aty must be a complex128 array of length {op.in_dim}, got "
                             f"{getattr(aty, 'dtype', type(aty).__name__)} {np.shape(aty)}")
    profile = cfg.profile.clip(op.shape_in)
    if cfg.algorithm == "OMP":
        return _omp(y, op, profile.max_support, aty)
    if cfg.algorithm in HI_ALGORITHMS:
        dims = op.shape_in.dims
    else:
        dims, profile = (op.in_dim,), SparsityProfile((profile.max_support,))
    pursuit = cfg.algorithm in LS_ALGORITHMS
    return _threshold_loop(y, op, cfg.max_iters, dims, profile, pursuit, aty)


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
