"""Multipath channel synthesis and delay-angular representations.

Each UE channel is a superposition of L paths with normalized delay
tau_norm = tau/Ts in [0, alpha] and normalized angle theta in [0, 1):

    H[n, m] = sum_p gain_p * exp(-j2pi*n*tau_norm_p) * exp(+j2pi*m*theta_p)

On-grid paths sit on the (1/N, 1/M) sampling grid and admit an exactly
L-sparse D x M delay-angular matrix; off-grid paths leak energy over the
whole N x M grid but concentrate it on a few entries, which the sparse
approximation below exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import math

import numpy as np

from .operators import VectorizationOption, as_option

DEFAULT_ALPHA = 0.25
GRID_SNAP_TOL = 1e-12


@dataclass(frozen=True)
class ChannelPath:
    tau_norm: float     # delay / OFDM symbol duration
    theta: float        # normalized angle
    gain: complex

    def __post_init__(self):
        if not 0.0 <= self.tau_norm <= 1.0:
            raise ValueError(f"tau_norm {self.tau_norm} outside [0, 1]")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError(f"theta {self.theta} outside [0, 1)")


@dataclass(frozen=True)
class ChannelParams:
    N: int
    M: int
    D: int
    U: int
    V: int
    L: int
    K_V: int = 1
    K_L: int = 1
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if not 1 <= self.V <= self.U:
            raise ValueError("need 1 <= V <= U")
        if self.L < 1 or self.L > self.D * self.M:
            raise ValueError("path count L out of range")


@dataclass
class ChannelRealization:
    """Per-UE path lists; inactive UEs carry an empty list."""

    params: ChannelParams
    paths: list[list[ChannelPath]]
    on_grid: bool

    def __post_init__(self):
        if len(self.paths) != self.params.U:
            raise ValueError("need one path list per UE")
        active = sum(1 for p in self.paths if p)
        if active != self.params.V:
            raise ValueError(f"{active} active UEs, expected V={self.params.V}")

    @property
    def active_ues(self) -> list[int]:
        return [u for u, p in enumerate(self.paths) if p]

    def to_json(self) -> str:
        doc = {
            "params": {
                "N": self.params.N, "M": self.params.M, "D": self.params.D,
                "U": self.params.U, "V": self.params.V, "L": self.params.L,
                "K_V": self.params.K_V, "K_L": self.params.K_L,
                "alpha": self.params.alpha,
            },
            "on_grid": self.on_grid,
            "paths": [
                [
                    {"tau_norm": p.tau_norm, "theta": p.theta,
                     "re": p.gain.real, "im": p.gain.imag}
                    for p in ue
                ]
                for ue in self.paths
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ChannelRealization":
        doc = json.loads(text)
        params = ChannelParams(**doc["params"])
        paths = [
            [
                ChannelPath(p["tau_norm"], p["theta"], complex(p["re"], p["im"]))
                for p in ue
            ]
            for ue in doc["paths"]
        ]
        return cls(params, paths, bool(doc["on_grid"]))


def _gains(L: int, rng: np.random.Generator) -> np.ndarray:
    # i.i.d. circularly-symmetric complex Gaussian, per-path variance 1/L.
    scale = math.sqrt(1.0 / (2 * L))
    return scale * (rng.standard_normal(L) + 1j * rng.standard_normal(L))


def _constrained_pairs(outer_n, inner_n, L, K_outer_per_ue, rng, shared_counts, K_shared):
    """Draw L (outer, inner) grid pairs for one UE.

    ``outer`` is the constrained axis: at most K_outer_per_ue paths of this UE
    may share an outer value, and (when shared_counts is given) at most
    K_shared distinct UEs may use any outer value overall.
    """
    used: dict[int, set[int]] = {}
    pairs = []
    for _ in range(L):
        allowed = [
            o for o in range(outer_n)
            if len(used.get(o, ())) < min(K_outer_per_ue, inner_n)
            and (
                shared_counts is None
                or o in used
                or shared_counts.get(o, 0) < K_shared
            )
        ]
        if not allowed:
            raise ValueError("hierarchical channel constraints are unsatisfiable")
        o = allowed[int(rng.integers(len(allowed)))]
        taken = used.setdefault(o, set())
        free = [i for i in range(inner_n) if i not in taken]
        i = free[int(rng.integers(len(free)))]
        taken.add(i)
        pairs.append((o, i))
    if shared_counts is not None:
        for o in used:
            shared_counts[o] = shared_counts.get(o, 0) + 1
    return pairs


def gen_ongrid(params: ChannelParams, rng: np.random.Generator, option="FS") -> ChannelRealization:
    """Random on-grid realization respecting the option's hierarchy.

    FS: any angle is used by at most K_V active UEs, and by at most K_L
    paths per UE. SF: any delay is used by at most K_L paths per UE. Active
    UEs are drawn uniformly; gains are CN(0, 1/L) so every active UE has
    unit expected power.
    """
    p = params
    fs = as_option(option) is VectorizationOption.FS
    active = sorted(int(i) for i in rng.permutation(p.U)[: p.V])
    paths: list[list[ChannelPath]] = [[] for _ in range(p.U)]
    angle_counts: dict[int, int] = {}
    for u in active:
        if fs:
            pairs = _constrained_pairs(
                p.M, p.D, p.L, p.K_L, rng, angle_counts, p.K_V
            )
            kl = [(d, a) for a, d in pairs]
        else:
            kl = _constrained_pairs(p.D, p.M, p.L, p.K_L, rng, None, 0)
        gains = _gains(p.L, rng)
        paths[u] = [
            ChannelPath(k / p.N, l / p.M, complex(g)) for (k, l), g in zip(kl, gains)
        ]
    return ChannelRealization(p, paths, on_grid=True)


def gen_offgrid(params: ChannelParams, rng: np.random.Generator) -> ChannelRealization:
    """Random off-grid realization: delays uniform on [0, alpha), angles on [0, 1)."""
    p = params
    active = sorted(int(i) for i in rng.permutation(p.U)[: p.V])
    paths: list[list[ChannelPath]] = [[] for _ in range(p.U)]
    for u in active:
        taus = rng.uniform(0.0, p.alpha, size=p.L)
        thetas = rng.uniform(0.0, 1.0, size=p.L)
        gains = _gains(p.L, rng)
        paths[u] = [
            ChannelPath(float(t), float(th), complex(g))
            for t, th, g in zip(taus, thetas, gains)
        ]
    return ChannelRealization(p, paths, on_grid=False)


def grid_indices(path: ChannelPath, N: int, M: int) -> tuple[int, int]:
    """Integer (delay, angle) grid indices of an on-grid path."""
    k = path.tau_norm * N
    l = path.theta * M
    ki, li = int(round(k)), int(round(l))
    if abs(k - ki) > GRID_SNAP_TOL * N or abs(l - li) > GRID_SNAP_TOL * M:
        raise ValueError(f"path ({path.tau_norm}, {path.theta}) is not on the grid")
    return ki, li % M


def delay_angular_matrix(paths, N: int, M: int, D: int) -> np.ndarray:
    """Sparse D x M delay-angular matrix of one UE's on-grid paths."""
    X = np.zeros((D, M), dtype=np.complex128)
    for p in paths:
        k, l = grid_indices(p, N, M)
        if k >= D:
            raise ValueError(f"delay tap {k} outside [0, {D})")
        X[k, l] += p.gain
    return X


def superpose_transfer(paths, N: int, M: int) -> np.ndarray:
    """N x M transfer matrix by direct superposition of path steering vectors."""
    H = np.zeros((N, M), dtype=np.complex128)
    n = np.arange(N)
    m = np.arange(M)
    for p in paths:
        b = np.exp(-2j * np.pi * n * p.tau_norm)
        a = np.exp(-2j * np.pi * m * p.theta)
        H += p.gain * np.outer(b, np.conj(a))
    return H


def synthesize_transfer(realization: ChannelRealization, N=None, M=None, D=None) -> list[np.ndarray]:
    """Per-UE transfer matrices of an on-grid realization via FFT synthesis."""
    p = realization.params
    N, M, D = N or p.N, M or p.M, D or p.D
    if not realization.on_grid:
        raise ValueError("realization is off-grid; use synthesize_transfer_offgrid")
    out = []
    for ue_paths in realization.paths:
        if not ue_paths:
            out.append(np.zeros((N, M), dtype=np.complex128))
            continue
        X = delay_angular_matrix(ue_paths, N, M, D)
        out.append(transfer_from_delay_angular(X, N, M))
    return out


def transfer_from_delay_angular(X: np.ndarray, N: int, M: int) -> np.ndarray:
    """H = F[N,D] @ X @ F[M,M]^H computed with FFTs along both axes."""
    D = X.shape[0]
    buf = np.zeros((N, X.shape[1]), dtype=np.complex128)
    buf[:D] = X
    W = np.fft.fft(buf, axis=0)
    return np.fft.ifft(W, axis=1) * M


def synthesize_transfer_offgrid(realization: ChannelRealization, N=None, M=None) -> list[np.ndarray]:
    """Per-UE transfer matrices for arbitrary (possibly off-grid) parameters."""
    p = realization.params
    N, M = N or p.N, M or p.M
    return [
        superpose_transfer(ue_paths, N, M) if ue_paths
        else np.zeros((N, M), dtype=np.complex128)
        for ue_paths in realization.paths
    ]


def delay_angular_offgrid(H: np.ndarray) -> np.ndarray:
    """Full N x M delay-angular representation: F[N,N]^-1 @ H @ (F[M,M]^H)^-1."""
    M = H.shape[1]
    return np.fft.ifft(np.fft.fft(H, axis=1), axis=0) / M


def dirichlet_vector(K: int, omega: float) -> np.ndarray:
    """Unit-norm leakage pattern of frequency omega onto the K-point grid.

    Entry k is sin(pi*K*x) / (K*sin(pi*x)) * exp(-j*pi*(K-1)*x) with
    x = omega - k/K; the removable singularity at grid points is evaluated
    as its analytic limit, and an omega within 1e-12 of a grid point
    returns the corresponding canonical basis vector exactly.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega {omega} outside [0, 1]")
    g = K * omega
    r = round(g)
    if abs(g - r) < K * GRID_SNAP_TOL:
        out = np.zeros(K, dtype=np.complex128)
        out[int(r) % K] = 1.0
        return out
    x = omega - np.arange(K) / K
    num = np.sin(np.pi * K * x)
    den = K * np.sin(np.pi * x)
    return (num / den) * np.exp(-1j * np.pi * (K - 1) * x)


def dirichlet_sparse(K: int, omega: float, J: int) -> np.ndarray:
    """(2J+1)-sparse truncation of dirichlet_vector keeping the largest entries.

    The kept indices are the 2J+1 grid points nearest omega, consecutive in
    wrap-around order; ties between equal moduli go to the lower index.
    """
    if not 1 <= 2 * J + 1 <= K:
        raise ValueError(f"2J+1 = {2 * J + 1} outside [1, {K}]")
    u = dirichlet_vector(K, omega)
    mod = np.abs(u)
    order = np.argsort(-mod, kind="stable")
    out = np.zeros_like(u)
    keep = order[: 2 * J + 1]
    out[keep] = u[keep]
    return out


def sparse_approx(paths, L1: int, L2: int, N: int, M: int):
    """Sparse N x M stand-in for the exact delay-angular representation.

    Each path contributes the outer product of its (2*L1+1)-sparse delay
    leakage and (2*L2+1)-sparse angle leakage. Returns (X_sp, bound) where
    the Frobenius error ||X - X_sp|| is guaranteed to be at most
    bound = (1/sqrt(L1) + 1/sqrt(L2)) * sum_p |gain_p|.
    """
    if not 1 <= L1 <= (N - 1) // 2:
        raise ValueError(f"L1 must be in [1, {(N - 1) // 2}]")
    if not 1 <= L2 <= (M - 1) // 2:
        raise ValueError(f"L2 must be in [1, {(M - 1) // 2}]")
    X_sp = np.zeros((N, M), dtype=np.complex128)
    total_gain = 0.0
    for p in paths:
        un = dirichlet_sparse(N, p.tau_norm, L1)
        um = dirichlet_sparse(M, p.theta, L2)
        X_sp += p.gain * np.outer(un, np.conj(um))
        total_gain += abs(p.gain)
    bound = (1.0 / math.sqrt(L1) + 1.0 / math.sqrt(L2)) * total_gain
    return X_sp, bound
