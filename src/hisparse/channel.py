"""Multipath channel synthesis and delay-angular representations.

Each UE channel is a superposition of L paths with normalized delay
tau_norm = tau/Ts in [0, alpha] and normalized angle theta in [0, 1):

    H[n, m] = sum_p gain_p * exp(-j2pi*n*tau_norm_p) * exp(+j2pi*m*theta_p)

On-grid paths sit on the (1/N, 1/M) sampling grid and admit an exactly
L-sparse D x M delay-angular matrix; off-grid paths leak energy over the
whole N x M grid but concentrate it on a few entries, which the sparse
approximation below exploits.

A draw (``gen_ongrid``, ``gen_offgrid``) is its U per-UE path lists, empty
for an inactive UE; its sizes stay with the caller's ``ChannelParams``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
import math

import numpy as np

from .blocks import _is_integer, divide_real
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
        for name in ("K_V", "K_L"):
            value = getattr(self, name)
            if not _is_integer(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _complex_normal(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussian draws of the given variance
    (the real parts drawn first, then the imaginary parts)."""
    scale = math.sqrt(variance / 2)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _constrained_pairs(outer_n, inner_n, L, K_outer_per_ue, rng, shared_counts, K_shared):
    """Draw L (outer, inner) grid pairs for one UE.

    ``outer`` is the constrained axis: at most K_outer_per_ue paths of this UE
    may share an outer value, and (when shared_counts is given) at most
    K_shared distinct UEs may use any outer value overall. ``shared_counts``
    is then a length-outer_n array counting the UEs that use each outer
    value; this UE's values are added to it. Each path takes a uniform pick
    among the allowed outer values, then among that value's free inner
    values, both in ascending order.
    """
    cap = min(K_outer_per_ue, inner_n)
    # Outer values this UE may still take. shared_counts changes only after
    # the UE's draw, so a value under K_shared UEs now stays so throughout.
    if shared_counts is None:
        open_outer = np.ones(outer_n, dtype=bool)
    else:
        open_outer = shared_counts < K_shared
    taken: dict[int, list[int]] = {}  # outer -> its taken inner values, ascending
    pairs = []
    for _ in range(L):
        allowed = np.flatnonzero(open_outer)
        if not allowed.size:
            raise ValueError("hierarchical channel constraints are unsatisfiable")
        o = int(allowed[int(rng.integers(allowed.size))])
        used = taken.setdefault(o, [])
        i = int(rng.integers(inner_n - len(used)))
        for t in used:  # the i-th free inner value: step over each taken one at or below it
            if t <= i:
                i += 1
        bisect.insort(used, i)
        open_outer[o] = len(used) < cap
        pairs.append((o, i))
    if shared_counts is not None:
        shared_counts[list(taken)] += 1
    return pairs


def ongrid_draw_can_fail(M: int, D: int, V: int, L: int, K_V: int, K_L: int, option) -> bool:
    """True when some ``gen_ongrid`` draw runs out of grid points; all counts >= 1.

    SF: a UE's L paths fit on D delays of min(K_L, M) paths each. FS: a UE
    needs floor((L-1)/min(K_L, D)) + 1 angles. The V-1 UEs drawn before it
    use at most min(L, M) angles each, so once V-1 >= K_V they can bring up
    to floor((V-1)*min(L, M)/K_V) angles to their limit of K_V UEs.
    """
    if as_option(option) is VectorizationOption.SF:
        return L > D * min(K_L, M)
    full = (V - 1) * min(L, M) // K_V if V - 1 >= K_V else 0
    return (L - 1) // min(K_L, D) + full >= M


def gen_ongrid(params: ChannelParams, rng: np.random.Generator, option="FS") -> list[list[ChannelPath]]:
    """Random on-grid draw respecting the option's hierarchy: U path lists.

    FS: any angle is used by at most K_V active UEs, and by at most K_L
    paths per UE. SF: any delay is used by at most K_L paths per UE. Active
    UEs are drawn uniformly; gains are CN(0, 1/L) so every active UE has
    unit expected power.
    """
    p = params
    fs = as_option(option) is VectorizationOption.FS
    active = sorted(int(i) for i in rng.permutation(p.U)[: p.V])
    paths: list[list[ChannelPath]] = [[] for _ in range(p.U)]
    angle_counts = np.zeros(p.M, dtype=np.int64)  # active UEs per angle
    for u in active:
        if fs:
            pairs = _constrained_pairs(
                p.M, p.D, p.L, p.K_L, rng, angle_counts, p.K_V
            )
            kl = [(d, a) for a, d in pairs]
        else:
            kl = _constrained_pairs(p.D, p.M, p.L, p.K_L, rng, None, 0)
        gains = _complex_normal(rng, p.L, 1.0 / p.L)
        paths[u] = [
            ChannelPath(k / p.N, l / p.M, complex(g)) for (k, l), g in zip(kl, gains)
        ]
    return paths


def gen_offgrid(params: ChannelParams, rng: np.random.Generator) -> list[list[ChannelPath]]:
    """Random off-grid draw, U path lists: delays uniform on [0, alpha), angles on [0, 1)."""
    p = params
    active = sorted(int(i) for i in rng.permutation(p.U)[: p.V])
    paths: list[list[ChannelPath]] = [[] for _ in range(p.U)]
    for u in active:
        taus = rng.uniform(0.0, p.alpha, size=p.L)
        thetas = rng.uniform(0.0, 1.0, size=p.L)
        gains = _complex_normal(rng, p.L, 1.0 / p.L)
        paths[u] = [
            ChannelPath(float(t), float(th), complex(g))
            for t, th, g in zip(taus, thetas, gains)
        ]
    return paths


def grid_indices(path: ChannelPath, N: int, M: int) -> tuple[int, int]:
    """Integer (delay, angle) grid indices of an on-grid path."""
    k = path.tau_norm * N
    l = path.theta * M
    ki, li = int(round(k)), int(round(l))
    if abs(k - ki) > GRID_SNAP_TOL * N or abs(l - li) > GRID_SNAP_TOL * M:
        raise ValueError(f"path ({path.tau_norm}, {path.theta}) is not on the grid")
    return ki, li % M


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


def transfer_from_delay_angular(X: np.ndarray, N: int, M: int) -> np.ndarray:
    """H = F[N,D] @ X @ F[M,M]^H by FFTs over the last two axes.

    X is one D x M matrix or a (..., D, M) stack, mapped slice by slice.
    """
    return np.fft.ifft(np.fft.fft(X, n=N, axis=-2), axis=-1) * M


def delay_angular_offgrid(H: np.ndarray) -> np.ndarray:
    """Full N x M delay-angular representation: F[N,N]^-1 @ H @ (F[M,M]^H)^-1.

    H is one N x M matrix or a (..., N, M) stack, mapped slice by slice.
    """
    M = H.shape[-1]
    return divide_real(np.fft.ifft(np.fft.fft(H, axis=-1), axis=-2), M)


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
