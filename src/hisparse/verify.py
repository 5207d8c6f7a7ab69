"""Randomized property suites behind the ``verify`` CLI subcommand.

Each suite prints one line per check and returns True only if every check
passed. These are the operator-correctness, isometry-law, and
approximation-bound properties the rest of the toolkit relies on.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from .blocks import BlockShape, SparsityProfile
from .channel import (
    ChannelPath,
    delay_angular_offgrid,
    dirichlet_vector,
    sparse_approx,
    superpose_transfer,
)
from .design import make_design
from .operators import DENSIFY_CAP, KroneckerSensingOperator, tau_factor
from .recovery import contraction_constants, min_overhead
from .ripcheck import extension_rip_check, hirip_constant, kron_hirip_bound, rip_constant


def print_line(text: str) -> None:
    """Print one line to stdout. Once the reader has closed it (``| head -1``),
    stdout is pointed at the null device: this line and the rest are dropped
    without an error, and the command still runs to its own exit status."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _report(name: str, ok: bool, detail: str = "") -> bool:
    status = "ok" if ok else "FAIL"
    print_line(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    return ok


def _unit_columns(rng, rows: int, cols: int) -> np.ndarray:
    """A (rows x cols) complex Gaussian matrix with its columns scaled to unit norm."""
    A = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return A / np.linalg.norm(A, axis=0)


def _random_design(rng):
    while True:
        N = int(rng.choice([8, 12, 16, 24, 32]))
        D = int(rng.integers(1, max(2, N // 2) + 1))
        U = int(rng.integers(1, N // D + 1))
        M = int(rng.choice([2, 3, 4, 6, 8]))
        if U * D * M <= DENSIFY_CAP:
            break
    Np = int(rng.integers(1, N + 1))
    Mp = int(rng.integers(1, M + 1))
    phase = rng.uniform(0, 2 * np.pi, N)
    base = np.exp(1j * phase)
    return make_design(N, M, D, U, Np, Mp, base_sequence=base, seed=int(rng.integers(2**31)))


def suite_operators(trials: int = 50, seed: int = 0) -> bool:
    rng = np.random.default_rng(seed)
    pick = np.random.default_rng([seed, 1])  # Gram indices; leaves rng's stream as it was
    sparse = np.random.default_rng([seed, 2])  # s-sparse inputs, likewise
    ok = True
    worst_fwd = worst_sparse = worst_adj = worst_dot = worst_col = worst_row = worst_gram = 0.0
    for _ in range(trials):
        design = _random_design(rng)
        option = "FS" if rng.integers(2) == 0 else "SF"
        op = KroneckerSensingOperator(design, option)
        A = op.densify()
        x = rng.standard_normal(op.in_dim) + 1j * rng.standard_normal(op.in_dim)
        y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
        fwd = op.forward(np.arange(op.in_dim), x)
        worst_fwd = max(worst_fwd, np.linalg.norm(fwd - A @ x) / np.linalg.norm(A @ x))
        support = sparse.choice(op.in_dim, min(4, op.in_dim), replace=False)
        x_s = np.zeros(op.in_dim, dtype=complex)
        x_s[support] = sparse.standard_normal(support.size) + 1j * sparse.standard_normal(support.size)
        nz = np.flatnonzero(x_s)
        err = np.linalg.norm(op.forward(nz, x_s[nz]) - A @ x_s) / np.linalg.norm(A @ x_s)
        worst_sparse = max(worst_sparse, err)
        adj = op.adjoint_values(y)
        worst_adj = max(worst_adj, np.linalg.norm(adj - A.conj().T @ y) / np.linalg.norm(A.conj().T @ y))
        dot_gap = abs(np.vdot(y, fwd) - np.vdot(adj, x))
        worst_dot = max(worst_dot, dot_gap / (np.linalg.norm(x) * np.linalg.norm(y)))
        worst_col = max(worst_col, float(np.max(np.abs(np.linalg.norm(A, axis=0) - 1.0))))
        idx = pick.integers(0, op.in_dim, size=8)
        gram_ref = A[:, idx].conj().T @ A[:, idx]
        worst_gram = max(worst_gram, float(np.max(np.abs(op.gram(idx) - gram_ref))))
        # The delay-factor phase table that forward and columns read, against
        # the dense row-sampled factor.
        table = op._delay_columns(np.arange(design.U * design.D)) / math.sqrt(design.Np)
        worst_row = max(worst_row, float(np.max(np.abs(table - tau_factor(design)))))
    ok &= _report("fast forward matches dense", worst_fwd <= 1e-10, f"max rel err {worst_fwd:.2e}")
    ok &= _report("sparse forward matches dense", worst_sparse <= 1e-10,
                  f"max rel err {worst_sparse:.2e}")
    ok &= _report("fast adjoint matches dense", worst_adj <= 1e-10, f"max rel err {worst_adj:.2e}")
    ok &= _report("adjoint identity", worst_dot <= 1e-10, f"max gap {worst_dot:.2e}")
    ok &= _report("unit column norms", worst_col <= 1e-10, f"max dev {worst_col:.2e}")
    ok &= _report("Gram matches dense", worst_gram <= 1e-12, f"max abs err {worst_gram:.2e}")
    ok &= _report("delay factor row structure", worst_row <= 1e-12, f"max dev {worst_row:.2e}")
    return ok


def _sums(**constants) -> str:
    """The exact sums of the constants a line compared, by name, in repr: a
    byte-identical line then pins them even where its gap reads 0."""
    return ", ".join(f"{name} sum {math.fsum(deltas)!r}" for name, deltas in constants.items())


def suite_hirip(trials: int = 50, seed: int = 0) -> bool:
    rng = np.random.default_rng(seed)
    ok = True
    hi, flat = [], []  # the constants compared, summed into the line
    for _ in range(trials):
        while True:
            dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            shape = BlockShape(dims)
            s = SparsityProfile(tuple(int(rng.integers(1, d + 1)) for d in dims))
            if math.comb(shape.total, min(s.max_support, shape.total)) <= 200_000:
                break
        A = _unit_columns(rng, int(rng.integers(4, 10)), shape.total)
        hi.append(hirip_constant(A, shape, s).delta)
        flat.append(rip_constant(A, min(s.max_support, shape.total)).delta)
    worst = max((h - f for h, f in zip(hi, flat)), default=-math.inf)
    ok &= _report("hierarchical constant never exceeds flat constant", worst <= 1e-12,
                  f"{trials} instances, max gap {worst:.2e}, {_sums(hierarchical=hi, flat=flat)}")

    hi, flat = [], []
    for _ in range(trials):
        n = int(rng.integers(3, 7))
        s = int(rng.integers(1, n + 1))
        A = _unit_columns(rng, int(rng.integers(3, 8)), n)
        hi.append(hirip_constant(A, BlockShape((n,)), SparsityProfile((s,))).delta)
        flat.append(rip_constant(A, s).delta)
    worst = max((abs(h - f) for h, f in zip(hi, flat)), default=0.0)
    ok &= _report("single-level constant coincides with flat constant", worst <= 1e-12,
                  f"max gap {worst:.2e}, {_sums(hierarchical=hi, flat=flat)}")

    def _factor(rng, cols):
        return _unit_columns(rng, int(rng.integers(2, 9)), cols)

    worst = -math.inf  # largest exact - bound
    for _ in range(max(1, trials // 2)):
        n1, n2, n3 = (int(rng.integers(2, 4)) for _ in range(3))
        s = SparsityProfile(tuple(int(rng.integers(1, d + 1)) for d in (n1, n2, n3)))
        A1, A2 = _factor(rng, n1), _factor(rng, n2 * n3)
        exact = hirip_constant(np.kron(A1, A2), BlockShape((n1, n2, n3)), s).delta
        worst = max(worst, exact - kron_hirip_bound(A1, A2, s, "outer-first"))
        A1b, A2b = _factor(rng, n1 * n2), _factor(rng, n3)
        exact_b = hirip_constant(np.kron(A1b, A2b), BlockShape((n1, n2, n3)), s).delta
        worst = max(worst, exact_b - kron_hirip_bound(A1b, A2b, s, "inner-merged"))
    ok &= _report("factor bounds dominate exact constants", worst <= 1e-10,
                  f"both groupings, max gap {worst:.2e}")

    checks = [extension_rip_check(make_design(16, 4, 4, 2, 8, 2, seed=1000 + i), 2)
              for i in range(trials)]
    restricted, extended = [c.delta_restricted for c in checks], [c.delta_extended for c in checks]
    worst = max((r - e for r, e in zip(restricted, extended)), default=-math.inf)
    ok &= _report("row-sampled factor constant bounded by padded extension",
                  all(c.holds for c in checks), f"{trials} seeds, max gap {worst:.2e}, "
                  f"{_sums(restricted=restricted, extended=extended)}")
    return ok


def suite_bounds(trials: int = 200, seed: int = 0) -> bool:
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for K in (2, 16, 256):
        omegas = rng.uniform(0, 1, 200)
        for w in omegas:
            worst = max(worst, abs(np.linalg.norm(dirichlet_vector(K, float(w))) - 1.0))
    ok &= _report("leakage vectors have unit norm", worst <= 1e-12, f"max dev {worst:.2e}")

    N = M = 32
    viol = 0
    worst = -math.inf  # largest ||X - X_sp|| - bound
    for _ in range(trials):
        L = int(rng.choice([1, 3]))
        paths = [
            ChannelPath(float(rng.uniform(0, 0.25)), float(rng.uniform(0, 1)),
                        complex(rng.standard_normal(), rng.standard_normal()))
            for _ in range(L)
        ]
        X = delay_angular_offgrid(superpose_transfer(paths, N, M))
        for L1 in (1, 2, 4):
            for L2 in (1, 2, 4):
                X_sp, bound = sparse_approx(paths, L1, L2, N, M)
                worst = max(worst, np.linalg.norm(X - X_sp) - bound)
                if np.count_nonzero(X_sp) > L * (2 * L1 + 1) * (2 * L2 + 1):
                    viol += 1
    ok &= _report("sparse-approximation error bound holds", viol == 0 and worst <= 0.0,
                  f"{trials} channels x 9 truncation levels, max gap {worst:.2e}")

    cc = contraction_constants(0.0, "HiIHT")
    ok &= _report("zero-deviation constants", cc.kappa == 0.0 and abs(cc.tau - 2.18) < 1e-12)
    cc = contraction_constants(0.5, "HiHTP")
    ok &= _report("non-contractive regime flagged", not cc.contractive and cc.tau == math.inf)
    np_min, mp_min = min_overhead(0.4, 0.1, V=1, L=3, K_V=1, K_L=1, N=1024, M=256, C=1.0)
    ok &= _report("overhead formulas saturate at full sampling",
                  np_min == 1024.0 and mp_min == 256.0)
    a = min_overhead(0.3, 0.2, V=1, L=1, K_V=1, K_L=1, N=4096, M=16, C=1e-6)[0]
    b = min_overhead(0.3, 0.2, V=4, L=5, K_V=1, K_L=1, N=4096, M=16, C=1e-6)[0]
    ok &= _report("pilot count independent of V and L (frequency-space)", a == b)
    return ok


SUITES = {
    "operators": suite_operators,
    "hirip": suite_hirip,
    "bounds": suite_bounds,
}
