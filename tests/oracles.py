"""Slow reference implementations that the package's fast paths are tested against.

None of these is on a route that the CLI, the sweep harness or the
``verify`` suites run; each is the dense or direct counterpart of one:

  * ``DenseOperator``: an explicit matrix behind the operator interface that
    ``solve`` takes, against ``KroneckerSensingOperator``;
  * ``delay_angular_matrix`` / ``stack_delay_angular``: the dense on-grid
    truth, against ``simulate.sparse_delay_angular``'s (index, gain) pairs
    and the union-support score of ``run_trial``;
  * ``synthesize_transfer``: FFT synthesis of the on-grid transfer matrices,
    against ``superpose_transfer``;
  * ``naive_mse_trial``: the raw full-sampling observation as its own
    estimate, whose MSE calibrates the noise scale at 1/SNR;
  * ``iter_hi_supports``: the maximal hierarchical supports as tuples, one
    at a time in enumeration order, against the index rows that
    ``ripcheck`` unranks;
  * ``is_hi_sparse``: a per-level count of populated blocks, against the
    supports that ``hi_threshold`` selects;
  * ``mask_hi_threshold``: the selection from complex x with one full-size
    boolean mask per level, ANDed and scanned by ``flatnonzero``, against
    ``hi_threshold``'s top-down assembly from squared moduli;
  * ``split_estimate`` / ``offgrid_trial_oracle``: the off-grid trial with
    one transfer matrix per active UE (None for an inactive one), one
    synthesis and one norm per UE in the transfer domain, against
    ``run_trial``'s delay-angular score of the draw's (g, tail) truth;
  * ``textbook_threshold_loop``: the thresholding solvers' every pass from a
    fresh zero iterate, with no cycle exit, a full x_temp and full squared
    moduli every pass, against ``solve``'s loop, which patches A^H y and its
    moduli only where the step changed them. It takes its step from the
    operator's ``adjoint_residual`` and its HiHTP/HTP refit from the
    operator's ``solve_normal``, as ``solve`` does, so the two loops agree
    bit for bit on every route of either; it tests the loop, not those
    routes. The step routes are checked against ``densify`` in
    ``test_operators`` and against the forward + adjoint loop in
    ``test_recovery``, and the refit routes against the column and
    full-Gram ``lstsq`` in ``test_recovery``.

Test modules import them with ``from oracles import ...``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hisparse.blocks import (BlockShape, DimensionError, SparsityProfile, _top_mask, hi_threshold,
                             squared_moduli, work_buffer)
from hisparse.channel import (
    ChannelParams,
    _complex_normal,
    gen_offgrid,
    gen_ongrid,
    grid_indices,
    superpose_transfer,
    transfer_from_delay_angular,
)
from hisparse.design import make_design, signature
from hisparse.operators import KroneckerSensingOperator, _support, unvectorize, vectorize
from hisparse.recovery import RecoveryConfig, solve
from hisparse.simulate import Condition, ExperimentConfig, SystemConfig, _profile


class DenseOperator:
    """Adapter exposing a dense matrix through the fast-operator interface."""

    def __init__(self, A: np.ndarray, shape_in: BlockShape):
        A = np.asarray(A, dtype=np.complex128)
        if A.ndim != 2 or A.shape[1] != shape_in.total:
            raise DimensionError("matrix width must equal the block layout total")
        self.A = A
        self.shape_in = shape_in
        self.in_dim = shape_in.total
        self.out_dim = A.shape[0]

    def forward(self, idx, values) -> np.ndarray:
        idx, values = _support(idx, values, self.in_dim)
        return self.A[:, idx] @ values

    def adjoint_values(self, y, out=None, moduli=None) -> np.ndarray:
        adj = self.A.conj().T @ np.asarray(y, dtype=np.complex128)
        if out is not None:
            out[...] = adj
            adj = out
        if moduli is not None:
            squared_moduli(adj, out=moduli)
        return adj

    def angle_bounds(self, y):
        """None: a solve on a dense matrix forms A^H y whole, with no screening."""
        return None

    def adjoint_residual(self, y, aty, idx, values, out=None):
        """Every entry and A^H (y - A x) by the two dense products; ``aty`` is not read."""
        return slice(None), self.adjoint_values(y - self.forward(idx, values), out)

    def columns(self, idx) -> np.ndarray:
        return self.A[:, idx]

    def gram(self, idx) -> np.ndarray:
        cols = self.A[:, idx]
        return cols.conj().T @ cols

    def solve_normal(self, aty, idx) -> np.ndarray:
        """The minimum-norm least-squares refit on the restricted Gram."""
        idx = np.asarray(idx, dtype=np.int64)
        return np.linalg.lstsq(self.gram(idx), aty[idx], rcond=None)[0]

    def densify(self) -> np.ndarray:
        return self.A


def step_route(op) -> str:
    """The gradient-step route of a ``KroneckerSensingOperator``: "Mp < M"
    (forward + adjoint), "gram" (one product of the whole unknown with the
    restricted delay Gram) or "fft" (an FFT pair per occupied angle)."""
    if op.design.Mp < op.design.M:
        assert op._delay_gram is None and op._delay_spectrum is None
        return "Mp < M"
    assert (op._delay_gram is None) != (op._delay_spectrum is None)
    return "gram" if op._delay_gram is not None else "fft"


def delay_angular_matrix(paths, N: int, M: int, D: int) -> np.ndarray:
    """Sparse D x M delay-angular matrix of one UE's on-grid paths."""
    X = np.zeros((D, M), dtype=np.complex128)
    for p in paths:
        k, l = grid_indices(p, N, M)
        if k >= D:
            raise ValueError(f"delay tap {k} outside [0, {D})")
        X[k, l] += p.gain
    return X


def synthesize_transfer(paths, params: ChannelParams) -> list[np.ndarray]:
    """Per-UE transfer matrices of an on-grid draw via FFT synthesis."""
    N, M, D = params.N, params.M, params.D
    out = []
    for ue_paths in paths:
        if not ue_paths:
            out.append(np.zeros((N, M), dtype=np.complex128))
            continue
        X = delay_angular_matrix(ue_paths, N, M, D)
        out.append(transfer_from_delay_angular(X, N, M))
    return out


def stack_delay_angular(paths, params: ChannelParams, option: str) -> np.ndarray:
    """True unknown vector (on-grid) under the option's vectorization."""
    p = params
    Xbar = np.zeros((p.U * p.D, p.M), dtype=np.complex128)
    for u, ue_paths in enumerate(paths):
        if ue_paths:
            Xbar[u * p.D : (u + 1) * p.D] = delay_angular_matrix(ue_paths, p.N, p.M, p.D)
    return vectorize(Xbar, option)


def naive_mse_trial(system: SystemConfig, L: int, snr_db: float, trial_index: int, seed: int = 0) -> float:
    """Per-element MSE of the raw full-sampling observation used as estimate."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, trial_index]))
    params = ChannelParams(N=system.N, M=system.M, D=system.D, U=1, V=1, L=L, alpha=system.alpha)
    H = superpose_transfer(gen_ongrid(params, rng, "FS")[0], system.N, system.M)
    snr_linear = 10.0 ** (snr_db / 10.0)
    Y = H + _complex_normal(rng, (system.N, system.M), 1.0 / snr_linear)
    return float(np.linalg.norm(Y - H) ** 2) / (system.N * system.M)


def iter_hi_supports(dims: tuple[int, ...], s: tuple[int, ...], base: int = 0):
    """Yield maximal hierarchical supports as sorted index tuples, lexicographic.

    For one level this is ``itertools.combinations`` of the block's indices.
    The blocks are chosen in increasing order and each sub-support lies in its
    own block's index range, so the chained tuple is already sorted.
    """
    n, k = dims[0], s[0]
    if len(dims) == 1:
        yield from itertools.combinations(range(base, base + n), k)
        return
    stride = math.prod(dims[1:])
    for blocks in itertools.combinations(range(n), k):
        subs = [list(iter_hi_supports(dims[1:], s[1:], base + b * stride)) for b in blocks]
        for choice in itertools.product(*subs):
            yield tuple(itertools.chain.from_iterable(choice))


def is_hi_sparse(x: np.ndarray, s: SparsityProfile) -> bool:
    """True iff supp(x) satisfies the recursive per-level constraints of s.

    x has the block dims as its shape. Innermost level first, no block may
    hold more populated children than that level's sparsity; a block counts
    as populated at the next level up when any entry in it is nonzero.
    """
    s.check_compatible(x.shape)
    used = x != 0
    for lvl in range(x.ndim - 1, -1, -1):
        if (used.sum(axis=-1) > s.s[lvl]).any():
            return False
        used = used.any(axis=-1)
    return True


def mask_hi_threshold(x: np.ndarray, s: SparsityProfile) -> np.ndarray:
    """Support of the best s-hierarchically-sparse approximation of x.

    x has the block dims as its shape. Returns the sorted flat (C-order)
    indices (int64) of the support.

    Bottom-up selection: per innermost block keep the s_l largest-modulus
    entries, then at each coarser level keep the per-block child blocks of
    largest retained Euclidean norm, up to and including the root (which
    keeps s1 of the N1 outer blocks). Comparisons use squared moduli; ties
    go to the lowest flat index. A level of sparsity 1 keeps each block's
    first maximum (``argmax``) and passes that one energy up by a gather.
    The squared moduli are formed in two of this thread's work buffers.
    """
    s.check_compatible(x.shape)
    moduli = work_buffer("hi_threshold.moduli", x.shape, np.float64)
    np.multiply(x.real, x.real, out=moduli)
    moduli += np.multiply(x.imag, x.imag, out=work_buffer("hi_threshold.imag", x.shape, np.float64))
    energy = moduli
    masks = []
    for lvl in range(x.ndim - 1, -1, -1):
        if s.s[lvl] == 1:
            best = np.argmax(energy, axis=-1)[..., None]
            m = np.zeros_like(energy, dtype=bool)
            np.put_along_axis(m, best, True, axis=-1)
            energy = np.take_along_axis(energy, best, axis=-1)[..., 0]
        else:
            m = _top_mask(energy, s.s[lvl])
            energy = np.where(m, energy, 0.0).sum(axis=-1)
        masks.append(m)

    full = masks[0]
    for m in masks[1:]:
        full = full & m.reshape(m.shape + (1,) * (full.ndim - m.ndim))
    indices = np.flatnonzero(full.reshape(-1))

    # Drop exact zeros so the support matches supp(z) of the projected vector.
    return indices[moduli.reshape(-1)[indices] > 0.0]


def textbook_threshold_loop(y, op, select_shape, profile, pursuit, max_iters):
    """x_temp = x + A^H (y - A x) from a fresh zero iterate, every pass run.

    The step A^H (y - A x) is ``op.adjoint_residual(y, A^H y, S, x[S])`` on
    the support S of x, written over a full copy of A^H y; each pass
    selects on the squared moduli of the whole x_temp.

    Returns (x, support, iterations, residual_norm). It stops only when the
    support repeats the previous pass's or after max_iters passes.
    """
    aty = op.adjoint_values(y)
    x = np.zeros(op.in_dim, dtype=complex)
    prev = None
    for i in range(1, max_iters + 1):
        nz = np.flatnonzero(x)
        changed, values = op.adjoint_residual(y, aty, nz, x[nz])
        step = aty.copy()
        step[changed] = values
        x_temp = x + step
        support = hi_threshold(squared_moduli(x_temp.reshape(select_shape.dims)), profile)
        x = np.zeros(op.in_dim, dtype=complex)
        x[support] = op.solve_normal(aty, support) if pursuit else x_temp[support]
        if prev is not None and np.array_equal(support, prev):
            break
        prev = support
    residual = float(np.linalg.norm(y - op.forward(support, x[support])))
    return x, support, i, residual


def split_estimate(x_hat: np.ndarray, option: str, U: int, D: int, M: int) -> list[np.ndarray]:
    """Per-UE D x M delay-angular estimates from a solver output vector."""
    Xbar = unvectorize(x_hat, option, U * D, M)
    return [Xbar[u * D : (u + 1) * D] for u in range(U)]


def offgrid_trial_oracle(config: ExperimentConfig, condition: Condition, Np: int,
                         trial_index: int) -> float:
    """Per-element MSE of one off-grid trial, UE by UE.

    Same draws as ``run_trial``; an inactive UE has no transfer matrix and
    adds nothing to the observation, and each UE's estimate is synthesized
    from a zero-padded N x M copy and scored on its own.
    """
    sys_cfg, chan = config.system, config.channel
    N, M = sys_cfg.N, sys_cfg.M
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, trial_index]))
    params = ChannelParams(N=N, M=M, D=sys_cfg.D, U=sys_cfg.U, V=condition.V, L=condition.L,
                           K_V=chan.K_V, K_L=chan.K_L, alpha=sys_cfg.alpha)
    paths = gen_offgrid(params, rng)
    design = make_design(N, M, sys_cfg.D, sys_cfg.U, Np, config.antenna_count(),
                         seed=int(rng.integers(2**63)))
    op = KroneckerSensingOperator(design, condition.option)
    cfg = RecoveryConfig(algorithm=condition.algorithm, profile=_profile(config, condition))

    transfers = [superpose_transfer(ue_paths, N, M) if ue_paths else None for ue_paths in paths]
    Y = np.zeros((design.Np, design.Mp), dtype=np.complex128)
    for u, H in enumerate(transfers):
        if H is None:
            continue
        Y += signature(design, u)[:, None] * H[np.ix_(design.subcarriers, design.antennas)]
    Y += _complex_normal(rng, (design.Np, design.Mp), 1.0 / 10.0 ** (config.snr_db / 10.0))
    Y = Y / math.sqrt(design.Np * design.Mp)
    result = solve(vectorize(Y, condition.option), op, cfg)
    estimates = split_estimate(result.x_hat, condition.option, sys_cfg.U, sys_cfg.D, M)
    err = 0.0
    for u in range(sys_cfg.U):
        buf = np.zeros((N, M), dtype=np.complex128)  # F[N,D] @ X @ F[M,M]^H on a padded copy
        buf[: sys_cfg.D] = estimates[u]
        H_hat = np.fft.ifft(np.fft.fft(buf, axis=0), axis=1) * M
        H_true = transfers[u] if transfers[u] is not None else 0.0
        err += float(np.linalg.norm(H_hat - H_true) ** 2)
    return err / (N * M)
