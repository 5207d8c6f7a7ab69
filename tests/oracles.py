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
    ``ripcheck`` unranks.

Test modules import them with ``from oracles import ...``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hisparse.blocks import BlockShape, DimensionError
from hisparse.channel import (
    ChannelParams,
    ChannelRealization,
    gen_ongrid,
    grid_indices,
    superpose_transfer,
    transfer_from_delay_angular,
)
from hisparse.operators import _support, vectorize
from hisparse.simulate import SystemConfig, _noise


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

    def adjoint_values(self, y, out=None) -> np.ndarray:
        adj = self.A.conj().T @ np.asarray(y, dtype=np.complex128)
        if out is None:
            return adj
        out[...] = adj
        return out

    def columns(self, idx) -> np.ndarray:
        return self.A[:, idx]

    def gram(self, idx) -> np.ndarray:
        cols = self.A[:, idx]
        return cols.conj().T @ cols

    def densify(self) -> np.ndarray:
        return self.A


def delay_angular_matrix(paths, N: int, M: int, D: int) -> np.ndarray:
    """Sparse D x M delay-angular matrix of one UE's on-grid paths."""
    X = np.zeros((D, M), dtype=np.complex128)
    for p in paths:
        k, l = grid_indices(p, N, M)
        if k >= D:
            raise ValueError(f"delay tap {k} outside [0, {D})")
        X[k, l] += p.gain
    return X


def synthesize_transfer(realization: ChannelRealization) -> list[np.ndarray]:
    """Per-UE transfer matrices of an on-grid realization via FFT synthesis."""
    N, M, D = realization.params.N, realization.params.M, realization.params.D
    out = []
    for ue_paths in realization.paths:
        if not ue_paths:
            out.append(np.zeros((N, M), dtype=np.complex128))
            continue
        X = delay_angular_matrix(ue_paths, N, M, D)
        out.append(transfer_from_delay_angular(X, N, M))
    return out


def stack_delay_angular(realization: ChannelRealization, option: str) -> np.ndarray:
    """True unknown vector (on-grid) under the option's vectorization."""
    p = realization.params
    Xbar = np.zeros((p.U * p.D, p.M), dtype=np.complex128)
    for u, paths in enumerate(realization.paths):
        if paths:
            Xbar[u * p.D : (u + 1) * p.D] = delay_angular_matrix(paths, p.N, p.M, p.D)
    return vectorize(Xbar, option)


def naive_mse_trial(system: SystemConfig, L: int, snr_db: float, trial_index: int, seed: int = 0) -> float:
    """Per-element MSE of the raw full-sampling observation used as estimate."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, trial_index]))
    params = ChannelParams(N=system.N, M=system.M, D=system.D, U=1, V=1, L=L, alpha=system.alpha)
    realization = gen_ongrid(params, rng, "FS")
    H = superpose_transfer(realization.paths[0], system.N, system.M)
    snr_linear = 10.0 ** (snr_db / 10.0)
    Y = H + _noise(rng, system.N, system.M, snr_linear)
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
