"""Exact restricted-isometry constants on small matrices by brute force.

Constants are the largest deviation from 1 of the extreme eigenvalues of the
supports' Gram blocks. The flat delta_s (``rip_constant``) is the one-level
case of ``hirip_constant``, with the same enumeration, input checks and caps.
This is exponential by nature: oversized instances are refused, not approximated.

Each call forms one Gram ``G = A^H A``, with ``|G|`` (its diagonal zeroed) and
G's real diagonal, and unranks the supports' numbers in chunks of int64 index
rows (``_unranker``), so memory is bounded by the chunk and no Python runs per
support. When the support size k exceeds the row count, each chunk's rows x
rows ``A_S A_S^H`` stand in for the k x k blocks: they share the nonzero
spectrum, and the Gram's smallest eigenvalue is exactly 0. The witness is the
first maximiser in (lexicographic) enumeration order.

Only supports that can still set delta are eigensolved. Each block H gets a
Gershgorin bound on its deviation, max(max_i(H_ii + R_i) - 1, 1 - min_i(H_ii -
R_i)) with R_i the off-diagonal absolute row sum (1 - lambda_min is exactly 1
on the rows x rows side). Its centres are read from the diagonal and its
|H_ij| from ``|G|`` by real gathers (from the chunk's |H| on the rows x rows
side), and the sums, maxima and minima run slice by slice over the block's
rows, one length-c vector op each for c supports. A support whose bound is
below the running maximum less a relative margin of 1e-9 cannot tie or beat
it, so it is skipped; the first chunk's maximum is seeded by solving its
top-bound support. Only the seed and the surviving supports gather their
complex blocks ``G[S, S]``, which go as one stack through one batched
``eigvalsh``. The constant and the witness are those of solving every
support, in every bit, and ``supports_checked`` counts every enumerated
support, skipped or solved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
import math

import numpy as np

from .blocks import BlockShape, SparsityProfile
from .design import PilotDesign
from .operators import tau_factor

ENUM_CAP = 1_000_000
EIG_BLOCK_CAP = 64
# Block entries per chunk (256 KB as complex): a chunk holds
# _CHUNK_ENTRIES // (k * min(k, rows)) supports, at least one. Chunks of up to
# 32 MB ran no faster and raised peak memory.
_CHUNK_ENTRIES = 2**14
# Slack, relative to max(1, running maximum), when bounding supports out.
# The Gershgorin sums and eigvalsh each err by a small multiple of
# k * 2**-52 times the block norm, and a block whose bound is near the
# running maximum has norm at most 1 + that maximum. Even at k =
# EIG_BLOCK_CAP, 1e-9 is orders above that, so every support that could tie
# or beat the maximum is still solved.
_MARGIN = 1e-9


@dataclass(frozen=True)
class RipReport:
    delta: float
    witness: tuple[int, ...]
    supports_checked: int


def _as_matrix(A) -> np.ndarray:
    """``A`` as a complex matrix; refused unless 2-D, finite and with at least one row."""
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] == 0:
        raise ValueError(f"expected a 2-D matrix with at least one row, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    return A


def _deviation(H: np.ndarray, smaller_side: bool) -> np.ndarray:
    """max(lambda_max - 1, 1 - lambda_min) of each restricted block in a stack."""
    ev = np.linalg.eigvalsh(H)
    return np.maximum(ev[:, -1] - 1.0, 1.0 if smaller_side else 1.0 - ev[:, 0])


def _gershgorin(off: np.ndarray, centre: np.ndarray, smaller_side: bool) -> np.ndarray:
    """Gershgorin bound on each block's deviation, one length-c slice at a time.

    ``off`` holds |H_ij| as (i, j, block) with a zero diagonal, ``centre`` the real
    H_ii as (i, block): every eigenvalue lies within R_i = sum_j |H_ij| of some H_ii.
    """
    radius = sum(off.swapaxes(0, 1))  # R_i, column by column
    top = reduce(np.maximum, centre + radius) - 1.0
    return np.maximum(top, 1.0 if smaller_side else 1.0 - reduce(np.minimum, centre - radius))


def _scan(A: np.ndarray, supports, count: int, k: int):
    """(delta, witness) over the k-column supports numbered 0 .. count - 1.

    ``supports`` maps numbers to sorted index rows. Each chunk's Gershgorin bounds
    come from real gathers of |G| and G's diagonal (from |H| on the rows x rows
    side); only the supports whose bound can still reach the running maximum
    gather their complex blocks and are eigensolved (see above).
    """
    rows, n = A.shape
    smaller_side = k > rows
    if not smaller_side:
        G = A.conj().T @ A
        diag = G.diagonal().real
        off = np.abs(G)
        np.fill_diagonal(off, 0.0)
    chunk = max(1, _CHUNK_ENTRIES // (k * min(k, rows)))

    def blocks(idx, H, sel):
        """The complex blocks of the supports idx[sel]."""
        return H[sel] if smaller_side else G[idx[sel, :, None], idx[sel, None, :]]

    best = -1.0
    witness: tuple[int, ...] = ()
    for start in range(0, count, chunk):
        idx = supports(np.arange(start, min(start + chunk, count)))
        if smaller_side:
            cols = A.T[idx]
            H = cols.transpose(0, 2, 1) @ cols.conj()
            centre = H.diagonal(axis1=1, axis2=2).real.T
            absH = np.abs(H).transpose(1, 2, 0)
            absH[np.arange(rows), np.arange(rows)] = 0.0
        else:
            H = None
            at = np.ascontiguousarray(idx.T)  # (i, block)
            centre = diag.take(at)
            absH = off.take(at[:, None, :] * n + at[None, :, :])  # flat indices into |G|
        bound = _gershgorin(absH, centre, smaller_side)
        floor = best if best >= 0 else (  # the first chunk: its top-bound support seeds it
            _deviation(blocks(idx, H, [int(np.argmax(bound))]), smaller_side)[0])
        live = np.flatnonzero(bound >= floor - _MARGIN * max(1.0, floor))
        if not len(live):
            continue
        dev = _deviation(blocks(idx, H, live), smaller_side)
        j = int(np.argmax(dev))
        if dev[j] > best:
            best = float(dev[j])
            witness = tuple(idx[live[j]].tolist())
    return best, witness


def count_hi_supports(dims: tuple[int, ...], s: tuple[int, ...]) -> int:
    """Number of maximal hierarchical supports for the given layout."""
    SparsityProfile(s).check_compatible(dims)
    count = 1
    for n, k in zip(reversed(dims), reversed(s)):
        count = math.comb(n, k) * count**k
    return count


def _unranker(dims: tuple[int, ...], s: tuple[int, ...]):
    """Function from support numbers to sorted index rows, in lexicographic order.

    t is (outer rank, child numbers) in mixed radix, the last child fastest; a
    k-of-n rank r is the combinadic of C(n, k) - 1 - r, one searchsorted a place.
    """
    # Place m only reaches d < n - k + m, where C(d, m) <= C(n, k). So every number,
    # rank and table entry is at most the count <= ENUM_CAP: int64 cannot overflow.
    n, k, total = dims[0], s[0], math.comb(dims[0], s[0])
    tables = [np.array([math.comb(d, m) for d in range(n - k + m)]) for m in range(k, 0, -1)]
    children = _unranker(dims[1:], s[1:]) if len(dims) > 1 else None
    inner = count_hi_supports(dims[1:], s[1:]) if children else 1

    def supports(t: np.ndarray) -> np.ndarray:
        left = total - 1 - t // inner**k  # C(n, k) - 1 - outer rank
        blocks = np.empty((len(t), k), np.int64)
        for j, table in enumerate(tables):  # place m = k - j: largest d with C(d, m) <= left
            d = table.searchsorted(left, side="right") - 1
            blocks[:, j], left = n - 1 - d, left - table[d]
        if children is None:
            return blocks
        sub = children((t[:, None] // inner ** np.arange(k - 1, -1, -1) % inner).ravel())
        sub = sub.reshape(len(t), k, -1) + math.prod(dims[1:]) * blocks[:, :, None]
        return sub.reshape(len(t), -1)

    return supports


def _enumerate(A: np.ndarray, shape: BlockShape, s: SparsityProfile):
    """(delta, witness, supports checked) over every maximal s-hierarchical support.

    ``s`` must already fit ``shape``. Instances over ``EIG_BLOCK_CAP`` or
    ``ENUM_CAP`` (read at call time) are refused before any eigensolve.
    """
    if A.shape[1] != shape.total:
        raise ValueError(f"matrix width {A.shape[1]} != block layout total {shape.total}")
    if s.max_support > EIG_BLOCK_CAP:
        raise ValueError(f"Gram block size {s.max_support} exceeds eigensolve cap {EIG_BLOCK_CAP}")
    count = count_hi_supports(shape.dims, s.s)
    if count > ENUM_CAP:
        raise ValueError(f"{count} supports exceed enumeration cap {ENUM_CAP}")
    return (*_scan(A, _unranker(shape.dims, s.s), count, s.max_support), count)


def rip_constant(A: np.ndarray, s: int) -> RipReport:
    """Exact flat restricted-isometry constant delta_s by full enumeration.

    The one-level case of ``hirip_constant``: one block of all columns.
    """
    A = _as_matrix(A)
    cols = A.shape[1]
    if not 1 <= s <= cols:
        raise ValueError(f"sparsity {s} outside [1, {cols}]")
    return RipReport(*_enumerate(A, BlockShape((cols,)), SparsityProfile((s,))))


def hirip_constant(A: np.ndarray, shape: BlockShape, s: SparsityProfile) -> RipReport:
    """Exact hierarchical restricted-isometry constant over structured supports."""
    A = _as_matrix(A)
    return RipReport(*_enumerate(A, shape, s.clip(shape)))


def kron_hirip_bound(A1, A2, s: SparsityProfile, grouping: str) -> float:
    """Upper bound on the 3-level constant of kron(A1, A2) from factor constants.

    grouping "outer-first": A1 covers the outer level, A2 the two inner
    levels merged, giving (1 + delta_{s1}(A1)) * (1 + delta_{s2*s3}(A2)) - 1.
    grouping "inner-merged": A1 covers the two outer levels merged, giving
    (1 + delta_{s1*s2}(A1)) * (1 + delta_{s3}(A2)) - 1.
    """
    if s.levels != 3:
        raise ValueError("bound is stated for 3-level profiles")
    s1, s2, s3 = s.s
    sizes = {"outer-first": (s1, s2 * s3), "inner-merged": (s1 * s2, s3)}.get(grouping)
    if sizes is None:
        raise ValueError(f"unknown grouping {grouping!r}")
    return (1.0 + rip_constant(A1, sizes[0]).delta) * (1.0 + rip_constant(A2, sizes[1]).delta) - 1.0


@dataclass(frozen=True)
class ExtensionCheck:
    delta_restricted: float
    delta_extended: float
    holds: bool


def extension_rip_check(design: PilotDesign, s: int) -> ExtensionCheck:
    """delta_s of the delay factor vs. its zero-padded full-width extension.

    The restricted factor uses the first U*D Fourier columns, the extension
    all N; the restricted constant can never exceed the extended one.
    """
    restricted = tau_factor(design)
    extended = tau_factor(replace(design, U=1, D=design.N))
    d_r = rip_constant(restricted, s).delta
    d_e = rip_constant(extended, s).delta
    return ExtensionCheck(d_r, d_e, holds=bool(d_r <= d_e + 1e-12))
