"""Multilevel block vectors, hierarchical supports, and hierarchical thresholding.

A multilevel block vector in C^(N1*N2*...*Nl) is a plain ndarray of shape
(N1, ..., Nl). Its flat index is the C-order index, which is level-1-major:
((i1*N2 + i2)*N3 + i3)... . A flat vector becomes one by ``reshape(dims)``,
a view with no copy. A sparsity profile (s1, ..., sl) constrains the support
recursively: at most s1 of the N1 outer blocks are populated, each populated
block holding at most s2 of its N2 sub-blocks, and so on down to s_l elements
per innermost block.

``work_buffer`` hands out per-thread scratch arrays, so the per-pass arrays
of a large solve are allocated once per thread and not mapped afresh on
every call.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import threading

import numpy as np

_work = threading.local()


class DimensionError(ValueError):
    """Shape/profile incompatibility between multilevel objects."""


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class BlockShape:
    """Nested block layout (N1, ..., Nl), l >= 1."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        if not dims or not all(_is_integer(d) and d >= 1 for d in dims):
            raise DimensionError(f"block dims must be positive integers, got {dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))

    @property
    def levels(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return math.prod(self.dims)


@dataclass(frozen=True)
class SparsityProfile:
    """Per-level sparsities (s1, ..., sl)."""

    s: tuple[int, ...]

    def __post_init__(self):
        s = tuple(self.s)
        if not s or not all(_is_integer(v) and v >= 1 for v in s):
            raise DimensionError(f"sparsities must be positive integers, got {s}")
        object.__setattr__(self, "s", tuple(int(v) for v in s))

    @property
    def levels(self) -> int:
        return len(self.s)

    @property
    def max_support(self) -> int:
        return math.prod(self.s)

    def check_compatible(self, dims: tuple[int, ...]) -> None:
        if self.levels != len(dims):
            raise DimensionError(
                f"profile has {self.levels} levels, block dims {dims} have {len(dims)}"
            )
        if any(si > ni for si, ni in zip(self.s, dims)):
            raise DimensionError(f"profile {self.s} exceeds block dims {dims}")

    def clip(self, shape: BlockShape) -> "SparsityProfile":
        """Profile with each level capped at the corresponding block dim."""
        if self.levels != shape.levels:
            raise DimensionError("cannot clip profile against mismatched shape")
        return SparsityProfile(tuple(min(si, ni) for si, ni in zip(self.s, shape.dims)))


def work_buffer(name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """This thread's scratch array for ``name``, of the given shape and dtype.

    The array is made by ``np.empty`` on the thread's first request for
    ``name``, and again whenever the shape or dtype differs from the last
    request; otherwise the same array comes back. Its contents are undefined
    on return: a caller overwrites it fully before reading it and never
    returns it or keeps it past the call that asked for it, so the next
    request for ``name`` on this thread may clobber it. The arrays live as long
    as their thread: a worker pool's buffers go with its threads, the main
    thread's stay.
    """
    buf = getattr(_work, name, None)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = np.empty(shape, dtype)
        setattr(_work, name, buf)
    return buf


def _top_mask(energy: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask keeping the k largest entries along the last axis.

    Ties resolve to the lowest index, as a stable sort would. O(n) per row: a
    partition finds the kth largest value, every entry above it is kept, and
    the entries equal to it fill the remaining places in index order.
    """
    n = energy.shape[-1]
    if k >= n:
        return np.ones_like(energy, dtype=bool)
    kth = np.partition(energy, n - k, axis=-1)[..., n - k, None]
    above = energy > kth
    tied = energy == kth
    room = k - np.count_nonzero(above, axis=-1)[..., None]
    return above | (tied & (np.cumsum(tied, axis=-1) <= room))


def hi_threshold(x: np.ndarray, s: SparsityProfile) -> np.ndarray:
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
