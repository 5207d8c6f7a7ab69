"""Multilevel block vectors, hierarchical supports, and hierarchical thresholding.

A multilevel block vector in C^(N1*N2*...*Nl) is a plain ndarray of shape
(N1, ..., Nl). Its flat index is the C-order index, which is level-1-major:
((i1*N2 + i2)*N3 + i3)... . A flat vector becomes one by ``reshape(dims)``,
a view with no copy. A sparsity profile (s1, ..., sl) constrains the support
recursively: at most s1 of the N1 outer blocks are populated, each populated
block holding at most s2 of its N2 sub-blocks, and so on down to s_l elements
per innermost block. A level of size 1 constrains nothing, and removing it
leaves every flat index as it is, so ``hi_threshold`` drops it before selecting.

``hi_threshold`` selects on squared moduli shaped by the block dims
(``squared_moduli(x)``, float64 re*re + im*im of complex x), so a caller
that changes a few entries of x between selections patches only their
moduli. ``work_buffer`` hands out per-thread scratch arrays, so the per-pass
arrays of a large solve are allocated once per thread and not mapped afresh
on every call.
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
    as their thread: a sweep lane thread's buffers go with it, while lane 0's
    are the calling thread's and stay.
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
    the entries equal to it fill the remaining places in index order. When
    exactly n - k entries of every row lie below the kth value, no row holds
    a tie across it, and ``energy >= kth`` is already that mask: the tie pass
    is skipped. No row can have more than n - k entries below its kth value,
    so one count over all rows decides it. Counting the entries below, not
    those at or above, keeps the exit exact for NaN, which compares false
    either way: a row whose NaN took one of the k places must not let a tied
    row keep more than k.
    """
    n = energy.shape[-1]
    if k >= n:
        return np.ones_like(energy, dtype=bool)
    kth = np.partition(energy, n - k, axis=-1)[..., n - k, None]
    if np.count_nonzero(energy < kth) == (n - k) * (energy.size // n):
        return energy >= kth
    above = energy > kth
    tied = energy == kth
    room = k - np.count_nonzero(above, axis=-1)[..., None]
    return above | (tied & (np.cumsum(tied, axis=-1) <= room))


def squared_moduli(x: np.ndarray, out=None) -> np.ndarray:
    """re*re + im*im of complex x, float64 of x's shape, into ``out`` if given."""
    out = np.multiply(x.real, x.real, out=out)
    out += x.imag * x.imag
    return out


def divide_real(x: np.ndarray, s) -> np.ndarray:
    """x / s in place for a C- or F-contiguous complex array x and a real
    s > 0; returns x.

    numpy divides a complex array by a real number as by s + 0j, with Smith's
    method, which then multiplies each part by fl(1/s). Multiplying the
    float64 parts of x by ``1.0 / s`` gives the same parts at about a sixth
    of the cost. Only the sign of a zero part can differ: the division adds
    the other part times +0.0 first, so for instance a -0.0 real part next to
    a positive imaginary part comes out +0.0.
    """
    if not (x.flags.c_contiguous or x.flags.f_contiguous):
        raise ValueError("divide_real needs a contiguous array")
    parts = x.ravel(order="K").view(np.float64)  # x's own memory, in its order
    parts *= 1.0 / s
    return x


def hi_threshold(moduli: np.ndarray, s: SparsityProfile) -> np.ndarray:
    """Support of the best s-hierarchically-sparse approximation of x.

    ``moduli`` is x's squared moduli (``squared_moduli(x)``, real floating
    point) shaped by the block dims. Returns the sorted flat (C-order)
    indices (int64) of the support. A NaN energy is outside this contract:
    a row whose kth largest slot holds NaN keeps fewer than its k entries.
    No pass here looks for one, since it would cost about what a selection
    costs; ``solve`` refuses a non-finite y or A^H y before its first pass.

    A level of size 1 has no choice to make, so it is dropped with its
    sparsity first: the C-order flat indices stay the same (a layout of all
    ones keeps one level). Bottom-up selection: per innermost block keep the
    s_l largest entries, then at each coarser level keep the per-block child
    blocks of largest retained energy, up to the root (s1 of the N1 outer
    blocks). Ties go to the lowest flat index. A level of sparsity 1 keeps
    each block's first maximum (``argmax``) and passes its energy up by a
    gather; any other level keeps a ``_top_mask`` row, which is all true
    when s >= N. The root level's pick is read by nothing above it, so it
    forms no energy. The support is then built top-down: the root's pick
    gives the first kept blocks, and each level below reads its pick only
    for the blocks kept above it.
    """
    moduli = np.asarray(moduli)
    if not np.issubdtype(moduli.dtype, np.floating):
        raise DimensionError(f"hi_threshold takes real squared moduli, got dtype {moduli.dtype}")
    s.check_compatible(moduli.shape)
    dims, ks = zip(*([(n, k) for n, k in zip(moduli.shape, s.s) if n > 1] or [(1, 1)]))
    energy, picks = moduli.reshape(dims), []  # per level, innermost first: argmax or _top_mask
    for lvl in range(len(dims) - 1, -1, -1):
        k = ks[lvl]
        pick = np.argmax(energy, axis=-1) if k == 1 else _top_mask(energy, k)
        picks.append(pick)
        if lvl == 0:  # the root: no level above reads its energy
            break
        if k == 1:
            energy = np.take_along_axis(energy, pick[..., None], axis=-1)[..., 0]
        else:
            energy = np.where(pick, energy, 0.0).sum(axis=-1)

    root = picks[-1]  # kept: flat indices of the blocks kept so far
    kept = np.flatnonzero(root) if root.dtype == bool else root.reshape(1)
    for pick, n in zip(reversed(picks[:-1]), dims[1:]):
        if pick.dtype == bool:
            rows, cols = np.nonzero(pick.reshape(-1, n)[kept])
            kept = kept[rows] * n + cols
        else:
            kept = kept * n + pick.reshape(-1)[kept]

    # Drop exact zeros so the support matches supp(z) of the projected vector.
    return kept[moduli.reshape(-1)[kept] > 0.0]
