"""Multilevel block vectors, hierarchical supports, and hierarchical thresholding.

A multilevel block vector in C^(N1*N2*...*Nl) is stored flat in level-1-major
order: flat index = ((i1*N2 + i2)*N3 + i3)... . A sparsity profile
(s1, ..., sl) constrains the support recursively: at most s1 of the N1 outer
blocks are populated, each populated block holding at most s2 of its N2
sub-blocks, and so on down to s_l elements per innermost block.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np


class DimensionError(ValueError):
    """Shape/profile incompatibility between multilevel objects."""


@dataclass(frozen=True)
class BlockShape:
    """Nested block layout (N1, ..., Nl), l >= 1."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise DimensionError(f"block dims must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)

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
        s = tuple(int(v) for v in self.s)
        if len(s) < 1 or any(v < 1 for v in s):
            raise DimensionError(f"sparsities must be positive, got {s}")
        object.__setattr__(self, "s", s)

    @property
    def levels(self) -> int:
        return len(self.s)

    @property
    def max_support(self) -> int:
        return math.prod(self.s)

    def check_compatible(self, shape: BlockShape) -> None:
        if self.levels != shape.levels:
            raise DimensionError(
                f"profile has {self.levels} levels, shape has {shape.levels}"
            )
        if any(si > ni for si, ni in zip(self.s, shape.dims)):
            raise DimensionError(f"profile {self.s} exceeds block dims {shape.dims}")

    def clip(self, shape: BlockShape) -> "SparsityProfile":
        """Profile with each level capped at the corresponding block dim."""
        if self.levels != shape.levels:
            raise DimensionError("cannot clip profile against mismatched shape")
        return SparsityProfile(tuple(min(si, ni) for si, ni in zip(self.s, shape.dims)))


@dataclass(frozen=True)
class MultiLevelVector:
    """Complex vector with an attached multilevel block layout."""

    shape: BlockShape
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 1 or v.shape[0] != self.shape.total:
            raise DimensionError(
                f"values length {v.shape} does not match shape total {self.shape.total}"
            )
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, shape: BlockShape) -> "MultiLevelVector":
        return cls(shape, np.zeros(shape.total, dtype=np.complex128))

    def blocks(self) -> np.ndarray:
        """View of the values as an ndarray of shape ``shape.dims``."""
        return self.values.reshape(self.shape.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


def _structurally_valid(indices: np.ndarray, shape: BlockShape, profile: SparsityProfile) -> bool:
    """Check the recursive per-level block-count constraints on a flat index set."""
    if indices.size == 0:
        return True
    # Multi-index columns for all support entries.
    multi = np.empty((indices.size, shape.levels), dtype=np.int64)
    rem = indices.copy()
    for lvl in range(shape.levels - 1, -1, -1):
        n = shape.dims[lvl]
        multi[:, lvl] = rem % n
        rem //= n
    # At level k the number of distinct child indices within any fixed prefix
    # must not exceed s_k.
    for lvl in range(shape.levels):
        prefix = multi[:, : lvl + 1]
        distinct = np.unique(prefix, axis=0)
        if lvl == 0:
            counts = {(): distinct.shape[0]}
        else:
            counts = {}
            for row in distinct:
                key = tuple(row[:-1])
                counts[key] = counts.get(key, 0) + 1
        if any(c > profile.s[lvl] for c in counts.values()):
            return False
    return True


def _top_mask(energy: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask keeping the k largest entries along the last axis.

    Ties resolve to the lowest index: stable argsort on the negated values.
    """
    n = energy.shape[-1]
    if k >= n:
        return np.ones_like(energy, dtype=bool)
    order = np.argsort(-energy, axis=-1, kind="stable")
    mask = np.zeros_like(energy, dtype=bool)
    np.put_along_axis(mask, order[..., :k], True, axis=-1)
    return mask


def hi_threshold(x: MultiLevelVector, s: SparsityProfile) -> np.ndarray:
    """Support of the best s-hierarchically-sparse approximation of x.

    Returns the sorted flat indices (int64) of the support.

    Bottom-up selection: per innermost block keep the s_l largest-modulus
    entries, then at each coarser level keep the per-block child blocks of
    largest retained Euclidean norm, up to and including the root (which
    keeps s1 of the N1 outer blocks). Comparisons use squared moduli; ties
    go to the lowest flat index.
    """
    s.check_compatible(x.shape)
    dims = x.shape.dims
    v = x.blocks()
    energy = v.real**2 + v.imag**2

    masks = []
    for lvl in range(len(dims) - 1, -1, -1):
        m = _top_mask(energy, s.s[lvl])
        masks.append(m)
        energy = np.where(m, energy, 0.0).sum(axis=-1)

    full = masks[0]
    for m in masks[1:]:
        full = full & m.reshape(m.shape + (1,) * (full.ndim - m.ndim))
    indices = np.flatnonzero(full.reshape(-1))

    # Drop exact zeros so the support matches supp(z) of the projected vector.
    flat_e = (v.real**2 + v.imag**2).reshape(-1)
    return indices[flat_e[indices] > 0.0]


def project_onto_support(x: MultiLevelVector, indices: np.ndarray) -> MultiLevelVector:
    """Copy of x restricted to the flat indices, zero elsewhere."""
    out = np.zeros_like(x.values)
    out[indices] = x.values[indices]
    return MultiLevelVector(x.shape, out)


def is_hi_sparse(x: MultiLevelVector, s: SparsityProfile) -> bool:
    """True iff supp(x) satisfies the recursive per-level constraints of s."""
    s.check_compatible(x.shape)
    indices = np.flatnonzero(x.values)
    return _structurally_valid(indices.astype(np.int64), x.shape, s)
