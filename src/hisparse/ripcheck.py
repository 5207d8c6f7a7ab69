"""Exact restricted-isometry constants on small matrices by brute force.

Constants are computed by enumerating supports and taking extreme
eigenvalues of the corresponding Gram blocks. This is exponential by
nature, so every entry point enforces hard caps and refuses oversized
instances instead of approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
import json
import math

import numpy as np

from .blocks import BlockShape, SparsityProfile
from .design import PilotDesign
from .operators import dft_matrix, tau_factor

ENUM_CAP = 1_000_000
EIG_BLOCK_CAP = 64


@dataclass(frozen=True)
class RipReport:
    rows: int
    cols: int
    sparsity: tuple[int, ...] | int
    block_dims: tuple[int, ...] | None
    delta: float
    witness: tuple[int, ...]
    supports_checked: int

    def to_json(self) -> str:
        doc = {
            "rows": self.rows,
            "cols": self.cols,
            "sparsity": list(self.sparsity) if isinstance(self.sparsity, tuple) else self.sparsity,
            "block_dims": list(self.block_dims) if self.block_dims else None,
            "delta": self.delta,
            "witness": list(self.witness),
            "supports_checked": self.supports_checked,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _gram_deviation(A: np.ndarray, support) -> float:
    sub = A[:, list(support)]
    ev = np.linalg.eigvalsh(sub.conj().T @ sub)
    return max(float(ev[-1] - 1.0), float(1.0 - ev[0]))


def _scan(A: np.ndarray, supports):
    best = -1.0
    witness: tuple[int, ...] = ()
    for support in supports:
        d = _gram_deviation(A, support)
        if d > best:
            best = d
            witness = tuple(support)
    return best, witness


def rip_constant(A: np.ndarray, s: int, cap: int = ENUM_CAP) -> RipReport:
    """Exact flat restricted-isometry constant delta_s by full enumeration."""
    A = np.asarray(A, dtype=np.complex128)
    rows, cols = A.shape
    if not 1 <= s <= cols:
        raise ValueError(f"sparsity {s} outside [1, {cols}]")
    if s > EIG_BLOCK_CAP:
        raise ValueError(f"Gram block size {s} exceeds eigensolve cap {EIG_BLOCK_CAP}")
    count = math.comb(cols, s)
    if count > cap:
        raise ValueError(f"{count} supports exceed enumeration cap {cap}")
    delta, witness = _scan(A, itertools.combinations(range(cols), s))
    return RipReport(rows, cols, int(s), None, delta, witness, count)


def count_hi_supports(dims: tuple[int, ...], s: tuple[int, ...]) -> int:
    """Number of maximal hierarchical supports for the given layout."""
    count = 1
    for n, k in zip(reversed(dims), reversed(s)):
        count = math.comb(n, k) * count**k
    return count


def iter_hi_supports(dims: tuple[int, ...], s: tuple[int, ...], base: int = 0):
    """Yield maximal hierarchical supports as sorted index tuples, lexicographic."""
    n, k = dims[0], s[0]
    if len(dims) == 1:
        for combo in itertools.combinations(range(n), k):
            yield tuple(base + i for i in combo)
        return
    stride = math.prod(dims[1:])
    for blocks in itertools.combinations(range(n), k):
        subs = [list(iter_hi_supports(dims[1:], s[1:], base + b * stride)) for b in blocks]
        for choice in itertools.product(*subs):
            yield tuple(sorted(itertools.chain.from_iterable(choice)))


def hirip_constant(
    A: np.ndarray, shape: BlockShape, s: SparsityProfile, cap: int = ENUM_CAP
) -> RipReport:
    """Exact hierarchical restricted-isometry constant over structured supports."""
    A = np.asarray(A, dtype=np.complex128)
    rows, cols = A.shape
    if cols != shape.total:
        raise ValueError(f"matrix width {cols} != block layout total {shape.total}")
    s = s.clip(shape)
    if s.max_support > EIG_BLOCK_CAP:
        raise ValueError(
            f"Gram block size {s.max_support} exceeds eigensolve cap {EIG_BLOCK_CAP}"
        )
    count = count_hi_supports(shape.dims, s.s)
    if count > cap:
        raise ValueError(f"{count} supports exceed enumeration cap {cap}")
    delta, witness = _scan(A, iter_hi_supports(shape.dims, s.s))
    return RipReport(rows, cols, s.s, shape.dims, delta, witness, count)


def kron_hirip_bound(A1, A2, s: SparsityProfile, grouping: str, cap: int = ENUM_CAP) -> float:
    """Upper bound on the 3-level constant of kron(A1, A2) from factor constants.

    grouping "outer-first": A1 covers the outer level, A2 the two inner
    levels merged, giving (1 + delta_{s1}(A1)) * (1 + delta_{s2*s3}(A2)) - 1.
    grouping "inner-merged": A1 covers the two outer levels merged, giving
    (1 + delta_{s1*s2}(A1)) * (1 + delta_{s3}(A2)) - 1.
    """
    if s.levels != 3:
        raise ValueError("bound is stated for 3-level profiles")
    s1, s2, s3 = s.s
    if grouping == "outer-first":
        d1 = rip_constant(np.asarray(A1), s1, cap).delta
        d2 = rip_constant(np.asarray(A2), s2 * s3, cap).delta
    elif grouping == "inner-merged":
        d1 = rip_constant(np.asarray(A1), s1 * s2, cap).delta
        d2 = rip_constant(np.asarray(A2), s3, cap).delta
    else:
        raise ValueError(f"unknown grouping {grouping!r}")
    return (1.0 + d1) * (1.0 + d2) - 1.0


@dataclass(frozen=True)
class ExtensionCheck:
    delta_restricted: float
    delta_extended: float
    holds: bool


def extension_rip_check(design: PilotDesign, s: int, cap: int = ENUM_CAP) -> ExtensionCheck:
    """delta_s of the delay factor vs. its zero-padded full-width extension.

    The restricted factor uses the first U*D Fourier columns, the extension
    all N; the restricted constant can never exceed the extended one.
    """
    restricted = tau_factor(design)
    full = design.base_sequence[:, None] * dft_matrix(design.N, design.N)
    extended = full[design.subcarriers] / math.sqrt(design.Np)
    d_r = rip_constant(restricted, s, cap).delta
    d_e = rip_constant(extended, s, cap).delta
    return ExtensionCheck(d_r, d_e, holds=bool(d_r <= d_e + 1e-12))
