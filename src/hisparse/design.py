"""Pilot design: sampled subcarriers/antennas and phase-ramped UE signatures.

A design fixes the OFDM size N, array size M, delay-tap count D, group size
U, the pilot subcarrier set (Np of N), the observed antenna set (Mp of M),
and a unit-modulus base sequence c of length N. UE u transmits the base
sequence with the per-subcarrier phase ramp exp(-j*2*pi*u*D*n/N), which
makes the stacked delay-domain factor a row-sampled partial Fourier matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import _is_integer

UNIT_MODULUS_TOL = 1e-12


@dataclass(frozen=True)
class PilotDesign:
    N: int
    M: int
    D: int
    U: int
    Np: int
    Mp: int
    subcarriers: np.ndarray
    antennas: np.ndarray
    base_sequence: np.ndarray

    def __post_init__(self):
        for name in ("N", "M", "D", "U", "Np", "Mp"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.U * self.D > self.N:
            raise ValueError(f"U={self.U} exceeds N/D={self.N}/{self.D}")
        if not (1 <= self.Np <= self.N and 1 <= self.Mp <= self.M):
            raise ValueError("pilot/antenna counts out of range")
        sub, ant = np.asarray(self.subcarriers), np.asarray(self.antennas)
        for name, arr, count, limit in (
            ("subcarriers", sub, self.Np, self.N),
            ("antennas", ant, self.Mp, self.M),
        ):
            if arr.size and arr.dtype.kind not in "iu":  # a bool is not an index either
                raise ValueError(f"{name} must be integer indices, got {arr.dtype} entries")
            if arr.size != count or np.unique(arr).size != count:
                raise ValueError(f"{name} must be {count} distinct indices")
            if arr.size and (arr.min() < 0 or arr.max() >= limit):
                raise ValueError(f"{name} out of range [0, {limit})")
        c = np.asarray(self.base_sequence, dtype=np.complex128)
        if c.shape != (self.N,):
            raise ValueError(f"base sequence must have length N={self.N}")
        if np.max(np.abs(np.abs(c) - 1.0)) > UNIT_MODULUS_TOL:
            raise ValueError("base sequence entries must have unit modulus")
        object.__setattr__(self, "subcarriers", np.sort(sub).astype(np.int64, copy=False))
        object.__setattr__(self, "antennas", np.sort(ant).astype(np.int64, copy=False))
        object.__setattr__(self, "base_sequence", c)


def _sample_sorted(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct indices from [n] via a partial Fisher-Yates shuffle, sorted.

    Step i swaps position i with a uniform draw j from [i, n). All k draws come
    from one ``rng.integers`` call with per-step lower bounds, which consumes
    the generator exactly as k scalar calls would.
    """
    if not 0 <= k <= n:
        raise ValueError(f"cannot draw {k} distinct indices from [0, {n})")
    idx = list(range(n))
    for i, j in enumerate(rng.integers(np.arange(k), n).tolist()):
        idx[i], idx[j] = idx[j], idx[i]
    return np.sort(np.array(idx[:k], dtype=np.int64))


def make_design(N, M, D, U, Np, Mp, base_sequence=None, seed=0) -> PilotDesign:
    """Draw subcarrier and antenna sets uniformly without replacement.

    Deterministic given the seed. The default base sequence is all-ones; any
    user-supplied sequence must be length N with unit-modulus entries.
    """
    if base_sequence is None:
        base_sequence = np.ones(N, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    subcarriers = _sample_sorted(N, Np, rng)
    antennas = _sample_sorted(M, Mp, rng)
    return PilotDesign(
        N=N, M=M, D=D, U=U, Np=Np, Mp=Mp,
        subcarriers=subcarriers, antennas=antennas,
        base_sequence=np.asarray(base_sequence, dtype=np.complex128),
    )


def signature(design: PilotDesign, u: int) -> np.ndarray:
    """Length-Np signature of UE u: the phase-ramped base sequence on the pilot subcarriers."""
    if not 0 <= u < design.U:
        raise ValueError(f"UE index {u} out of range [0, {design.U})")
    n = design.subcarriers
    return design.base_sequence[n] * np.exp(-2j * np.pi * u * design.D * n / design.N)
