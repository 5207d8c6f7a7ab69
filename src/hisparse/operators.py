"""Fast sensing operators for the two-factor (delay x angle) measurement map.

The measurement of the stacked delay-angular unknown is a Kronecker product
of two partial-Fourier factors:

  * delay factor   : (1/sqrt(Np)) * P_sub * diag(c) * F[N, U*D]
  * angle factor   : (1/sqrt(Mp)) * P_ant * F[M, M]

with F the unnormalized DFT matrix [F]_{n,m} = exp(-j*2*pi*m*n/N). Under the
frequency-space (FS) vectorization the operator is conj(angle) (x) delay and
the unknown carries block layout (M, U, D); under space-frequency (SF) it is
delay (x) conj(angle) with layout (U, D, M). The option is also the single
place that decides how matrices are vectorized (``vectorize`` /
``unvectorize``). Forward and adjoint are applied with length-N and length-M
FFTs; ``columns`` builds exact columns of the matrix from the two factors,
and a dense materialization is kept as a test oracle for small problems.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .blocks import BlockShape, DimensionError, MultiLevelVector
from .design import PilotDesign

DENSIFY_CAP = 4096


class VectorizationOption(str, enum.Enum):
    FS = "FS"
    SF = "SF"


def as_option(option) -> VectorizationOption:
    """Parse "FS"/"SF" (any case) or a VectorizationOption; ValueError otherwise."""
    if isinstance(option, VectorizationOption):
        return option
    return VectorizationOption(str(option).upper())


def vectorize(mat: np.ndarray, option) -> np.ndarray:
    """Stack a (rows x cols [x ...]) matrix into a vector per the option.

    FS stacks columns (column-major), SF stacks rows (row-major). Trailing
    axes beyond the first two are kept, so a stack of matrices maps to a
    stack of vectors.
    """
    if as_option(option) is VectorizationOption.FS:
        mat = mat.swapaxes(0, 1)
    return mat.reshape((mat.shape[0] * mat.shape[1],) + mat.shape[2:])


def unvectorize(v: np.ndarray, option, rows: int, cols: int) -> np.ndarray:
    """Inverse of ``vectorize`` for one (rows x cols) matrix."""
    if as_option(option) is VectorizationOption.FS:
        return v.reshape(cols, rows).T
    return v.reshape(rows, cols)


def dft_matrix(n: int, m: int) -> np.ndarray:
    """First m columns of the n-point DFT matrix, entries exp(-j2pi*mn/n)."""
    rows = np.arange(n)[:, None]
    cols = np.arange(m)[None, :]
    return np.exp(-2j * np.pi * rows * cols / n)


def tau_factor(design: PilotDesign) -> np.ndarray:
    """Dense delay factor (Np x U*D): (1/sqrt(Np)) P diag(c) F[N, U*D]."""
    F = dft_matrix(design.N, design.U * design.D)
    scaled = design.base_sequence[:, None] * F
    return scaled[design.subcarriers] / math.sqrt(design.Np)


def theta_factor(design: PilotDesign) -> np.ndarray:
    """Dense angle factor (Mp x M): (1/sqrt(Mp)) P F[M, M]."""
    F = dft_matrix(design.M, design.M)
    return F[design.antennas] / math.sqrt(design.Mp)


class KroneckerSensingOperator:
    """Forward/adjoint linear map between the unknown and the pilot samples.

    The unknown is a multilevel vector with layout (M, U, D) under FS or
    (U, D, M) under SF; the output has length Np*Mp. Both applications run
    in O(M*N log N + Np*M log M). Instances are immutable after
    construction and reentrant.
    """

    def __init__(self, design: PilotDesign, option="FS", densify_cap: int = DENSIFY_CAP):
        self.design = design
        self.option = as_option(option)
        self.densify_cap = int(densify_cap)
        d = design
        self._ud = d.U * d.D
        self._conj_base = np.conj(d.base_sequence)
        if self.option is VectorizationOption.FS:
            self.shape_in = BlockShape((d.M, d.U, d.D))
        else:
            self.shape_in = BlockShape((d.U, d.D, d.M))
        self.in_dim = self.shape_in.total
        self.out_dim = d.Np * d.Mp

    # -- matrix-shaped helpers ------------------------------------------------

    def _values(self, x) -> np.ndarray:
        if isinstance(x, MultiLevelVector):
            if x.shape != self.shape_in:
                raise DimensionError(
                    f"input layout {x.shape.dims} does not match {self.shape_in.dims}"
                )
            return x.values
        v = np.asarray(x, dtype=np.complex128)
        if v.shape != (self.in_dim,):
            raise DimensionError(f"input length {v.shape} != {self.in_dim}")
        return v

    def _apply_tau(self, X: np.ndarray) -> np.ndarray:
        d = self.design
        buf = np.zeros((d.N, X.shape[1]), dtype=np.complex128)
        buf[: self._ud] = X
        W = np.fft.fft(buf, axis=0)
        W *= d.base_sequence[:, None]
        return W[d.subcarriers] / math.sqrt(d.Np)

    def _apply_tau_adj(self, Y: np.ndarray) -> np.ndarray:
        d = self.design
        buf = np.zeros((d.N, Y.shape[1]), dtype=np.complex128)
        buf[d.subcarriers] = Y
        buf *= self._conj_base[:, None]
        G = np.fft.ifft(buf, axis=0) * d.N
        return G[: self._ud] / math.sqrt(d.Np)

    def _apply_theta_adj_right(self, W: np.ndarray) -> np.ndarray:
        # W (rows x M) -> W * theta^H (rows x Mp)
        d = self.design
        V = np.fft.ifft(W, axis=1) * d.M
        return V[:, d.antennas] / math.sqrt(d.Mp)

    def _apply_theta_right(self, Y: np.ndarray) -> np.ndarray:
        # Y (rows x Mp) -> Y * theta (rows x M)
        d = self.design
        buf = np.zeros((Y.shape[0], d.M), dtype=np.complex128)
        buf[:, d.antennas] = Y
        return np.fft.fft(buf, axis=1) / math.sqrt(d.Mp)

    # -- public API -------------------------------------------------------------

    def measurement_matrix(self, x) -> np.ndarray:
        """Noiseless observation as an (Np x Mp) matrix."""
        X = unvectorize(self._values(x), self.option, self._ud, self.design.M)
        return self._apply_theta_adj_right(self._apply_tau(X))

    def forward(self, x) -> np.ndarray:
        """A @ x as a length Np*Mp vector (vectorized per the option)."""
        return vectorize(self.measurement_matrix(x), self.option)

    def observation_matrix(self, y) -> np.ndarray:
        """Inverse of the option's vectorization: length Np*Mp -> (Np x Mp)."""
        v = np.asarray(y, dtype=np.complex128)
        if v.shape != (self.out_dim,):
            raise DimensionError(f"measurement length {v.shape} != {self.out_dim}")
        return unvectorize(v, self.option, self.design.Np, self.design.Mp)

    def adjoint_values(self, y) -> np.ndarray:
        Y = self.observation_matrix(y)
        return vectorize(self._apply_tau_adj(self._apply_theta_right(Y)), self.option)

    def adjoint(self, y) -> MultiLevelVector:
        """A^H @ y as a multilevel vector with the operator's input layout."""
        return MultiLevelVector(self.shape_in, self.adjoint_values(y))

    def columns(self, idx) -> np.ndarray:
        """Exact columns A[:, idx] as an (Np*Mp x len(idx)) matrix.

        Column j is the vectorized outer product of one delay-factor column
        and one conjugated angle-factor column; only those Np + Mp entries per
        column are evaluated, with DFT phases reduced mod N and mod M.
        """
        d = self.design
        idx = np.asarray(idx, dtype=np.int64)
        if self.option is VectorizationOption.FS:
            m, q = np.divmod(idx, self._ud)
        else:
            q, m = np.divmod(idx, d.M)
        sub = d.subcarriers[:, None]
        delay = d.base_sequence[sub] * np.exp(-2j * np.pi * (sub * q % d.N) / d.N)
        angle = np.exp(2j * np.pi * (d.antennas[:, None] * m % d.M) / d.M)
        cols = delay[:, None, :] * angle[None, :, :] / math.sqrt(d.Np * d.Mp)
        return vectorize(cols, self.option)

    def densify(self) -> np.ndarray:
        """Explicit (Np*Mp x U*D*M) matrix; test oracle for small problems."""
        if self.in_dim > self.densify_cap:
            raise ValueError(
                f"dense materialization of {self.in_dim} columns exceeds cap "
                f"{self.densify_cap}"
            )
        At = tau_factor(self.design)
        Ath = theta_factor(self.design)
        if self.option is VectorizationOption.FS:
            return np.kron(np.conj(Ath), At)
        return np.kron(At, np.conj(Ath))


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

    def _values(self, x) -> np.ndarray:
        if isinstance(x, MultiLevelVector):
            return x.values
        return np.asarray(x, dtype=np.complex128)

    def forward(self, x) -> np.ndarray:
        return self.A @ self._values(x)

    def adjoint_values(self, y) -> np.ndarray:
        return self.A.conj().T @ np.asarray(y, dtype=np.complex128)

    def adjoint(self, y) -> MultiLevelVector:
        return MultiLevelVector(self.shape_in, self.adjoint_values(y))

    def columns(self, idx) -> np.ndarray:
        return self.A[:, idx]

    def densify(self) -> np.ndarray:
        return self.A
