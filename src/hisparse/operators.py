"""Fast sensing operators for the two-factor (delay x angle) measurement map.

The measurement of the stacked delay-angular unknown is a Kronecker product
of two partial-Fourier factors:

  * delay factor   : (1/sqrt(Np)) * P_sub * diag(c) * F[N, U*D]
  * angle factor   : (1/sqrt(Mp)) * P_ant * F[M, M]

with F the unnormalized DFT matrix [F]_{n,m} = exp(-j*2*pi*m*n/N). The
unknown is one flat complex array: the (U*D x M) delay-angular matrix
vectorized per the option. Under the frequency-space (FS) vectorization the
operator is conj(angle) (x) delay and the flat index factors as block layout
(M, U, D); under space-frequency (SF) it is delay (x) conj(angle) with layout
(U, D, M). ``shape_in`` holds that layout, and reshaping the flat array to
``shape_in.dims`` gives the multilevel block vector that thresholding takes.
The option is also the single place that decides how matrices are vectorized
(``vectorize`` / ``unvectorize``, and ``flat_index`` for single entries).

Both factor Grams are circulant: entry (q, q') depends only on (q - q') mod
N, entry (m, m') only on (m - m') mod M, so ``gram`` evaluates any restricted
Gram from two kernels. With every antenna observed (Mp = M) the angle factor
is the unitary M-point DFT, so A^H A = I (x) T^H T (FS) or T^H T (x) I (SF),
with T the delay factor: the gradient step ``adjoint_residual`` then stays in
the delay domain and the least-squares refit ``solve_normal`` splits by
angle. On the FFT step route that step changes only the angles x occupies,
so ``angle_bounds`` bounds each angle's |A^H y|^2 from the pilot spectrum,
and a thresholding pass forms A^H y (``adjoint_values(..., angles=)``) only
on the angles those bounds cannot rule out. Each method's docstring gives
its routes and their costs; the design picks the route, apart from the
refit's lstsq of a singular block.
``columns`` builds exact columns from the two factors, and ``densify`` a
dense matrix kept as a test oracle for small problems.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .blocks import BlockShape, DimensionError, divide_real, squared_moduli, work_buffer
from .design import PilotDesign

DENSIFY_CAP = 4096
# The adjoint's delay step is one matrix product, not M length-N FFTs, when
# Np*U*D <= PRODUCT_CROSSOVER * N*log2(N). Per call the two routes cost about
# the same between ratios 2 and 5 (x86 VM, one BLAS thread); at ratio 13 the
# product took 1.8x the FFT's time.
PRODUCT_CROSSOVER = 2.0
# The product route runs its one matrix product in blocks of whole output rows,
# about this many output entries each, so that optional squared moduli read
# each block while it is still in cache. Median cold pass-1 solve at the paper
# preset (262,144 entries; a cache-evicting job run between calls, x86 VM, one
# BLAS thread; three runs each): blocks of 16k-64k entries 2.4-3.5 ms, 8k
# 2.7-3.2 ms, one block of all entries 3.1-3.7 ms, and moduli taken in a
# second pass after the whole product 3.1-3.2 ms.
ADJOINT_BLOCK = 32768
# With every antenna observed, the gradient step is one product of the whole
# (M x U*D) unknown with the restricted delay Gram (U*D x U*D), not an FFT pair
# per occupied angle and a patch of A^H y there, when both bounds hold:
#   (U*D)**2 <= GRAM_ANGLE_CROSSOVER * N*log2(N): per angle the product costs
#     no more than the FFT pair, so it can win even when x occupies every
#     angle. Per call at r = 3 occupied angles, the product of those angles
#     alone took 1.1-1.2x the FFT pair's time at ratios 8 and 18.
#   M*(U*D)**2 <= GRAM_STEP_CROSSOVER * N*log2(N): the product over all M
#     angles against the FFT pairs of the few that x occupies. Per later HiIHT
#     pass at r = 4, the FFT route's patch and restore included (x86 VM, one
#     BLAS thread), Gram against FFT route: ratio 73 (the small preset) 72
#     against 97 us; 146 (N = 128, M = 128, U*D = 32) 96 against 114 us; 229
#     126 against 129 us; 250 (N = 1024, M = 64, U*D = 200) 441 against 249
#     us; 293 (N = 128, M = 256, U*D = 32) 148 against 140 us; 26214 (the
#     paper preset) 33.6 against 1.6 ms.
GRAM_ANGLE_CROSSOVER = 4.0
GRAM_STEP_CROSSOVER = 200.0
# With every antenna observed, a least-squares refit solves a per-angle block
# in its batched solve only if the block's Cholesky factorization succeeds
# with every squared pivot at least this fraction of the largest; otherwise
# that block alone takes the minimum-norm lstsq of its own Gram.
CHOLESKY_PIVOT_FLOOR = 1e-8


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


def flat_index(option, row, col, rows: int, cols: int) -> np.ndarray:
    """Position of entry (row, col) of a (rows x cols) matrix in its ``vectorize``d vector."""
    row, col = np.asarray(row, dtype=np.int64), np.asarray(col, dtype=np.int64)
    if as_option(option) is VectorizationOption.FS:
        return col * rows + row
    return row * cols + col


def unknown_shape(option, M: int, U: int, D: int) -> BlockShape:
    """Block layout of the unknown: (M, U, D) under FS, (U, D, M) under SF."""
    if as_option(option) is VectorizationOption.FS:
        return BlockShape((M, U, D))
    return BlockShape((U, D, M))


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


def _support(idx, values, in_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Check a support argument of ``forward``: DimensionError unless ``idx``
    is a 1-D strictly increasing index array in [0, in_dim) and ``values``
    has one entry per index."""
    idx = np.asarray(idx, dtype=np.int64)
    values = np.asarray(values, dtype=np.complex128)
    if idx.ndim != 1 or values.shape != idx.shape:
        raise DimensionError(
            f"support needs a 1-D index array and one value per index, "
            f"got shapes {idx.shape} and {values.shape}")
    if idx.size and (idx[0] < 0 or idx[-1] >= in_dim or np.count_nonzero(idx[1:] <= idx[:-1])):
        raise DimensionError(f"support indices must be strictly increasing in [0, {in_dim})")
    return idx, values


def _groups(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct keys, each key's position among them) of integer keys in [0, n)."""
    seen = np.zeros(n, dtype=bool)
    seen[keys] = True
    distinct = np.flatnonzero(seen)
    return distinct, np.searchsorted(distinct, keys)


class KroneckerSensingOperator:
    """Forward/adjoint linear map between the unknown and the pilot samples.

    The unknown is a flat array of length ``in_dim`` in layout ``shape_in``;
    the output has length Np*Mp. The tables a route reads (``_adjoint_table``,
    ``_delay_gram``, ``_delay_spectrum``) are built at construction, and each
    is None when its route is not taken. Instances are immutable after
    construction and reentrant: concurrent calls from different threads
    share no scratch memory.
    """

    def __init__(self, design: PilotDesign, option="FS"):
        self.design = design
        self.option = as_option(option)
        d = design
        self._ud = d.U * d.D
        self._adjoint_weights = np.conj(d.base_sequence[d.subcarriers]) / math.sqrt(d.Np)
        self._twiddle = np.exp(-2j * np.pi * np.arange(d.N) / d.N)  # read at n*q mod N
        # conj(T) for the product route of the delay adjoint; see PRODUCT_CROSSOVER.
        if d.Np * self._ud <= PRODUCT_CROSSOVER * d.N * math.log2(d.N):
            table = self._delay_columns(np.arange(self._ud))
            self._adjoint_table = divide_real(np.conjugate(table, out=table), math.sqrt(d.Np))
        else:
            self._adjoint_table = None
        self.shape_in = unknown_shape(self.option, d.M, d.U, d.D)
        self.in_dim = self.shape_in.total
        self.out_dim = d.Np * d.Mp
        # Circulant Gram kernels: (T^H T)[q, q'] = tau_kernel[(q - q') mod N]
        # and (conj(Theta)^H conj(Theta))[m, m'] = angle_kernel[(m - m') mod M].
        weights = np.zeros(d.N)
        weights[d.subcarriers] = np.abs(d.base_sequence[d.subcarriers]) ** 2
        self._tau_kernel = np.fft.ifft(weights) * (d.N / d.Np)
        mask = np.zeros(d.M)
        mask[d.antennas] = 1.0
        self._angle_kernel = np.conj(np.fft.ifft(mask) * (d.M / d.Mp))
        # The Mp = M gradient step's table (see adjoint_residual): the delay
        # Gram restricted to U*D x U*D, or its DFT, weights * N/Np, scaled by
        # 1/N here for an unnormalized inverse FFT.
        self._delay_spectrum = self._delay_gram = None
        if d.Mp == d.M:
            fft_cost = d.N * math.log2(d.N)
            if (self._ud ** 2 <= GRAM_ANGLE_CROSSOVER * fft_cost
                    and d.M * self._ud ** 2 <= GRAM_STEP_CROSSOVER * fft_cost):
                delays = np.arange(self._ud)
                self._delay_gram = self._tau_kernel[(delays[:, None] - delays) % d.N]
            else:
                self._delay_spectrum = weights / d.Np

    def _checked(self, array, dtype, name: str) -> np.ndarray:
        """``array`` as given if it is a C-contiguous ``dtype`` array of length in_dim."""
        if (not isinstance(array, np.ndarray) or array.shape != (self.in_dim,)
                or array.dtype != dtype or not array.flags.c_contiguous):
            raise DimensionError(
                f"{name} must be a C-contiguous {np.dtype(dtype).name} array of length {self.in_dim}")
        return array

    def _destination(self, out) -> np.ndarray:
        """``out`` checked as a C-contiguous complex128 array of length in_dim, or a new one."""
        if out is None:
            return np.empty(self.in_dim, dtype=np.complex128)
        return self._checked(out, np.complex128, "out")

    def _split(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices -> (delay index q in [0, U*D), angle index m in [0, M))."""
        idx = np.asarray(idx, dtype=np.int64)
        if self.option is VectorizationOption.FS:
            m, q = np.divmod(idx, self._ud)
        else:
            q, m = np.divmod(idx, self.design.M)
        return q, m

    def _delay_columns(self, q: np.ndarray) -> np.ndarray:
        """Unnormalized delay-factor columns sqrt(Np) * T[:, q], phases reduced mod N."""
        d = self.design
        sub = d.subcarriers[:, None]
        return d.base_sequence[sub] * self._twiddle[sub * q % d.N]

    def forward(self, idx, values) -> np.ndarray:
        """A @ x for the x that holds ``values`` at the flat indices ``idx``.

        ``idx`` must be strictly increasing in [0, in_dim). The values are
        scattered into an (r x M) block of the r occupied delay rows, each at
        its row's position among them. Only the support is read. The block
        enters the matching delay-factor columns, and the (Np x M) product is
        then mapped through the angle factor by length-M inverse FFTs read at
        the observed antennas; no length-N FFT runs. Cost O(U*D + |S| log r +
        Np*r*M + Np*M log M), independent of ``in_dim``. Returns a length
        Np*Mp vector (vectorized per the option). A dense x enters as
        ``forward(np.flatnonzero(x), x[np.flatnonzero(x)])``.
        """
        d = self.design
        idx, values = _support(idx, values, self.in_dim)
        q, m = self._split(idx)
        rows, slot = _groups(q, self._ud)
        block = np.zeros((rows.size, d.M), dtype=np.complex128)
        block[slot, m] = values
        W = divide_real(self._delay_columns(rows) @ block, math.sqrt(d.Np))
        V = np.fft.ifft(W, axis=1) * d.M
        return vectorize(divide_real(V[:, d.antennas], math.sqrt(d.Mp)), self.option)

    def _pilot_spectrum(self, y) -> np.ndarray:
        """Z, the (Np x M) angle adjoint of the measurement y: one length-M FFT
        per pilot row of the (Np x Mp) observation zero-padded to M antennas,
        scaled by 1/sqrt(Mp). O(Np*M log M)."""
        d = self.design
        v = np.asarray(y, dtype=np.complex128)
        if v.shape != (self.out_dim,):
            raise DimensionError(f"measurement length {v.shape} != {self.out_dim}")
        padded = np.zeros((d.Np, d.M), dtype=np.complex128)
        padded[:, d.antennas] = unvectorize(v, self.option, d.Np, d.Mp)
        return divide_real(np.fft.fft(padded, axis=1), math.sqrt(d.Mp))

    def adjoint_values(self, y, out=None, moduli=None, angles=None) -> np.ndarray:
        """A^H @ y as a flat vector of the input length, written into ``out``.

        ``out`` is an optional destination: a C-contiguous complex128 array
        of length ``in_dim``, allocated when None; the result is the same in
        every bit either way. ``moduli``, if given, is a C-contiguous float64
        array of length ``in_dim`` that receives ``squared_moduli`` of the
        result, the same bits as that call on the returned array. ``angles``,
        if given, is a nonempty 1-D index of angles in [0, M), and ``out``
        must be given with it: then only the entries of those angles are
        written, in ``out`` and ``moduli``, with the bits the whole call
        writes there (``_form_angles``). All of these are checked before any
        product. The angle adjoint is the pilot spectrum Z
        (``_pilot_spectrum``). The delay adjoint takes one of two routes:

          * product route, when Np*U*D <= PRODUCT_CROSSOVER * N*log2(N)
            (sparse pilots): Z^T times the table ``_adjoint_table`` =
            conj(T) (Np x U*D), one matrix product written into ``out``
            viewed as (M x U*D) under FS or (U*D x M) under SF, with each
            block's moduli formed right after it (``_product``).
            O(Np*U*D*M); the product needs no scratch memory.
          * FFT route otherwise: one unnormalized length-N inverse FFT per
            angle, run in place along the contiguous rows of an (M x N)
            buffer (``_delay_ffts``). Under FS with U*D = N that buffer is
            ``out`` viewed as (M x N); otherwise it is this thread's work
            buffer, and its first U*D columns are copied into ``out``. The
            moduli are formed from ``out`` at the end. O(M*N log N).
        """
        d = self.design
        if angles is not None:
            angles = np.asarray(angles, dtype=np.int64)
            if (out is None or angles.ndim != 1 or not angles.size
                    or angles.min() < 0 or angles.max() >= d.M):
                raise DimensionError(
                    f"angles must be a nonempty 1-D index in [0, {d.M}), given with out")
        out = self._destination(out)
        if moduli is not None:
            self._checked(moduli, np.float64, "moduli")
        Z = self._pilot_spectrum(y)
        if angles is not None:
            self._form_angles(Z, angles, out, moduli)
            return out
        if self._adjoint_table is not None:
            self._product(Z, out, moduli)
            return out
        direct = self.option is VectorizationOption.FS and self._ud == d.N
        if direct:
            buf = out.reshape(d.M, d.N)
        else:
            buf = work_buffer("adjoint_values", (d.M, d.N), np.complex128)
        rows = self._delay_ffts(Z.T, buf)
        if not direct:
            unvectorize(out, self.option, self._ud, d.M)[...] = rows.T
        if moduli is not None:
            squared_moduli(out, out=moduli)
        return out

    def _product(self, Z, out, moduli=None) -> None:
        """The product route's whole product into ``out``, and its moduli into ``moduli`` if given.

        Z^T times ``_adjoint_table`` (FS) or the table's transpose times Z
        (SF) runs in blocks of whole output rows of about ADJOINT_BLOCK
        entries, at least two rows each, since a one-row product takes
        BLAS's matrix-vector path, whose rounding differs. Each block's
        moduli are formed right after its product, while it is in cache.
        """
        d, table = self.design, self._adjoint_table
        if self.option is VectorizationOption.FS:
            left, right, rows = Z.T, table, d.M
        else:
            left, right, rows = table.T, Z, self._ud
        cols = self.in_dim // rows
        result = out.reshape(rows, cols)
        energy = None if moduli is None else moduli.reshape(rows, cols)
        blocks = max(1, rows // max(2, ADJOINT_BLOCK // cols))
        for k in range(blocks):
            part = slice(k * rows // blocks, (k + 1) * rows // blocks)
            block = np.matmul(left[part], right, out=result[part])
            if energy is not None:
                squared_moduli(block, out=energy[part])

    def _delay_ffts(self, spectrum, buf) -> np.ndarray:
        """The FFT route on some angles: each row of ``spectrum`` (rows of
        Z^T), weighted onto the pilot subcarriers of a zeroed row of ``buf``
        (rows x N), then one unnormalized inverse FFT per row, in place.
        Returns the view of buf's first U*D columns."""
        buf.fill(0.0)
        buf[:, self.design.subcarriers] = spectrum * self._adjoint_weights
        np.fft.ifft(buf, axis=1, norm="forward", out=buf)
        return buf[:, : self._ud]

    def _form_angles(self, Z, angles, out, moduli=None) -> None:
        """A^H y on the given angles, written into their entries of ``out``
        (and their squared moduli into ``moduli``, if given), in the bits of
        the whole adjoint.

        The angles run in chunks of about ADJOINT_BLOCK entries, at least two
        angles each, so that no temporary outgrows a chunk. On the FFT route a
        chunk's rows run alone, each FFT on its own row, O(N log N) per angle.
        On the product route under FS with M > 1 and U*D > 1 a chunk is the
        product of its rows of Z^T alone, a lone angle's row taken twice so
        that BLAS takes its matrix path, O(Np*U*D) per angle. Otherwise (SF,
        or a factor that is a vector) rows or columns alone would take another
        BLAS path than the whole product, so the whole product runs once into
        a work buffer and the chunks are read from it.
        """
        d, table = self.design, self._adjoint_table

        def by_angle(flat):  # the (M x U*D) view, one row per angle ((U*D x M) under SF)
            return unvectorize(flat, self.option, self._ud, d.M).T

        result = by_angle(out)
        energy = None if moduli is None else by_angle(moduli)
        whole = None
        if table is not None and not (self.option is VectorizationOption.FS
                                      and d.M > 1 and self._ud > 1):
            whole = work_buffer("adjoint_whole", (self.in_dim,), np.complex128)
            self._product(Z, whole)
            whole = by_angle(whole)
        count = angles.size
        chunks = max(1, count // max(2, ADJOINT_BLOCK // self._ud))
        for k in range(chunks):
            part = angles[k * count // chunks: (k + 1) * count // chunks]
            if whole is not None:
                rows = whole[part]
            elif table is None:
                buf = work_buffer("adjoint_values", (d.M, d.N), np.complex128)[: part.size]
                rows = self._delay_ffts(Z.T[part], buf)
            else:
                pair = part if part.size > 1 else np.repeat(part, 2)
                rows = (Z.T[pair] @ table)[: part.size]
            result[part] = rows
            if energy is not None:
                energy[part] = squared_moduli(rows)

    def angle_bounds(self, y):
        """Per-angle bounds on the squared moduli of A^H y, where a screened
        first pass may use them; None elsewhere.

        They are returned under FS, where the angle leads the layout, with
        every antenna observed on the FFT step route, whose step changes only
        the occupied angles (see ``adjoint_residual``). Entry a is

            beta_a = (sum_k |Z[k, a]| * |c[n_k]|)**2 / Np >= max_q |(A^H y)[a, q]|**2,

        with Z the pilot spectrum, by the triangle inequality over the Np
        pilot terms of each entry; an angle whose spectrum holds one nonzero
        pilot attains it. O(Np*M log M + Np*M).
        """
        if self.option is not VectorizationOption.FS or self._delay_spectrum is None:
            return None
        bound = np.abs(self._adjoint_weights) @ np.abs(self._pilot_spectrum(y))
        return np.multiply(bound, bound, out=bound)

    def adjoint_residual(self, y, aty, idx, values, out=None) -> tuple[np.ndarray, np.ndarray]:
        """A^H (y - A x) for the x that holds ``values`` at the flat indices ``idx``.

        ``aty`` is A^H y. Returns (changed, step): an index of the flat
        vector and the step's values there; at every other index the step
        equals ``aty``. ``out`` is an optional destination, as for
        ``adjoint_values``, read on the two routes whose ``changed`` is
        ``slice(None)``, every entry. With Mp = M, A^H A = I (x) T^H T (FS)
        or T^H T (x) I (SF) and y is not read; the step then agrees with
        ``forward`` plus the adjoint to rounding. One of three routes runs:

          * Mp < M: ``changed`` is ``slice(None)`` and ``step`` is
            ``adjoint_values(y - forward(idx, values), out)``, the textbook
            bits.
          * Mp = M, Gram route, when (U*D)**2 and M*(U*D)**2 are within
            GRAM_ANGLE_CROSSOVER and GRAM_STEP_CROSSOVER times N*log2(N):
            ``changed`` is ``slice(None)`` and ``step`` is aty minus the
            (M x U*D) view of x times the transposed restricted
            delay Gram ``_delay_gram`` (FS), or that Gram times the (U*D x
            M) view (SF), written into ``out``: one product over every
            angle, O(M*(U*D)^2), with no grouping of the support.
          * Mp = M, FFT route otherwise: ``changed`` is the sorted flat
            indices of every entry of the r angles that x occupies (r
            contiguous runs of U*D under FS, U*D strided rows of r under
            SF), and ``step`` is aty there minus T^H T applied to each
            angle's delay column. T^H T is circulant, so that is one
            length-N FFT per angle of its zero-padded delay column, times
            the delay spectrum ``_delay_spectrum`` (nonzero on the pilot
            subcarriers only), and one inverse FFT, whose first U*D entries
            are subtracted, O(r*N log N + r*U*D).

        Both Mp = M routes cost far less than ``forward`` plus a full
        adjoint over all M angles.
        """
        d = self.design
        if d.Mp < d.M:
            return slice(None), self.adjoint_values(y - self.forward(idx, values), out)
        idx, values = _support(idx, values, self.in_dim)
        if np.shape(aty) != (self.in_dim,):
            raise DimensionError(f"A^H y length {np.shape(aty)} != {self.in_dim}")
        gram = self._delay_gram
        if gram is not None:
            out = self._destination(out)
            x = np.zeros(self.in_dim, dtype=np.complex128)
            x[idx] = values
            if self.option is VectorizationOption.FS:
                np.matmul(x.reshape(d.M, self._ud), gram.T, out=out.reshape(d.M, self._ud))
            else:
                np.matmul(gram, x.reshape(self._ud, d.M), out=out.reshape(self._ud, d.M))
            return slice(None), np.subtract(aty, out, out=out)
        q, m = self._split(idx)
        angles, slot = _groups(m, d.M)
        block = np.zeros((angles.size, d.N), dtype=np.complex128)
        block[slot, q] = values
        np.fft.fft(block, axis=1, out=block)
        block *= self._delay_spectrum
        np.fft.ifft(block, axis=1, norm="forward", out=block)
        # The (U*D x r) block of those angles, vectorized in flat index order.
        changed = vectorize(flat_index(self.option, np.arange(self._ud)[:, None], angles,
                                       self._ud, d.M), self.option)
        return changed, aty[changed] - vectorize(block[:, : self._ud].T, self.option)

    def columns(self, idx) -> np.ndarray:
        """Exact columns A[:, idx] as an (Np*Mp x len(idx)) matrix.

        Column j is the vectorized outer product of one delay-factor column
        and one conjugated angle-factor column; only those Np + Mp entries per
        column are evaluated, with DFT phases reduced mod N and mod M.
        """
        d = self.design
        q, m = self._split(idx)
        delay = self._delay_columns(q)
        angle = np.exp(2j * np.pi * (d.antennas[:, None] * m % d.M) / d.M)
        cols = delay[:, None, :] * angle[None, :, :] / math.sqrt(d.Np * d.Mp)
        return vectorize(cols, self.option)

    def gram(self, idx) -> np.ndarray:
        """Restricted Gram (A^H A)[idx][:, idx] as a (len(idx) x len(idx)) matrix.

        A^H A is the Kronecker product of the two circulant factor Grams, so
        entry (i, j) is one angle-kernel times one delay-kernel lookup.
        """
        q, m = self._split(idx)
        d = self.design
        return (self._angle_kernel[(m[:, None] - m[None, :]) % d.M]
                * self._tau_kernel[(q[:, None] - q[None, :]) % d.N])

    def solve_normal(self, aty, idx) -> np.ndarray:
        """Least-squares coefficients on a support: beta with (A^H A)[idx, idx] beta = aty[idx].

        ``aty`` is A^H y and ``idx`` a sequence of distinct flat indices in any
        order; beta[i] belongs to idx[i]. With Mp < M this is one SVD
        ``lstsq`` of ``gram(idx)``, O(|S|^3), the minimum-norm solution when
        it is singular. With Mp = M the angle Gram is I, so the system splits
        by angle into blocks (T^H T)[q, q] over the delays q of each occupied
        angle. Each entry, in the support's own order, takes the slot of its
        angle's position among the r occupied angles and of its rank within
        that angle. The blocks are gathered from the delay kernel into a
        stack zero-padded to the largest block, n delays (identity on the
        padding), and one batched ``solve`` runs on the stack, O(r*n^3). A
        batched Cholesky factorization certifies each block first. A block
        whose factorization fails, or that has a squared pivot below
        CHOLESKY_PIVOT_FLOOR times the largest over the support, is refit
        alone by the ``lstsq`` of its own Gram (more delays at one angle than
        Np, say). The Gram is block-diagonal, so the result is still the
        minimum-norm solution of ``gram(idx)``, and it agrees with that
        ``lstsq`` to rounding.
        """
        d = self.design
        idx = np.asarray(idx, dtype=np.int64)
        rhs = aty[idx]
        if d.Mp < d.M:
            return np.linalg.lstsq(self.gram(idx), rhs, rcond=None)[0]
        if not idx.size:
            return rhs
        q, m = self._split(idx)
        angles, block = _groups(m, d.M)
        order = np.argsort(block, kind="stable")
        ranked = block[order]
        slot = np.empty_like(block)  # each entry's rank within its angle
        slot[order] = np.arange(idx.size) - np.searchsorted(ranked, ranked)
        shape = (angles.size, int(slot.max()) + 1)
        delays, used = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=bool)
        delays[block, slot], used[block, slot] = q, True
        G = np.where(used[:, :, None] & used[:, None, :],
                     self._tau_kernel[(delays[:, :, None] - delays[:, None, :]) % d.N],
                     np.eye(shape[1]))
        try:
            factors = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:  # some block is not numerically positive definite
            factors = np.full_like(G, np.nan)  # NaN pivots mark the blocks that fail
            for k, Gk in enumerate(G):
                try:
                    factors[k] = np.linalg.cholesky(Gk)
                except np.linalg.LinAlgError:
                    pass
        pivots = factors[block, slot, slot].real ** 2
        floor = CHOLESKY_PIVOT_FLOOR * np.max(pivots, initial=0.0, where=~np.isnan(pivots))
        weak = np.zeros(shape[0], dtype=bool)
        weak[block[~(pivots >= floor)]] = True  # a NaN pivot fails the comparison
        b = np.zeros(shape + (1,), dtype=np.complex128)
        b[block, slot, 0] = rhs
        G[weak] = np.eye(shape[1])  # each weak block is solved below instead
        beta = np.linalg.solve(G, b)[block, slot, 0]
        for k in np.flatnonzero(weak):
            entries = block == k
            beta[entries] = np.linalg.lstsq(self.gram(idx[entries]), rhs[entries], rcond=None)[0]
        return beta

    def densify(self) -> np.ndarray:
        """Explicit (Np*Mp x U*D*M) matrix; test oracle for small problems."""
        if self.in_dim > DENSIFY_CAP:
            raise ValueError(
                f"dense materialization of {self.in_dim} columns exceeds cap {DENSIFY_CAP}"
            )
        At = tau_factor(self.design)
        Ath = theta_factor(self.design)
        if self.option is VectorizationOption.FS:
            return np.kron(np.conj(Ath), At)
        return np.kron(At, np.conj(Ath))
