import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import hisparse.operators
from hisparse import (
    BlockShape,
    DimensionError,
    KroneckerSensingOperator,
    dft_matrix,
    make_design,
    squared_moduli,
    tau_factor,
    theta_factor,
)
from hisparse.operators import VectorizationOption, flat_index, unvectorize, vectorize
from oracles import DenseOperator, step_route


def random_design(rng, max_cols=2048):
    while True:
        N = int(rng.choice([8, 12, 16, 24, 32]))
        D = int(rng.integers(1, max(2, N // 2) + 1))
        U = int(rng.integers(1, N // D + 1))
        M = int(rng.choice([2, 3, 4, 6, 8]))
        if U * D * M <= max_cols:
            break
    Np = int(rng.integers(1, N + 1))
    Mp = int(rng.integers(1, M + 1))
    base = np.exp(1j * rng.uniform(0, 2 * np.pi, N))
    return make_design(N, M, D, U, Np, Mp, base_sequence=base, seed=int(rng.integers(2**31)))


def row_scan_forward(op, x):
    """A @ x by scanning all of a dense x for its occupied delay rows (test oracle)."""
    d = op.design
    X = unvectorize(x, op.option, d.U * d.D, d.M)
    rows = np.flatnonzero(X.any(axis=1))
    W = op._delay_columns(rows) @ X[rows] / math.sqrt(d.Np)
    V = np.fft.ifft(W, axis=1) * d.M
    return vectorize(V[:, d.antennas] / math.sqrt(d.Mp), op.option)


def test_forward_of_zero_is_zero():
    op = KroneckerSensingOperator(make_design(16, 4, 4, 2, 8, 3, seed=0), "FS")
    np.testing.assert_array_equal(op.forward([], []), 0.0)
    np.testing.assert_array_equal(op.forward(np.arange(op.in_dim), np.zeros(op.in_dim)), 0.0)
    np.testing.assert_array_equal(op.adjoint_values(np.zeros(op.out_dim, complex)), 0.0)


@pytest.mark.parametrize("option", ["FS", "SF"])
def test_basis_vectors_give_dense_columns(option):
    d = make_design(16, 4, 4, 2, 7, 3, seed=3)
    op = KroneckerSensingOperator(d, option)
    A = op.densify()
    for k in (0, 5, op.in_dim - 1):
        np.testing.assert_allclose(op.forward([k], [1.0]), A[:, k], atol=1e-12)
    idx = [op.in_dim - 1, 0, 5, 13, 5]
    np.testing.assert_allclose(op.columns(idx), A[:, idx], atol=1e-12)


@pytest.mark.parametrize("option", ["FS", "SF"])
def test_gram_matches_columns(option):
    rng = np.random.default_rng(7 if option == "FS" else 8)
    for _ in range(12):
        op = KroneckerSensingOperator(random_design(rng), option)
        idx = rng.integers(0, op.in_dim, size=6)
        idx = np.append(idx, idx[2])  # unsorted, with a repeat
        cols = op.columns(idx)
        np.testing.assert_allclose(op.gram(idx), cols.conj().T @ cols, atol=1e-12)
    assert op.gram([]).shape == (0, 0)


def test_dense_operator_gram():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
    op = DenseOperator(A, BlockShape((2, 3, 2)))
    idx = [11, 0, 4, 0]
    np.testing.assert_allclose(op.gram(idx), A[:, idx].conj().T @ A[:, idx], atol=1e-12)


@pytest.mark.parametrize("option", ["FS", "SF"])
def test_fast_matches_dense_and_adjoint_identity(option):
    rng = np.random.default_rng(42 if option == "FS" else 43)
    for _ in range(12):
        op = KroneckerSensingOperator(random_design(rng), option)
        A = op.densify()
        x = rng.standard_normal(op.in_dim) + 1j * rng.standard_normal(op.in_dim)
        y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
        fwd = op.forward(np.arange(op.in_dim), x)
        adj = op.adjoint_values(y)
        assert np.linalg.norm(fwd - A @ x) <= 1e-10 * np.linalg.norm(A @ x)
        assert np.linalg.norm(adj - A.conj().T @ y) <= 1e-10 * np.linalg.norm(A.conj().T @ y)
        gap = abs(np.vdot(y, fwd) - np.vdot(adj, x))
        assert gap <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)


def test_adjoint_identity_hundred_pairs_per_config():
    rng = np.random.default_rng(100)
    for seed in (0, 1, 2):
        op = KroneckerSensingOperator(random_design(rng), "FS" if seed else "SF")
        for _ in range(100):
            x = rng.standard_normal(op.in_dim) + 1j * rng.standard_normal(op.in_dim)
            y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
            gap = abs(np.vdot(y, op.forward(np.arange(op.in_dim), x))
                      - np.vdot(op.adjoint_values(y), x))
            assert gap <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)


def test_adjoint_values_fill_the_input_layout():
    op = KroneckerSensingOperator(make_design(16, 4, 4, 2, 8, 3, seed=1), "SF")
    out = op.adjoint_values(np.ones(op.out_dim, dtype=complex)).reshape(op.shape_in.dims)
    assert out.shape == (2, 4, 4)


def test_unit_column_norms():
    rng = np.random.default_rng(9)
    for _ in range(5):
        op = KroneckerSensingOperator(random_design(rng, max_cols=512), "FS")
        norms = np.linalg.norm(op.densify(), axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)


def test_delay_factor_row_sampled_structure():
    rng = np.random.default_rng(17)
    base = np.exp(1j * rng.uniform(0, 2 * np.pi, 32))
    d = make_design(32, 4, 8, 3, 10, 2, base_sequence=base, seed=4)
    ref = (base[:, None] * dft_matrix(32, 24))[d.subcarriers] / math.sqrt(10)
    np.testing.assert_allclose(tau_factor(d), ref, atol=1e-12)


def test_full_sampling_orthonormal_columns():
    base = np.exp(1j * np.random.default_rng(0).uniform(0, 2 * np.pi, 16))
    d = make_design(16, 4, 8, 1, 16, 4, base_sequence=base, seed=0)
    A = KroneckerSensingOperator(d, "FS").densify()
    gram = A.conj().T @ A
    np.testing.assert_allclose(gram, np.eye(A.shape[1]), atol=1e-10)


def test_fs_sf_related_by_permutations():
    # 16 x 24 instance: the SF matrix is the FS matrix with rows permuted by
    # the observation transpose and columns by the unknown transpose.
    d = make_design(8, 6, 2, 2, 4, 4, seed=5)
    A_fs = KroneckerSensingOperator(d, "FS").densify()
    A_sf = KroneckerSensingOperator(d, "SF").densify()
    assert A_fs.shape == (16, 24)
    UD, M, Np, Mp = 4, 6, 4, 4
    col_perm = np.array([m * UD + r for r in range(UD) for m in range(M)])
    row_perm = np.array([mp * Np + n for n in range(Np) for mp in range(Mp)])
    np.testing.assert_allclose(A_sf, A_fs[np.ix_(row_perm, col_perm)], atol=1e-12)

    rng = np.random.default_rng(1)
    x_fs = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    y_fs = A_fs @ x_fs
    np.testing.assert_allclose(A_sf @ x_fs[col_perm], y_fs[row_perm], atol=1e-12)


def test_densify_cap(monkeypatch):
    d = make_design(64, 8, 32, 2, 16, 4, seed=0)
    op = KroneckerSensingOperator(d, "FS")
    monkeypatch.setattr(hisparse.operators, "DENSIFY_CAP", 256)
    with pytest.raises(ValueError, match="exceeds cap 256"):
        op.densify()


def test_dimension_errors(monkeypatch):
    op = KroneckerSensingOperator(make_design(16, 4, 4, 2, 8, 3, seed=0), "FS")

    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the input check")

    # Every bad input is refused before the operator touches it.
    monkeypatch.setattr(op, "_split", no_compute)
    monkeypatch.setattr(np.fft, "fft", no_compute)
    bad_supports = [
        ([op.in_dim], [1.0]),            # past the end
        ([-1, 3], [1.0, 1.0]),           # negative
        ([3, 2], [1.0, 1.0]),            # decreasing
        ([2, 2], [1.0, 1.0]),            # duplicate
        ([1, 2], [1.0]),                 # fewer values than indices
        ([1], [1.0, 2.0]),               # more values than indices
        ([[1, 2]], [[1.0, 1.0]]),        # 2-D
    ]
    for idx, values in bad_supports:
        with pytest.raises(DimensionError):
            op.forward(idx, values)
    with pytest.raises(DimensionError):
        op.adjoint_values(np.zeros(op.out_dim - 1, dtype=complex))
    y = np.zeros(op.out_dim, dtype=complex)
    bad_outs = [
        np.empty(op.in_dim + 1, dtype=complex),       # wrong length
        np.empty(op.in_dim, dtype=np.complex64),      # wrong dtype
        np.empty(op.in_dim, dtype=float),             # wrong dtype
        np.empty(2 * op.in_dim, dtype=complex)[::2],  # not C-contiguous
        np.empty((op.in_dim, 1), dtype=complex),      # not flat
    ]
    for out in bad_outs:
        with pytest.raises(DimensionError):
            op.adjoint_values(y, out=out)


@pytest.mark.parametrize("option", ["FS", "SF"])
@pytest.mark.parametrize("U", [1, 2, 4])
@pytest.mark.parametrize("Mp", [8, 5])
def test_adjoint_residual_matches_dense(option, U, Mp):
    # A^H y - A^H A x against the dense matrix: in the delay domain when every
    # antenna is observed, and as the very forward + adjoint bits otherwise.
    # At N = 32 the Gram product serves U*D <= 25 (U = 1, 2), the FFT pair U = 4.
    # The Gram route and Mp < M change every entry and fill ``out`` in place;
    # the FFT route changes exactly the entries of the angles x occupies.
    op = KroneckerSensingOperator(make_design(32, 8, 8, U, 12, Mp, seed=U), option)
    route = step_route(op)
    assert route == ("Mp < M" if Mp < 8 else "gram" if U < 4 else "fft")
    A = op.densify()
    rng = np.random.default_rng(10 * U + Mp)
    y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
    aty = op.adjoint_values(y)
    UD = U * 8
    whole_rows = flat_index(option, np.tile(np.arange(UD), 2), np.repeat([1, 6], UD), UD, 8)
    supports = {
        "empty": np.array([], dtype=np.int64),
        "single": np.array([op.in_dim // 3]),
        "whole angle rows": np.sort(whole_rows),
        "scattered": np.sort(rng.choice(op.in_dim, 10, replace=False)),
        "everything": np.arange(op.in_dim),
    }
    angle_of = op._split(np.arange(op.in_dim))[1]
    for name, idx in supports.items():
        values = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        x = np.zeros(op.in_dim, dtype=complex)
        x[idx] = values
        expected = A.conj().T @ (y - A @ x)
        changed, step = op.adjoint_residual(y, aty, idx, values)
        got = aty.copy()
        got[changed] = step
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected), name
        assert not np.shares_memory(step, aty)
        if route == "fft":
            assert changed.dtype == np.int64 and step.shape == changed.shape
            # Exactly the entries of the angles that x occupies, in flat order.
            occupied = np.isin(angle_of, angle_of[idx])
            np.testing.assert_array_equal(changed, np.flatnonzero(occupied), err_msg=name)
            continue
        assert changed == slice(None)
        if route == "Mp < M":
            assert step.tobytes() == op.adjoint_values(y - op.forward(idx, values)).tobytes()
        out = np.full(op.in_dim, np.nan + 1j * np.nan)
        _, into = op.adjoint_residual(y, aty, idx, values, out=out)
        assert into is out and out.tobytes() == step.tobytes()
    if route == "fft":
        changed, step = op.adjoint_residual(y, aty, [], [])
        assert changed.size == 0 and step.size == 0


def test_adjoint_residual_refuses_bad_inputs():
    op = KroneckerSensingOperator(make_design(16, 4, 4, 2, 8, 4, seed=0), "SF")
    y = np.zeros(op.out_dim, dtype=complex)
    aty = op.adjoint_values(y)
    for idx, values in (([op.in_dim], [1.0]), ([3, 2], [1.0, 1.0]), ([1, 2], [1.0])):
        with pytest.raises(DimensionError):
            op.adjoint_residual(y, aty, idx, values)
    with pytest.raises(DimensionError):
        op.adjoint_residual(y, aty[:-1], [1], [1.0])
    with pytest.raises(DimensionError):  # the Gram route's destination is checked as adjoint_values' is
        op.adjoint_residual(y, aty, [1], [1.0], out=np.empty(op.in_dim - 1, dtype=complex))


@pytest.mark.parametrize("N, M, D, U, route", [
    # With Mp = M the step is one whole-vector Gram product while (U*D)**2 <=
    # 4*N*log2(N) and M*(U*D)**2 <= 200*N*log2(N); the number after each
    # design is M*(U*D)**2 / (N*log2(N)).
    pytest.param(128, 64, 32, 1, "gram", id="small-preset"),     # 73
    pytest.param(256, 64, 48, 1, "gram", id="N256-M64-UD48"),    # 72
    pytest.param(128, 256, 32, 1, "fft", id="N128-M256-UD32"),   # 293
    pytest.param(1024, 64, 200, 1, "fft", id="N1024-M64-UD200"),  # 250
    pytest.param(1024, 256, 256, 4, "fft", id="paper-preset"),   # 26214
])
def test_step_route_follows_the_gram_crossovers(N, M, D, U, route):
    for option in ("FS", "SF"):
        assert step_route(KroneckerSensingOperator(make_design(N, M, D, U, 16, M, seed=0), option)) == route


@pytest.mark.parametrize("option, N, D, U, route", [
    # Np = 12: the product route runs when 12*U*D <= 2*N*log2(N).
    pytest.param("FS", 32, 8, 4, "fft", id="FS-32-8-4"),        # U*D = N: FFT in out itself
    pytest.param("FS", 16, 6, 2, "fft", id="FS-16-6-2"),        # U*D < N: FFT in a work buffer
    pytest.param("FS", 128, 32, 4, "product", id="FS-128-32-4"),  # U*D = N
    pytest.param("FS", 32, 8, 2, "product", id="FS-32-8-2"),    # U*D < N
    pytest.param("SF", 32, 8, 4, "fft", id="SF-32-8-4"),        # FFT in a work buffer
    pytest.param("SF", 16, 6, 2, "fft", id="SF-16-6-2"),
    pytest.param("SF", 128, 32, 4, "product", id="SF-128-32-4"),
    pytest.param("SF", 32, 8, 2, "product", id="SF-32-8-2"),
])
def test_adjoint_into_out_matches_allocated(option, N, D, U, route):
    op = KroneckerSensingOperator(make_design(N, 8, D, U, 12, 5, seed=2), option)
    assert (op._adjoint_table is not None) == (route == "product")
    rng = np.random.default_rng(4)
    y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
    expected = op.adjoint_values(y)
    A = op.densify()
    assert np.linalg.norm(expected - A.conj().T @ y) <= 1e-10 * np.linalg.norm(A.conj().T @ y)
    x = rng.standard_normal(op.in_dim) + 1j * rng.standard_normal(op.in_dim)
    gap = abs(np.vdot(y, op.forward(np.arange(op.in_dim), x)) - np.vdot(expected, x))
    assert gap <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
    out = np.full(op.in_dim, np.nan + 1j * np.nan)
    assert op.adjoint_values(y, out=out) is out
    assert out.tobytes() == expected.tobytes()
    # A second call into the same out overwrites it in full.
    y2 = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
    assert op.adjoint_values(y2, out=out).tobytes() == op.adjoint_values(y2).tobytes()
    # The allocated result does not share memory with out or with a later call.
    assert not np.shares_memory(expected, out)
    assert not np.shares_memory(expected, op.adjoint_values(y))


def adjoint_design(rng, trial):
    """A seeded design for the adjoint's block tests: even trials on the
    product route (Np*U*D <= 2*N*log2(N)), odd ones on the FFT route. D is
    N // U, so U*D = N whenever U divides N, except on every fourth trial,
    where D is drawn. M = 1 gives a one-row product under FS and one-entry
    rows under SF."""
    N = int(rng.choice([16, 32, 64, 128]))
    M = int(rng.choice([1, 2, 3, 5, 8, 16]))
    U = int(rng.integers(1, 5))
    D = int(rng.integers(1, N // U + 1)) if trial % 4 == 2 else N // U
    cap = int(2 * N * math.log2(N)) // (U * D)  # the largest Np on the product route
    Np = int(rng.integers(1, min(N, cap) + 1) if trial % 2 == 0 else rng.integers(cap + 1, N + 1))
    return make_design(N, M, D, U, Np, int(rng.integers(1, M + 1)), seed=trial)


def product_rows(op):
    """(rows, entries per row) of the product route's output: (M, U*D) under FS, (U*D, M) under SF."""
    d = op.design
    if op.option is VectorizationOption.FS:
        return d.M, d.U * d.D
    return d.U * d.D, d.M


def test_adjoint_moduli_are_the_squared_moduli_of_the_adjoint(monkeypatch):
    # adjoint_values(y, out, moduli) writes the bits of adjoint_values(y) into
    # out and squared_moduli of them into moduli, on both routes. The product
    # route is run whole (the default block, larger than these designs), in
    # blocks of three rows (a ragged last block unless 3 divides the rows),
    # and with a block below one row, which still takes two rows per block.
    rng = np.random.default_rng(32)
    default = hisparse.operators.ADJOINT_BLOCK
    for trial in range(240):
        op = KroneckerSensingOperator(adjoint_design(rng, trial), ("FS", "SF")[trial % 3 % 2])
        assert (op._adjoint_table is not None) == (trial % 2 == 0)
        y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
        for block in (default, 3 * product_rows(op)[1], 1):
            monkeypatch.setattr(hisparse.operators, "ADJOINT_BLOCK", block)
            expected = op.adjoint_values(y)
            out = np.full(op.in_dim, np.nan + 1j * np.nan)
            moduli = np.full(op.in_dim, np.nan)
            assert op.adjoint_values(y, out, moduli) is out
            assert out.tobytes() == expected.tobytes()
            assert moduli.tobytes() == squared_moduli(expected).tobytes()


def test_product_blocks_keep_the_whole_products_bits(monkeypatch):
    # Split into blocks of whole rows, the product route gives the bits of its
    # one whole product (a block of in_dim entries), the paper preset's eight
    # default blocks of 32 rows included. No block has one row; a ragged tail
    # of one row joins the block before it. Designs with one entry per row
    # (U*D = 1 under FS, M = 1 under SF) are left out: their product is a
    # matrix-vector product however it is split, and no default block splits
    # one unless it has over 2*ADJOINT_BLOCK entries.
    rng = np.random.default_rng(33)
    paper = KroneckerSensingOperator(make_design(1024, 256, 256, 4, 15, 256, seed=0), "FS")
    cases = [(paper, hisparse.operators.ADJOINT_BLOCK)]
    for trial in range(0, 240, 2):
        op = KroneckerSensingOperator(adjoint_design(rng, trial), ("FS", "SF")[trial % 3 % 2])
        rows, cols = product_rows(op)
        if cols > 1:
            cases += [(op, block) for block in (1, 2 * cols, 3 * cols, 5 * cols + 1)]
    assert all(op._adjoint_table is not None for op, _ in cases)
    for op, block in cases:
        y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
        monkeypatch.setattr(hisparse.operators, "ADJOINT_BLOCK", op.in_dim)
        whole = op.adjoint_values(y)
        monkeypatch.setattr(hisparse.operators, "ADJOINT_BLOCK", block)
        moduli = np.empty(op.in_dim)
        assert op.adjoint_values(y, moduli=moduli).tobytes() == whole.tobytes()
        assert moduli.tobytes() == squared_moduli(whole).tobytes()


def by_angle(op, flat):
    """The (M x U*D) rows of a flat unknown-length array, one per angle."""
    return unvectorize(flat, op.option, op.design.U * op.design.D, op.design.M).T


def test_adjoint_on_given_angles_keeps_the_whole_calls_bits(monkeypatch):
    # adjoint_values(y, out, moduli, angles) writes, on those angles only, the
    # bits the whole call writes there, on both routes and both options: one
    # angle, a few, every angle, in chunks of the default size or of a few
    # angles (the whole call under the same ADJOINT_BLOCK). Under FS the product route multiplies a chunk's rows alone (a
    # lone one taken twice); with one angle or one delay, and under SF, it
    # runs the whole product, whose rows or columns alone would take a
    # different BLAS path. The paper preset runs its six-angle first round and
    # a 190-angle second round, six default chunks.
    rng = np.random.default_rng(34)
    default = hisparse.operators.ADJOINT_BLOCK
    paper = KroneckerSensingOperator(make_design(1024, 256, 256, 4, 15, 256, seed=0), "FS")
    cases = [(paper, np.sort(rng.choice(256, 6, replace=False)), default),
             (paper, rng.choice(256, 190, replace=False), default)]
    for trial in range(240):
        op = KroneckerSensingOperator(adjoint_design(rng, trial), ("FS", "SF")[trial % 3 % 2])
        M, ud = op.design.M, op.design.U * op.design.D
        for size in {1, min(2, M), int(rng.integers(1, M + 1)), M}:
            block = int(rng.choice([default, 1, 2 * ud, 3 * ud + 1]))
            cases.append((op, rng.choice(M, size, replace=False), block))
    routes = set()
    for op, angles, block in cases:
        y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
        monkeypatch.setattr(hisparse.operators, "ADJOINT_BLOCK", block)
        moduli = np.empty(op.in_dim)
        whole = op.adjoint_values(y, moduli=moduli)
        out, part = np.full(op.in_dim, np.nan + 1j * np.nan), np.full(op.in_dim, np.nan)
        assert op.adjoint_values(y, out, part, angles=angles) is out
        assert by_angle(op, out)[angles].tobytes() == by_angle(op, whole)[angles].tobytes()
        assert by_angle(op, part)[angles].tobytes() == by_angle(op, moduli)[angles].tobytes()
        rest = np.setdiff1d(np.arange(op.design.M), angles)
        assert np.isnan(by_angle(op, out)[rest]).all() and np.isnan(by_angle(op, part)[rest]).all()
        routes.add((op.option, op._adjoint_table is not None, angles.size == 1))
    assert len(routes) == 8


def test_bad_angles_are_refused_before_anything_is_written():
    op = KroneckerSensingOperator(make_design(64, 8, 16, 4, 12, 8, seed=2), "FS")
    y = np.ones(op.out_dim, dtype=complex)
    out = np.full(op.in_dim, np.nan + 1j * np.nan)
    message = "^angles must be a nonempty 1-D index in \\[0, 8\\), given with out$"
    for angles in ([], [8], [-1], [[1, 2]]):
        with pytest.raises(DimensionError, match=message):
            op.adjoint_values(y, out, angles=angles)
    with pytest.raises(DimensionError, match=message):
        op.adjoint_values(y, angles=[1])
    assert np.isnan(out).all()


def test_angle_bounds_bound_each_angles_adjoint():
    # beta_a >= max_q |(A^H y)[a, q]|**2, attained to rounding by an angle
    # whose pilot spectrum holds one nonzero pilot. Bounds exist under FS
    # with every antenna observed on the FFT step route, on either adjoint
    # route; under SF, with Mp < M and on the Gram route they are None.
    rng = np.random.default_rng(35)
    worst, tight, routes = 0.0, 1.0, set()
    for trial in range(60):
        N, M = int(rng.choice([32, 64])), int(rng.integers(1, 9))
        U = int(rng.integers(1, 5))
        least = math.isqrt(4 * N * int(math.log2(N))) // U + 1  # (U*D)**2 > 4*N*log2(N): the FFT step
        D = N // U if trial % 2 else int(rng.integers(least, N // U + 1))
        op = KroneckerSensingOperator(make_design(N, M, D, U, int(rng.integers(1, N + 1)), M,
                                                  seed=trial), "FS")
        assert step_route(op) == "fft"
        routes.add(op._adjoint_table is not None)
        Z = np.zeros((op.design.Np, M), dtype=complex)
        Z[rng.integers(op.design.Np, size=M), np.arange(M)] = rng.standard_normal(M) + 1j
        spread = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
        one_pilot = vectorize(np.fft.ifft(Z, axis=1) * math.sqrt(M), "FS")
        for y, ratios in ((spread, None), (one_pilot, "tight")):
            energy = squared_moduli(by_angle(op, op.adjoint_values(y))).max(axis=1)
            ratio = energy / op.angle_bounds(y)
            worst = max(worst, ratio.max())
            if ratios:
                tight = min(tight, ratio.min())
    assert worst <= 1.0 + 1e-12 and tight >= 1.0 - 1e-12 and routes == {True, False}
    y = np.ones(64 * 8, dtype=complex)
    for option, Mp, U in (("SF", 8, 4), ("FS", 5, 4), ("FS", 8, 1)):
        op = KroneckerSensingOperator(make_design(64, 8, 16, U, 64, Mp, seed=1), option)
        assert op.angle_bounds(y[: op.out_dim]) is None


@pytest.mark.parametrize("route", ["product", "fft"])
def test_a_bad_moduli_is_refused_before_any_product(route):
    # Refused in one line, worded as for out, before anything is written.
    op = KroneckerSensingOperator(make_design(128 if route == "product" else 32, 8, 8, 4, 12, 5,
                                              seed=2), "FS")
    assert (op._adjoint_table is not None) == (route == "product")
    y = np.ones(op.out_dim, dtype=complex)
    bad = [
        np.empty(op.in_dim + 1),                  # wrong length
        np.empty(op.in_dim, dtype=np.float32),    # wrong dtype
        np.empty(op.in_dim, dtype=complex),       # wrong dtype
        np.empty(2 * op.in_dim)[::2],             # not C-contiguous
        np.empty((op.in_dim, 1)),                 # not flat
        [0.0] * op.in_dim,                        # not an array
    ]
    for moduli in bad:
        out = np.full(op.in_dim, np.nan + 1j * np.nan)
        with pytest.raises(DimensionError,
                           match=f"^moduli must be a C-contiguous float64 array of length {op.in_dim}$"):
            op.adjoint_values(y, out, moduli)
        assert np.isnan(out).all()
    with pytest.raises(DimensionError,
                       match=f"^out must be a C-contiguous complex128 array of length {op.in_dim}$"):
        op.adjoint_values(y, out=np.empty(op.in_dim), moduli=np.empty(op.in_dim))


def test_theta_factor_shape():
    d = make_design(16, 8, 4, 2, 8, 5, seed=6)
    th = theta_factor(d)
    assert th.shape == (5, 8)
    np.testing.assert_allclose(np.linalg.norm(th, axis=0), 1.0, atol=1e-12)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_forward_adjoint_match_dense_on_row_sparse_inputs(data):
    N = data.draw(st.sampled_from([8, 12, 16, 24, 32]), label="N")
    D = data.draw(st.integers(1, N // 2), label="D")
    U = data.draw(st.integers(1, N // D), label="U")
    M = data.draw(st.sampled_from([2, 3, 4, 6, 8]), label="M")
    Np = data.draw(st.integers(1, N), label="Np")
    Mp = data.draw(st.integers(1, M), label="Mp")
    option = data.draw(st.sampled_from(["FS", "SF"]), label="option")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    base = np.exp(1j * rng.uniform(0, 2 * np.pi, N))
    op = KroneckerSensingOperator(
        make_design(N, M, D, U, Np, Mp, base_sequence=base, seed=int(rng.integers(2**31))),
        option)
    A = op.densify()

    # Nonzero delay rows of the (U*D x M) unknown: none, one, a few, or all.
    UD = U * D
    count = data.draw(st.sampled_from([0, 1, min(3, UD), UD]), label="rows")
    X = np.zeros((UD, M), dtype=complex)
    rows = rng.choice(UD, count, replace=False)
    X[rows] = rng.standard_normal((count, M)) + 1j * rng.standard_normal((count, M))
    X[rows, rng.integers(0, M, count)] = 0.0  # one zero per chosen row; M >= 2 keeps it nonzero
    x = vectorize(X, option)
    y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)

    idx = np.flatnonzero(x)
    fwd = op.forward(idx, x[idx])
    adj = op.adjoint_values(y)
    assert np.linalg.norm(fwd - A @ x) <= 1e-10 * np.linalg.norm(x)
    step = A.conj().T @ (y - A @ x)
    changed, values = op.adjoint_residual(y, adj, idx, x[idx])
    got = adj.copy()
    got[changed] = values
    assert np.linalg.norm(got - step) <= 1e-10 * np.linalg.norm(step)
    # The same rows enter the same product as a scan of the dense x finds.
    assert fwd.tobytes() == row_scan_forward(op, x).tobytes()
    if count == 0:
        np.testing.assert_array_equal(fwd, 0.0)
    assert np.linalg.norm(adj - A.conj().T @ y) <= 1e-10 * np.linalg.norm(A.conj().T @ y)
    gap = abs(np.vdot(y, fwd) - np.vdot(adj, x))
    assert gap <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
