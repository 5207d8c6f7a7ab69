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
    tau_factor,
    theta_factor,
)
from hisparse.operators import flat_index, unvectorize, vectorize
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
