import math
import threading

import numpy as np
import pytest

from hisparse import (
    BlockShape,
    GuaranteeVoidError,
    KroneckerSensingOperator,
    RecoveryConfig,
    SparsityProfile,
    contraction_constants,
    hi_threshold,
    make_design,
    min_overhead,
    solve,
)
from hisparse.recovery import _restricted_lstsq
from hisparse.simulate import (
    ChannelConfig,
    Condition,
    ExperimentConfig,
    SystemConfig,
    run_trial,
)
from oracles import DenseOperator, is_hi_sparse


def dense_forward(op, x):
    """A @ x for a dense x, through the support-driven forward."""
    nz = np.flatnonzero(x)
    return op.forward(nz, x[nz])


def single_path_setup(seed=1):
    d = make_design(16, 4, 4, 1, 16, 4, seed=seed)
    op = KroneckerSensingOperator(d, "FS")
    x = np.zeros(op.in_dim, dtype=complex)
    x[7] = 1.5 - 0.5j
    return op, x, dense_forward(op, x)


def test_hi_iht_single_path_exact():
    op, x, y = single_path_setup()
    cfg = RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((1, 1, 1)))
    res = solve(y, op, cfg)
    np.testing.assert_allclose(res.x_hat, x, atol=1e-12)
    np.testing.assert_array_equal(res.support, [7])
    assert res.iterations <= 2


def test_hi_htp_single_path_exact():
    op, x, y = single_path_setup()
    cfg = RecoveryConfig(algorithm="HiHTP", profile=SparsityProfile((1, 1, 1)))
    res = solve(y, op, cfg)
    np.testing.assert_allclose(res.x_hat, x, atol=1e-12)
    assert res.residual_norm <= 1e-12


def test_omp_single_path_exact():
    op, x, y = single_path_setup()
    res = solve(y, op, RecoveryConfig(algorithm="OMP", profile=SparsityProfile((1, 1, 1))))
    np.testing.assert_allclose(res.x_hat, x, atol=1e-12)
    assert res.iterations == 1


def test_zero_measurement_gives_zero_estimate():
    op, _, _ = single_path_setup()
    y = np.zeros(op.out_dim, dtype=complex)
    for cfg in (
        RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((2, 1, 2))),
        RecoveryConfig(algorithm="IHT", profile=SparsityProfile((2, 1, 2))),
        RecoveryConfig(algorithm="HiHTP", profile=SparsityProfile((2, 1, 2))),
        RecoveryConfig(algorithm="HTP", profile=SparsityProfile((2, 1, 2))),
    ):
        res = solve(y, op, cfg)
        assert not res.x_hat.any()
    res = solve(y, op, RecoveryConfig(algorithm="OMP", profile=SparsityProfile((3, 1, 1))))
    assert not res.x_hat.any()
    assert res.support.size == 0


def test_restricted_ls_matches_pinv_oracle():
    rng = np.random.default_rng(5)
    d = make_design(32, 4, 8, 1, 10, 3, seed=2)
    op = KroneckerSensingOperator(d, "FS")
    A = op.densify()
    y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
    cfg = RecoveryConfig(algorithm="HiHTP", profile=SparsityProfile((2, 1, 2)))
    res = solve(y, op, cfg)
    S = res.support
    oracle = np.linalg.pinv(A[:, S]) @ y
    np.testing.assert_allclose(res.x_hat[S], oracle, atol=1e-8)


@pytest.mark.parametrize("option", ["FS", "SF"])
def test_restricted_lstsq_matches_column_lstsq(option):
    rng = np.random.default_rng(11 if option == "FS" else 12)
    op = KroneckerSensingOperator(make_design(32, 8, 8, 2, 12, 6, seed=4), option)
    for _ in range(20):
        y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
        S = rng.permutation(op.in_dim)[: int(rng.integers(1, 13))]
        assert np.linalg.matrix_rank(op.columns(S)) == S.size
        expected = np.linalg.lstsq(op.columns(S), y, rcond=None)[0]
        got = _restricted_lstsq(op.adjoint_values(y), op, S)
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_restricted_lstsq_rank_deficient_support_is_minimum_norm():
    # Six delay columns at one angle but only Np = 4 pilots: rank 6 of 8.
    rng = np.random.default_rng(13)
    op = KroneckerSensingOperator(make_design(32, 8, 8, 2, 4, 6, seed=4), "FS")
    S = np.array([0, 1, 2, 3, 4, 5, 19, 40])
    assert np.linalg.matrix_rank(op.columns(S)) == 6
    y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
    expected = np.linalg.lstsq(op.columns(S), y, rcond=None)[0]
    got = _restricted_lstsq(op.adjoint_values(y), op, S)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("algorithm", ["HiIHT", "HiHTP"])
@pytest.mark.parametrize("option", ["FS", "SF"])
def test_single_pass_thresholds_the_adjoint(algorithm, option):
    # One pass from x = 0 selects on A^H y and keeps it (HiIHT) or refits on it (HiHTP).
    rng = np.random.default_rng(21)
    op = KroneckerSensingOperator(make_design(32, 8, 8, 2, 12, 5, seed=4), option)
    y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
    profile = SparsityProfile((2, 1, 2) if option == "FS" else (1, 2, 2))
    res = solve(y, op, RecoveryConfig(algorithm=algorithm, profile=profile, max_iters=1))

    aty = op.adjoint_values(y)
    support = hi_threshold(aty.reshape(op.shape_in.dims), profile)
    expected = np.zeros(op.in_dim, dtype=complex)
    assert res.iterations == 1
    np.testing.assert_array_equal(res.support, support)
    if algorithm == "HiIHT":
        expected[support] = aty[support]
        np.testing.assert_array_equal(res.x_hat, expected)
    else:
        expected[support] = np.linalg.lstsq(op.columns(support), y, rcond=None)[0]
        np.testing.assert_allclose(res.x_hat, expected, rtol=0, atol=1e-12)
    assert res.residual_norm == pytest.approx(np.linalg.norm(y - dense_forward(op, expected)), rel=1e-12)


def textbook_threshold_loop(y, op, select_shape, profile, pursuit, max_iters):
    """x_temp = x + A^H (y - A x) from a fresh zero iterate every pass (test oracle)."""
    aty = op.adjoint_values(y)
    x = np.zeros(op.in_dim, dtype=complex)
    prev = None
    for i in range(1, max_iters + 1):
        x_temp = x + op.adjoint_values(y - dense_forward(op, x))
        support = hi_threshold(x_temp.reshape(select_shape.dims), profile)
        x = np.zeros(op.in_dim, dtype=complex)
        x[support] = _restricted_lstsq(aty, op, support) if pursuit else x_temp[support]
        if prev is not None and np.array_equal(support, prev):
            break
        prev = support
    return x, support, i


@pytest.mark.parametrize("option", ["FS", "SF"])
@pytest.mark.parametrize("algorithm", ["HiIHT", "HiHTP", "IHT", "HTP"])
def test_in_place_loop_matches_textbook_loop(algorithm, option):
    # Same supports, iteration counts and estimate bytes, converged or capped.
    rng = np.random.default_rng(31)
    op = KroneckerSensingOperator(make_design(64, 8, 16, 2, 10, 5, seed=9), option)
    profile = SparsityProfile((3, 1, 2) if option == "FS" else (2, 2, 2))
    if algorithm in ("HiIHT", "HiHTP"):
        select_shape, select_profile = op.shape_in, profile
    else:
        # The flat solvers select k = the clipped profile's size: 6 (FS), 8 (SF).
        k = profile.clip(op.shape_in).max_support
        select_shape, select_profile = BlockShape((op.in_dim,)), SparsityProfile((k,))
    capped = 0
    for trial in range(8):
        x = np.zeros(op.in_dim, dtype=complex)
        x[rng.permutation(op.in_dim)[:4]] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        noise = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
        y = dense_forward(op, x) + (0.05 if trial % 2 else 0.5) * noise
        # A run capped at i passes replays the first i passes of a longer one.
        for max_iters in (1, 2, 3, 10):
            res = solve(y, op, RecoveryConfig(algorithm=algorithm, profile=profile,
                                              max_iters=max_iters))
            x_ref, support, iterations = textbook_threshold_loop(
                y, op, select_shape, select_profile, algorithm in ("HiHTP", "HTP"), max_iters)
            np.testing.assert_array_equal(res.support, support)
            assert res.iterations == iterations
            assert res.x_hat.tobytes() == x_ref.tobytes()
            capped += iterations == max_iters > 1  # a one-pass run is always capped
    assert capped > 0


@pytest.mark.parametrize("option", ["FS", "SF"])
@pytest.mark.parametrize("algorithm", ["HiIHT", "HiHTP", "IHT", "HTP", "OMP"])
def test_estimate_vanishes_off_support(algorithm, option):
    # The on-grid trial score sums only over the support; it relies on this.
    rng = np.random.default_rng(32)
    op = KroneckerSensingOperator(make_design(64, 8, 16, 2, 10, 5, seed=3), option)
    profile = SparsityProfile((3, 1, 2) if option == "FS" else (2, 2, 2))
    cfg = RecoveryConfig(algorithm=algorithm, profile=profile)
    for _ in range(5):
        y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
        res = solve(y, op, cfg)
        assert res.support.size > 0
        assert not np.delete(res.x_hat, res.support).any()


def test_htp_consistent_system_zero_residual():
    rng = np.random.default_rng(6)
    d = make_design(32, 4, 8, 1, 12, 4, seed=3)
    op = KroneckerSensingOperator(d, "FS")
    x = np.zeros(op.in_dim, dtype=complex)
    x[[3, 17]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    y = dense_forward(op, x)
    cfg = RecoveryConfig(algorithm="HiHTP", profile=SparsityProfile((2, 1, 1)))
    res = solve(y, op, cfg)
    assert res.residual_norm <= 1e-10


def test_flat_solvers_reduce_to_hierarchical_on_one_level():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((12, 20)) + 1j * rng.standard_normal((12, 20))
    A /= np.linalg.norm(A, axis=0)
    op = DenseOperator(A, BlockShape((20,)))
    y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    hi = solve(y, op, RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((4,))))
    flat = solve(y, op, RecoveryConfig(algorithm="IHT", profile=SparsityProfile((4,))))
    np.testing.assert_array_equal(hi.support, flat.support)
    np.testing.assert_allclose(hi.x_hat, flat.x_hat, atol=1e-14)


def test_results_are_deterministic():
    rng = np.random.default_rng(8)
    d = make_design(64, 8, 16, 2, 12, 6, seed=4)
    op = KroneckerSensingOperator(d, "FS")
    y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
    cfg = RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((4, 1, 1)))
    a, b = solve(y, op, cfg), solve(y, op, cfg)
    np.testing.assert_array_equal(a.support, b.support)
    assert a.iterations == b.iterations
    assert np.array_equal(a.x_hat, b.x_hat)


def fingerprint(res):
    return res.x_hat.tobytes(), res.support.tobytes(), res.iterations, res.residual_norm


@pytest.mark.parametrize("option, N, D, U", [
    # Np = 12. Product adjoint (12*U*D <= 2*N*log2(N)): it writes the loop's
    # own buffer, under FS and SF alike.
    ("FS", 64, 16, 4),
    ("FS", 64, 16, 2),
    ("SF", 64, 16, 4),
    # FFT adjoint: under FS with U*D = N it runs in the loop's own buffer,
    # otherwise in the operator's work buffer.
    ("FS", 16, 4, 4),
    ("FS", 16, 6, 2),
    ("SF", 16, 4, 4),
])
@pytest.mark.parametrize("algorithm", ["HiIHT", "HiHTP", "IHT"])
def test_solves_are_reentrant(algorithm, option, N, D, U):
    # The loop's per-thread buffers never leak into a result: repeated solves
    # in one thread and concurrent solves on two threads give the first
    # solve's bytes, and a result is untouched by later solves.
    rng = np.random.default_rng(41)
    op = KroneckerSensingOperator(make_design(N, 8, D, U, 12, 5, seed=9), option)
    assert (op._adjoint_table is not None) == (N == 64)
    profile = SparsityProfile((3, 1, 2) if option == "FS" else (2, 2, 2))
    cfg = RecoveryConfig(algorithm=algorithm, profile=profile)
    ys = [rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
          for _ in range(3)]
    first = [solve(y, op, cfg) for y in ys]
    expected = [fingerprint(res) for res in first]
    assert len(set(expected)) == len(ys)

    for _ in range(2):
        assert [fingerprint(solve(y, op, cfg)) for y in ys] == expected
    assert [fingerprint(res) for res in first] == expected

    start = threading.Barrier(2)
    got = {}

    def worker(offset):
        start.wait()
        got[offset] = [fingerprint(solve(ys[(offset + k) % len(ys)], op, cfg)) for k in range(12)]

    threads = [threading.Thread(target=worker, args=(offset,)) for offset in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for offset in (0, 1):
        assert got[offset] == [expected[(offset + k) % len(ys)] for k in range(12)]
    assert [fingerprint(res) for res in first] == expected


def test_outputs_are_hierarchically_sparse():
    rng = np.random.default_rng(9)
    d = make_design(64, 8, 16, 2, 10, 5, seed=5)
    op = KroneckerSensingOperator(d, "FS")
    profile = SparsityProfile((4, 2, 2))
    for seed in range(5):
        y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
        for alg in ("HiIHT", "HiHTP"):
            res = solve(y, op, RecoveryConfig(algorithm=alg, profile=profile))
            assert is_hi_sparse(res.x_hat.reshape(op.shape_in.dims), profile)


def test_htp_residual_non_increasing_on_repeated_support():
    rng = np.random.default_rng(10)
    d = make_design(32, 4, 8, 1, 8, 4, seed=6)
    op = KroneckerSensingOperator(d, "FS")
    x = np.zeros(op.in_dim, dtype=complex)
    x[[2, 9, 20]] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y = dense_forward(op, x) + 0.05 * (rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim))
    # Capped reruns replay identical loop prefixes, exposing the iterates.
    iterates = [
        solve(y, op, RecoveryConfig(algorithm="HiHTP",
                                    profile=SparsityProfile((3, 1, 1)),
                                    max_iters=k))
        for k in range(1, 6)
    ]
    for prev, cur in zip(iterates, iterates[1:]):
        if np.array_equal(prev.support, cur.support):
            assert cur.residual_norm <= prev.residual_norm + 1e-10


def test_measurement_validation():
    op, _, y = single_path_setup()
    cfg = RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((1, 1, 1)))
    with pytest.raises(Exception):
        solve(y[:-1], op, cfg)
    bad = y.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        solve(bad, op, cfg)


def test_config_without_profile_is_rejected():
    # A config the solver cannot size is rejected before any solve. A bare
    # tuple used to pass here and die in solve on profile.clip.
    for alg in ("HiIHT", "HiHTP", "IHT", "HTP", "OMP"):
        for profile in (None, (2, 1, 1), [2], 3):
            with pytest.raises(ValueError, match=f"{alg} needs a profile"):
                RecoveryConfig(algorithm=alg, profile=profile)


def test_result_json_dict():
    # The fields a saved result carries: support and residual.
    op, x, y = single_path_setup()
    cfg = RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((1, 1, 1)))
    res = solve(y, op, cfg)
    assert res.support.tolist() == [7]
    assert np.isfinite(res.residual_norm)


def test_contraction_constants_values():
    cc = contraction_constants(0.0, "HiIHT")
    assert cc.kappa == 0.0 and cc.tau == pytest.approx(2.18)
    cc = contraction_constants(0.0, "HiHTP")
    assert cc.kappa == 0.0 and cc.tau == pytest.approx(5.15)

    cc = contraction_constants(0.5, "HiIHT")
    assert cc.kappa == pytest.approx(math.sqrt(3) / 2)
    assert cc.tau == pytest.approx(2.18 / (1 - math.sqrt(3) / 2))

    cc = contraction_constants(0.5, "HiHTP")
    assert cc.kappa == pytest.approx(math.sqrt(2 * 0.5 / 0.75))
    assert not cc.contractive and cc.tau == math.inf

    with pytest.raises(GuaranteeVoidError):
        contraction_constants(1 / math.sqrt(3), "HiIHT")
    with pytest.raises(ValueError):
        contraction_constants(0.1, "OMP")


def test_min_overhead_formulas():
    # Saturation: the raw formula exceeds both N and M here.
    np_min, mp_min = min_overhead(0.4, 0.1, V=1, L=3, K_V=1, K_L=1, N=1024, M=256)
    assert np_min == 1024.0 and mp_min == 256.0
    raw = 3 * 0.4**-2 * math.log(1024) ** 4
    assert raw > 1024

    # Frequency-space pilot count is independent of V and L.
    a = min_overhead(0.3, 0.2, V=1, L=1, K_V=1, K_L=1, N=4096, M=16, C=1e-6)[0]
    b = min_overhead(0.3, 0.2, V=4, L=5, K_V=1, K_L=1, N=4096, M=16, C=1e-6)[0]
    assert a == b

    # Small delta_theta forces full antenna utilization.
    _, mp = min_overhead(0.3, 0.01, V=2, L=3, K_V=1, K_L=1, N=1024, M=256)
    assert mp == 256.0

    # Space-frequency pilot count scales with V*L.
    sf1 = min_overhead(0.3, 0.2, V=1, L=3, K_V=1, K_L=1, N=2**20, M=16, C=1e-9, option="SF")[0]
    sf4 = min_overhead(0.3, 0.2, V=4, L=3, K_V=1, K_L=1, N=2**20, M=16, C=1e-9, option="SF")[0]
    assert sf4 == pytest.approx(4 * sf1)

    with pytest.raises(GuaranteeVoidError):
        min_overhead(0.5, 0.3, V=1, L=1, K_V=1, K_L=1, N=64, M=16)
    with pytest.raises(GuaranteeVoidError):
        min_overhead(-0.1, 0.2, V=1, L=1, K_V=1, K_L=1, N=64, M=16)
    with pytest.raises(ValueError):
        min_overhead(0.3, 0.2, V=1, L=1, K_V=1, K_L=1, N=64, M=16, option="XS")


def test_omp_tracks_htp_at_reduced_antenna_sampling():
    def mean_mse(alg, Np, trials=30):
        config = ExperimentConfig(
            scenario="omp-compare",
            system=SystemConfig(N=128, M=64, D=32, U=4),
            channel=ChannelConfig(L=3, V=2),
            sweep=[Np], Mp=16, trials=trials, seed=17,
        )
        cond = Condition(label=alg, algorithm=alg, option="FS", V=2, L=3)
        return float(np.mean([run_trial(config, cond, Np, t) for t in range(trials)]))

    for Np in (12, 16, 24):
        htp = mean_mse("HiHTP", Np)
        greedy = mean_mse("OMP", Np)
        assert greedy <= 2.0 * htp
