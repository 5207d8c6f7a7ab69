import math

import numpy as np
import pytest

from hisparse import (
    BlockShape,
    DenseOperator,
    GuaranteeVoidError,
    KroneckerSensingOperator,
    RecoveryConfig,
    SparsityProfile,
    contraction_constants,
    is_hi_sparse,
    make_design,
    min_overhead,
    solve,
)
from hisparse.simulate import (
    ChannelConfig,
    Condition,
    ExperimentConfig,
    SystemConfig,
    run_trial,
)


def single_path_setup(seed=1):
    d = make_design(16, 4, 4, 1, 16, 4, seed=seed)
    op = KroneckerSensingOperator(d, "FS")
    x = np.zeros(op.in_dim, dtype=complex)
    x[7] = 1.5 - 0.5j
    return op, x, op.forward(x)


def test_hi_iht_single_path_exact():
    op, x, y = single_path_setup()
    cfg = RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((1, 1, 1)))
    res = solve(y, op, cfg)
    np.testing.assert_allclose(res.x_hat.values, x, atol=1e-12)
    np.testing.assert_array_equal(res.support, [7])
    assert res.iterations <= 2


def test_hi_htp_single_path_exact():
    op, x, y = single_path_setup()
    cfg = RecoveryConfig(algorithm="HiHTP", profile=SparsityProfile((1, 1, 1)))
    res = solve(y, op, cfg)
    np.testing.assert_allclose(res.x_hat.values, x, atol=1e-12)
    assert res.residual_norm <= 1e-12


def test_omp_single_path_exact():
    op, x, y = single_path_setup()
    res = solve(y, op, RecoveryConfig(algorithm="OMP", flat_k=1))
    np.testing.assert_allclose(res.x_hat.values, x, atol=1e-12)
    assert res.iterations == 1


def test_zero_measurement_gives_zero_estimate():
    op, _, _ = single_path_setup()
    y = np.zeros(op.out_dim, dtype=complex)
    for cfg in (
        RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((2, 1, 2))),
        RecoveryConfig(algorithm="IHT", flat_k=4),
        RecoveryConfig(algorithm="HiHTP", profile=SparsityProfile((2, 1, 2))),
        RecoveryConfig(algorithm="HTP", flat_k=4),
    ):
        res = solve(y, op, cfg)
        assert res.x_hat.norm() == 0.0
    res = solve(y, op, RecoveryConfig(algorithm="OMP", flat_k=3))
    assert res.x_hat.norm() == 0.0
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
    np.testing.assert_allclose(res.x_hat.values[S], oracle, atol=1e-8)


def test_htp_consistent_system_zero_residual():
    rng = np.random.default_rng(6)
    d = make_design(32, 4, 8, 1, 12, 4, seed=3)
    op = KroneckerSensingOperator(d, "FS")
    x = np.zeros(op.in_dim, dtype=complex)
    x[[3, 17]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    y = op.forward(x)
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
    flat = solve(y, op, RecoveryConfig(algorithm="IHT", flat_k=4))
    np.testing.assert_array_equal(hi.support, flat.support)
    np.testing.assert_allclose(hi.x_hat.values, flat.x_hat.values, atol=1e-14)


def test_results_are_deterministic():
    rng = np.random.default_rng(8)
    d = make_design(64, 8, 16, 2, 12, 6, seed=4)
    op = KroneckerSensingOperator(d, "FS")
    y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
    cfg = RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((4, 1, 1)))
    a, b = solve(y, op, cfg), solve(y, op, cfg)
    np.testing.assert_array_equal(a.support, b.support)
    assert a.iterations == b.iterations
    assert np.array_equal(a.x_hat.values, b.x_hat.values)


def test_outputs_are_hierarchically_sparse():
    rng = np.random.default_rng(9)
    d = make_design(64, 8, 16, 2, 10, 5, seed=5)
    op = KroneckerSensingOperator(d, "FS")
    profile = SparsityProfile((4, 2, 2))
    for seed in range(5):
        y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
        for alg in ("HiIHT", "HiHTP"):
            res = solve(y, op, RecoveryConfig(algorithm=alg, profile=profile))
            assert is_hi_sparse(res.x_hat, profile)


def test_htp_residual_non_increasing_on_repeated_support():
    rng = np.random.default_rng(10)
    d = make_design(32, 4, 8, 1, 8, 4, seed=6)
    op = KroneckerSensingOperator(d, "FS")
    x = np.zeros(op.in_dim, dtype=complex)
    x[[2, 9, 20]] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y = op.forward(x) + 0.05 * (rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim))
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


def test_error_trace_records_each_iteration():
    op, x, y = single_path_setup()
    cfg = RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((1, 1, 1)))
    res = solve(y, op, cfg, x_true=x)
    assert res.error_trace is not None
    assert len(res.error_trace) == res.iterations
    assert res.error_trace[-1] <= 1e-12


def test_measurement_validation():
    op, _, y = single_path_setup()
    cfg = RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((1, 1, 1)))
    with pytest.raises(Exception):
        solve(y[:-1], op, cfg)
    bad = y.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        solve(bad, op, cfg)


def test_config_rejects_nonpositive_flat_k():
    for k in (0, -1):
        with pytest.raises(ValueError, match="flat_k"):
            RecoveryConfig(algorithm="IHT", flat_k=k)
    # A config the solver cannot size is rejected before any solve.
    for alg in ("HiIHT", "HiHTP"):
        with pytest.raises(ValueError, match="needs a profile"):
            RecoveryConfig(algorithm=alg)
        with pytest.raises(ValueError, match="needs a profile"):
            RecoveryConfig(algorithm=alg, flat_k=4)
    for alg in ("IHT", "HTP", "OMP"):
        with pytest.raises(ValueError, match="needs a profile or flat_k"):
            RecoveryConfig(algorithm=alg)


def test_result_json_dict():
    op, x, y = single_path_setup()
    cfg = RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((1, 1, 1)))
    doc = solve(y, op, cfg, x_true=x).to_json_dict()
    assert doc["support"] == [7]
    assert "error_trace" in doc and "residual_norm" in doc


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
