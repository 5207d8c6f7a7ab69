import json
import math
import sys
import threading
import time

import numpy as np
import pytest

import hisparse
from hisparse import (
    ChannelParams,
    gen_ongrid,
    make_design,
    KroneckerSensingOperator,
    delay_angular_offgrid,
    transfer_from_delay_angular,
)
from hisparse.operators import unvectorize, vectorize
from hisparse.simulate import (
    ChannelConfig,
    Condition,
    ExperimentConfig,
    SystemConfig,
    emit_plot_data,
    read_csv,
    recovery_profile,
    run_sweep,
    run_trial,
    sparse_delay_angular,
    write_csv,
)
import hisparse.simulate as simulate
from oracles import (
    delay_angular_matrix,
    naive_mse_trial,
    offgrid_trial_oracle,
    split_estimate,
    stack_delay_angular,
    synthesize_transfer,
)


def tiny_config(**overrides):
    base = dict(
        scenario="single-user-sweep",
        system=SystemConfig(N=64, M=16, D=16, U=1),
        channel=ChannelConfig(L=2, V=1),
        sweep=[4, 8],
        trials=4,
        seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_json_roundtrip():
    config = tiny_config()
    text = config.to_json()
    back = ExperimentConfig.from_json(text)
    assert back == config


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(scenario="nope")
    with pytest.raises(ValueError):
        tiny_config(trials=0)
    with pytest.raises(ValueError):
        tiny_config(sweep=[])
    with pytest.raises(ValueError):
        tiny_config(scenario="mismatched-L")  # needs fixed Np


def test_config_rejects_unknown_option():
    with pytest.raises(ValueError, match="VectorizationOption"):
        tiny_config(option="XS")


def test_config_rejects_pilot_count_outside_system():
    for sweep in ([0, 8], [5, 65]):
        with pytest.raises(ValueError, match="pilot count"):
            tiny_config(sweep=sweep)
    with pytest.raises(ValueError, match="pilot count"):
        tiny_config(scenario="mismatched-L", sweep=[2, 3], Np=65)


def test_config_rejects_antenna_count_outside_system():
    for Mp in (0, 17):
        with pytest.raises(ValueError, match="antenna count"):
            tiny_config(Mp=Mp)


def test_config_rejects_users_beyond_subcarriers():
    with pytest.raises(ValueError, match="U\\*D"):
        tiny_config(system=SystemConfig(N=64, M=16, D=16, U=5))


def test_config_rejects_active_users_beyond_u():
    with pytest.raises(ValueError, match="active UEs"):
        tiny_config(scenario="multiuser-sweep", v_values=[2])
    with pytest.raises(ValueError, match="active UEs"):
        tiny_config(channel=ChannelConfig(L=2, V=2))
    # The multiuser default sweeps V in (1, 2, 4), so U must reach 4.
    with pytest.raises(ValueError, match="active UEs"):
        tiny_config(scenario="multiuser-sweep", system=SystemConfig(N=64, M=16, D=16, U=2))


def test_config_rejects_offgrid_delay_spread_beyond_d():
    offgrid = dict(scenario="offgrid-sweep", system=SystemConfig(N=32, M=8, D=8, U=1, alpha=0.9))
    with pytest.raises(ValueError, match="alpha"):
        tiny_config(**offgrid)
    # alpha*N == D sits exactly on the bound and is accepted. (M = 8 admits
    # angle truncation levels up to 3, so the default l2_values [1, 2, 4] do not fit.)
    tiny_config(scenario="offgrid-sweep", system=SystemConfig(N=32, M=8, D=8, U=1), l2_values=[1, 2, 3])


def test_config_rejects_nonpositive_sparsity():
    with pytest.raises(ValueError, match="assumed path count 0"):
        tiny_config(scenario="mismatched-L", sweep=[2, 0], Np=16)
    with pytest.raises(ValueError, match="sparsities must be positive"):
        tiny_config(channel=ChannelConfig(L=0, V=1))


def test_config_rejects_hierarchical_refit_beyond_measurements():
    # FS off-grid profile (9, 1, 3) clips to (8, 1, 3): 24 columns > 2 * 8.
    offgrid = dict(scenario="offgrid-sweep", system=SystemConfig(N=32, M=8, D=8, U=1),
                   channel=ChannelConfig(L=3, V=1), l1_values=[1], l2_values=[1])
    with pytest.raises(ValueError, match="HiHTP:L1=1,L2=1: least-squares support of up to 24"):
        tiny_config(algorithms=["HiHTP"], sweep=[2, 8], **offgrid)
    tiny_config(algorithms=["HiHTP"], sweep=[3, 8], **offgrid)  # 24 == 3 * 8 fits
    tiny_config(algorithms=["HiIHT"], sweep=[2, 8], **offgrid)  # no refit, no bound


def test_config_rejects_flat_refit_beyond_measurements():
    with pytest.raises(ValueError, match="HTP: least-squares support of up to 2"):
        tiny_config(algorithms=["HTP"], Mp=1, sweep=[1, 8])
    tiny_config(algorithms=["HTP"], Mp=1, sweep=[2, 8])


def test_config_rejects_omp_refit_beyond_measurements():
    # omp-compare samples M // 4 = 4 antennas; k = V * L = 5 > 1 * 4.
    with pytest.raises(ValueError, match="OMP: least-squares support of up to 5"):
        tiny_config(scenario="omp-compare", algorithms=["OMP"],
                    channel=ChannelConfig(L=5, V=1), sweep=[8, 1])


def test_config_rejects_mismatched_refit_beyond_measurements():
    # The assumed path count sets the refit size: 3 > Np * Mp = 2.
    with pytest.raises(ValueError, match="HiHTP: least-squares support of up to 3"):
        tiny_config(scenario="mismatched-L", algorithms=["HiHTP"], Np=1, Mp=2, sweep=[1, 3])


@pytest.mark.parametrize("preset", ["small", "paper"])
def test_default_scenarios_pass_the_refit_guard(preset):
    sweep = [5, 10, 20, 40, 80]
    for scenario in ("single-user-sweep", "multiuser-sweep", "sf-vs-fs",
                     "mismatched-L", "omp-compare", "offgrid-sweep"):
        extra = {"Np": 15, "sweep": [1, 2, 3, 4, 5]} if scenario == "mismatched-L" else {}
        U = 4 if scenario in ("multiuser-sweep", "sf-vs-fs") else 1
        for algorithms in (None, ["HiHTP", "HTP", "OMP"]):
            config = ExperimentConfig(**{"scenario": scenario, "system": SystemConfig(U=U),
                                         "sweep": sweep, "algorithms": algorithms, **extra})
            config.apply_preset(preset)


def test_omp_compare_default_antennas_follow_preset():
    config = ExperimentConfig.from_json('{"scenario": "omp-compare", "sweep": [24]}')
    assert config.antenna_count() == 16
    config.apply_preset("paper")
    assert config.antenna_count() == 64
    explicit = ExperimentConfig(scenario="omp-compare", sweep=[24], Mp=16)
    explicit.apply_preset("paper")
    assert explicit.antenna_count() == 16 and explicit.Mp == 16


def test_preset_revalidates():
    # A refused preset leaves the config as it was, one its validation accepts.
    system = SystemConfig(N=1024, M=16, D=16, U=1)
    config = tiny_config(system=system, sweep=[300])
    with pytest.raises(ValueError, match="pilot count"):
        config.apply_preset("small")
    assert config.system is system and config.sweep == [300]
    config._validate()


def test_preset_refuses_truncation_levels_outside_its_sizes():
    # L1 = 100 fits N = 1024 ((N - 1) // 2 = 511) but not the small preset's
    # N = 128 (63); the refusal names the field and leaves the config as it was.
    system = SystemConfig(N=1024, M=256, D=256, U=1)
    config = tiny_config(scenario="offgrid-sweep", system=system, sweep=[64], l1_values=[1, 100],
                         l2_values=[2])
    with pytest.raises(ValueError, match=r"l1_values: truncation level 100 outside \[1, \(N - 1\) // 2 = 63\]"):
        config.apply_preset("small")
    assert config.system is system
    config.apply_preset("paper")


def test_preset_override():
    config = tiny_config()
    config.apply_preset("paper")
    assert (config.system.N, config.system.M, config.system.D) == (1024, 256, 256)


def test_preset_leaves_the_callers_system_alone():
    # A preset builds a new system: the caller's object and a sibling config
    # built on it keep their sizes (and the sibling stays validated at them).
    system = SystemConfig(U=4)
    a = ExperimentConfig(scenario="multiuser-sweep", system=system, sweep=[8])
    b = ExperimentConfig(scenario="multiuser-sweep", system=system, sweep=[8])
    a.apply_preset("paper")
    assert (a.system.N, a.system.M, a.system.D, a.system.U) == (1024, 256, 256, 4)
    for sizes in (system, b.system):
        assert (sizes.N, sizes.M, sizes.D, sizes.U) == (128, 64, 32, 4)


def test_recovery_profile_shapes():
    assert recovery_profile("FS", V=2, L=3, K_V=1, K_L=1).s == (6, 1, 1)
    assert recovery_profile("SF", V=2, L=3, K_V=1, K_L=1).s == (2, 3, 1)
    assert recovery_profile("FS", V=1, L=3, K_V=1, K_L=1, L1=1, L2=2).s == (15, 1, 3)
    for levels in ({"L1": 1}, {"L2": 2}):
        with pytest.raises(ValueError, match="needs L1 and L2"):
            recovery_profile("FS", V=1, L=3, K_V=1, K_L=1, **levels)
    assert recovery_profile("sf", V=2, L=3, K_V=1, K_L=1).s == (2, 3, 1)
    with pytest.raises(ValueError):
        recovery_profile("xx", V=1, L=3, K_V=1, K_L=1)


def test_stack_and_split_are_inverse():
    rng = np.random.default_rng(0)
    params = ChannelParams(N=32, M=8, D=8, U=2, V=2, L=2)
    r = gen_ongrid(params, rng, "FS")
    for option in ("FS", "SF"):
        x = stack_delay_angular(r, params, option)
        mats = split_estimate(x, option, 2, 8, 8)
        for u in range(2):
            expected = (delay_angular_matrix(r[u], 32, 8, 8)
                        if r[u] else np.zeros((8, 8)))
            np.testing.assert_allclose(mats[u], expected, atol=1e-14)


@pytest.mark.parametrize("option", ["FS", "SF"])
@pytest.mark.parametrize("U, V", [(4, 2), (3, 3), (1, 1)])
def test_sparse_truth_densifies_to_dense_oracle(option, U, V):
    rng = np.random.default_rng(17)
    params = ChannelParams(N=64, M=8, D=16, U=U, V=V, L=4, K_V=2, K_L=2)
    for _ in range(20):
        r = gen_ongrid(params, rng, option)
        idx, gains = sparse_delay_angular(r, 64, 8, 16, option)
        assert idx.dtype == np.int64 and np.all(np.diff(idx) > 0)
        x = np.zeros(U * 16 * 8, dtype=complex)
        x[idx] = gains
        assert x.tobytes() == stack_delay_angular(r, params, option).tobytes()


def test_sparse_truth_sums_paths_on_one_grid_point():
    # A hand-built draw may repeat a grid point; the dense matrix sums it.
    from hisparse import ChannelPath

    params = ChannelParams(N=32, M=8, D=8, U=2, V=1, L=3)
    paths = [ChannelPath(3 / 32, 5 / 8, 0.5 - 1j), ChannelPath(1 / 32, 0.0, 2.0),
             ChannelPath(3 / 32, 5 / 8, 0.25 + 0.125j)]
    r = [[], paths]
    for option in ("FS", "SF"):
        idx, gains = sparse_delay_angular(r, 32, 8, 8, option)
        assert idx.size == 2
        x = np.zeros(2 * 8 * 8, dtype=complex)
        x[idx] = gains
        assert x.tobytes() == stack_delay_angular(r, params, option).tobytes()


@pytest.mark.parametrize("option", ["FS", "SF"])
def test_sparse_truth_takes_the_ue_count_from_the_path_lists(option):
    # U = len(paths): the last UE's path lands in its own rows of a U*D x M
    # unknown, never in another UE's rows or, under FS, in the next angle's column.
    from hisparse import ChannelPath

    for U in (1, 2, 3):
        idx, gains = sparse_delay_angular([[]] * (U - 1) + [[ChannelPath(3 / 32, 5 / 8, 1.0)]],
                                          32, 8, 8, option)
        x = np.zeros(U * 8 * 8, dtype=complex)
        x[idx] = gains
        X = unvectorize(x, option, U * 8, 8)
        assert np.flatnonzero(X).tolist() == [((U - 1) * 8 + 3) * 8 + 5]


@pytest.mark.parametrize("tau, match", [(0.5 / 32, "not on the grid"), (8 / 32, "delay tap 8")],
                         ids=["half-tap", "tap-D"])
def test_sparse_truth_refuses_paths_off_the_delay_grid(tau, match):
    # The on-grid truth takes only paths on the (1/N, 1/M) grid with a delay tap below D.
    from hisparse import ChannelPath

    r = [[ChannelPath(tau, 3 / 8, 1.0)]]
    for option in ("FS", "SF"):
        with pytest.raises(ValueError, match=match):
            sparse_delay_angular(r, 32, 8, 8, option)


@pytest.mark.parametrize("option", ["FS", "SF"])
@pytest.mark.parametrize("algorithm", ["HiIHT", "HiHTP", "IHT", "HTP", "OMP"])
def test_ongrid_score_matches_dense_oracle(monkeypatch, algorithm, option):
    # The union-support score equals ||x_hat - stack_delay_angular(...)||^2.
    seen = {}

    def spy(name):
        inner = getattr(simulate, name)

        def wrapped(*args, **kwargs):
            seen[name] = inner(*args, **kwargs)
            return seen[name]
        monkeypatch.setattr(simulate, name, wrapped)

    spy("gen_ongrid")
    spy("solve")
    config = tiny_config(system=SystemConfig(N=64, M=16, D=16, U=3),
                         channel=ChannelConfig(L=2, V=2), sweep=[6], option=option)
    cond = Condition(label=algorithm, algorithm=algorithm, option=option, V=2, L=2)
    params = ChannelParams(N=64, M=16, D=16, U=3, V=2, L=2)
    for t in range(6):
        mse = run_trial(config, cond, 6, t)
        x_truth = stack_delay_angular(seen["gen_ongrid"], params, option)
        dense = float(np.linalg.norm(seen["solve"].x_hat - x_truth) ** 2)
        assert mse == pytest.approx(dense, rel=1e-12, abs=0.0)


def test_trial_is_deterministic():
    config = tiny_config()
    cond = Condition(label="HiIHT", algorithm="HiIHT", V=1, L=2)
    a = run_trial(config, cond, 6, 3)
    b = run_trial(config, cond, 6, 3)
    assert a == b


def test_noiseless_full_sampling_recovers_exactly():
    config = tiny_config(snr_db=math.inf, sweep=[64])
    cond = Condition(label="HiIHT", algorithm="HiIHT", V=1, L=2)
    for t in range(5):
        assert run_trial(config, cond, 64, t) <= 1e-20


def test_mse_dual_route_agreement():
    # X-domain shortcut equals the per-element transfer-matrix error.
    rng = np.random.default_rng(3)
    params = ChannelParams(N=32, M=8, D=8, U=2, V=2, L=2)
    r = gen_ongrid(params, rng, "FS")
    x_truth = stack_delay_angular(r, params, "FS")
    x_hat = x_truth + 0.1 * (rng.standard_normal(x_truth.size)
                             + 1j * rng.standard_normal(x_truth.size))
    direct = float(np.linalg.norm(x_hat - x_truth) ** 2)
    H_true = synthesize_transfer(r, params)
    h_err = 0.0
    for u, est in enumerate(split_estimate(x_hat, "FS", 2, 8, 8)):
        H_hat = transfer_from_delay_angular(est, 32, 8)
        h_err += float(np.linalg.norm(H_hat - H_true[u]) ** 2)
    assert direct == pytest.approx(h_err / (32 * 8), rel=1e-10)


@pytest.mark.parametrize("option", ["FS", "SF"])
@pytest.mark.parametrize("U, V", [(1, 1), (2, 1), (2, 2), (4, 2)])
def test_offgrid_trial_matches_per_ue_oracle(option, U, V):
    # The delay-angular score of the stacked truth (zeros for inactive UEs)
    # equals the per-UE transfer-domain route (None for an inactive UE, one
    # synthesis and norm per UE) within rounding: the two sum in other orders.
    config = ExperimentConfig(scenario="offgrid-sweep", system=SystemConfig(N=64, M=16, D=16, U=U),
                              channel=ChannelConfig(L=2, V=V), sweep=[16], trials=3, seed=5,
                              option=option, l1_values=[1], l2_values=[1])
    for alg in ("HiIHT", "HiHTP", "IHT", "HTP"):
        cond = Condition(label=alg, algorithm=alg, option=option, V=V, L=2, L1=1, L2=1)
        for t in range(3):
            assert run_trial(config, cond, 16, t) == pytest.approx(
                offgrid_trial_oracle(config, cond, 16, t), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("option", ["FS", "SF"])
def test_offgrid_score_is_the_transfer_domain_error(option):
    # Parseval: for any estimate, the per-element transfer-domain error over
    # all UEs equals the distance to the first D delay rows of the stacked
    # delay-angular truth plus its energy beyond them, the score run_trial
    # takes from an off-grid draw's (g, tail).
    rng = np.random.default_rng(12)
    U, D, N, M = 3, 8, 32, 8
    H = rng.standard_normal((U, N, M)) + 1j * rng.standard_normal((U, N, M))
    H[1] = 0.0  # an inactive UE
    x_hat = rng.standard_normal(U * D * M) + 1j * rng.standard_normal(U * D * M)
    G = delay_angular_offgrid(H)
    g = vectorize(G[:, :D].reshape(U * D, M), option)
    tail = np.linalg.norm(G[:, D:]) ** 2
    H_hat = transfer_from_delay_angular(unvectorize(x_hat, option, U * D, M).reshape(U, D, M), N, M)
    direct = np.linalg.norm(H_hat - H) ** 2 / (N * M)
    assert np.linalg.norm(x_hat - g) ** 2 + tail == pytest.approx(direct, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("threads", [1, 2])
def test_offgrid_trials_synthesize_no_estimate(monkeypatch, threads):
    # No off-grid trial, on a shared draw or its own, maps its estimate back
    # to the transfer domain, and the draw's truth is in_dim + 1 values.
    def refuse(*args, **kwargs):
        raise AssertionError("an off-grid trial synthesized its estimate")

    monkeypatch.setattr(simulate, "transfer_from_delay_angular", refuse)
    config = ExperimentConfig(scenario="offgrid-sweep", system=SystemConfig(N=64, M=16, D=16, U=2),
                              channel=ChannelConfig(L=2, V=2), sweep=[16, 24], trials=2, seed=3,
                              l1_values=[1, 2], l2_values=[1])
    records, _, _ = run_sweep(config, threads=threads)
    assert len(records) == 2 * 3 and all(math.isfinite(r.mse_mean) for r in records)
    cond = simulate._conditions(config)[0]
    assert math.isfinite(run_trial(config, cond, 16, 0))
    op, _, truth = simulate._draw(config, cond, 16, 0)
    assert sum(a.size for a in truth) == op.in_dim + 1


@pytest.mark.parametrize("option", ["FS", "SF"])
def test_stacked_synthesis_matches_per_slice(option):
    # A (U, D, M) stack of a stacked estimate's per-UE blocks maps slice by
    # slice in every bit, and each slice equals an FFT of the zero-padded
    # N x M buffer.
    rng = np.random.default_rng(11)
    U, D, N, M = 3, 8, 32, 8
    x = rng.standard_normal(U * D * M) + 1j * rng.standard_normal(U * D * M)
    X = unvectorize(x, option, U * D, M).reshape(U, D, M)
    stacked = transfer_from_delay_angular(X, N, M)
    assert stacked.shape == (U, N, M)
    for u in range(U):
        single = transfer_from_delay_angular(X[u], N, M)
        buf = np.zeros((N, M), dtype=np.complex128)
        buf[:D] = X[u]
        padded = np.fft.ifft(np.fft.fft(buf, axis=0), axis=1) * M
        bits = [np.ascontiguousarray(H).view(np.uint64) for H in (stacked[u], single, padded)]
        assert np.array_equal(bits[0], bits[1]) and np.array_equal(bits[1], bits[2])


def test_observation_routes_agree_on_grid():
    # Assembling the pilot matrix from per-UE transfer matrices must match
    # the fast operator applied to the stacked unknown (noiseless).
    rng = np.random.default_rng(6)
    params = ChannelParams(N=64, M=16, D=16, U=2, V=2, L=3)
    r = gen_ongrid(params, rng, "FS")
    design = make_design(64, 16, 16, 2, 12, 7, seed=8)
    op = KroneckerSensingOperator(design, "FS")
    from hisparse.simulate import observed_matrix
    Y = observed_matrix(np.stack(synthesize_transfer(r, params)), design, rng, snr_db=math.inf)
    x = stack_delay_angular(r, params, "FS")
    nz = np.flatnonzero(x)
    y_direct = op.forward(nz, x[nz])
    np.testing.assert_allclose(Y.flatten(order="F"), y_direct, atol=1e-10)


def test_trial_order_independence():
    config = tiny_config(trials=6)
    cond = Condition(label="HiIHT", algorithm="HiIHT", V=1, L=2)
    values = [run_trial(config, cond, 8, t) for t in range(6)]
    forward = float(np.mean(values))
    backward = float(np.mean(values[::-1]))
    assert forward == pytest.approx(backward, abs=1e-12)


def test_naive_estimator_near_noise_floor():
    sys_cfg = SystemConfig(N=64, M=16, D=16, U=1)
    vals = [naive_mse_trial(sys_cfg, L=3, snr_db=10.0, trial_index=t, seed=4)
            for t in range(30)]
    assert float(np.mean(vals)) == pytest.approx(0.1, rel=0.15)


def test_zero_estimator_power_is_unit():
    # Average per-element channel power for a single active UE equals one.
    rng = np.random.default_rng(5)
    params = ChannelParams(N=32, M=16, D=8, U=1, V=1, L=3)
    total = 0.0
    draws = 400
    for _ in range(draws):
        r = gen_ongrid(params, rng, "FS")
        total += np.linalg.norm(stack_delay_angular(r, params, "FS")) ** 2
    assert total / draws == pytest.approx(1.0, rel=0.1)


def test_run_sweep_writes_csv_and_manifest(tmp_path):
    config = tiny_config()
    records, csv_path, manifest_path = run_sweep(config, out_dir=tmp_path)
    assert csv_path.exists() and manifest_path.exists()
    assert len(records) == 4  # 2 sweep points x 2 algorithms
    parsed = read_csv(csv_path)
    assert [r.algorithm for r in parsed] == [r.algorithm for r in records]
    assert all(r.mse_mean >= 0 for r in parsed)


def test_manifest_reproduces_rows(tmp_path):
    config = tiny_config()
    _, csv_path, manifest_path = run_sweep(config, out_dir=tmp_path / "a")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["version"] == hisparse.__version__
    rebuilt = ExperimentConfig.from_json(json.dumps(manifest["config"]))
    _, csv2, _ = run_sweep(rebuilt, out_dir=tmp_path / "b")
    first, second = read_csv(csv_path), read_csv(csv2)
    for a, b in zip(first, second):
        assert (a.sweep_value, a.algorithm, a.trials) == (b.sweep_value, b.algorithm, b.trials)
        assert a.mse_mean == b.mse_mean
        assert a.mse_stderr == b.mse_stderr



def test_config_of_numpy_scalars_writes_csv_and_manifest(tmp_path):
    # The checks accept numpy integers and floats; the manifest writes their
    # values, so a run leaves both files and the manifest rebuilds the config.
    config = tiny_config(system=SystemConfig(N=np.int64(64), M=np.int32(16), D=16, U=1),
                         sweep=list(np.array([4, 8])), trials=np.int64(2), seed=np.uint8(1),
                         snr_db=np.float32(10.0))
    records, csv_path, manifest_path = run_sweep(config, out_dir=tmp_path)
    assert csv_path.exists() and manifest_path.exists() and len(read_csv(csv_path)) == len(records)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["config"]["sweep"] == [4, 8] and manifest["config"]["system"]["N"] == 64
    assert ExperimentConfig.from_json(json.dumps(manifest["config"])) == config


def test_records_do_not_depend_on_thread_count():
    # Two sweep points x two algorithms x two L1, plus the best(L1,L2) rows.
    config = ExperimentConfig(
        scenario="offgrid-sweep", system=SystemConfig(N=32, M=8, D=8, U=1),
        channel=ChannelConfig(L=1, V=1), sweep=[8, 16], trials=3, seed=3,
        algorithms=["HiIHT", "IHT"], l1_values=[1, 2], l2_values=[1])
    runs = [run_sweep(config, threads=threads)[0] for threads in (1, 2, 4)]
    assert len(runs[0]) == 2 * (2 * 2 + 2)
    assert sum(r.algorithm.endswith(":best(L1,L2)") for r in runs[0]) == 4
    for records in runs:
        assert len(records) == len(runs[0])
        assert ([(r.sweep_value, r.algorithm, r.mse_mean, r.mse_stderr, r.trials) for r in records]
                == [(r.sweep_value, r.algorithm, r.mse_mean, r.mse_stderr, r.trials)
                    for r in runs[0]])



# One config per case of the shared draw: (config fields, draws per row,
# conditions per row whose draw another condition also reads).
# offgrid-sweep: every condition shares one draw; omp-compare: Mp < M with OMP
# in the row; multiuser-sweep: a V axis, one key per V, each read by one
# condition; sf-vs-fs: an option axis by a V axis, likewise; single-user-sweep:
# an L axis, each key read by HiIHT and IHT.
_SHARED_DRAW_CASES = {
    "offgrid-sweep": (dict(system=SystemConfig(N=32, M=8, D=8, U=1), channel=ChannelConfig(L=1, V=1),
                           algorithms=["HiIHT", "HiHTP", "IHT"], l1_values=[1, 2], l2_values=[1]),
                      1, 6),
    "omp-compare": (dict(system=SystemConfig(N=64, M=16, D=16, U=2), channel=ChannelConfig(L=2, V=1)),
                    1, 3),
    "multiuser-sweep": (dict(system=SystemConfig(N=64, M=16, D=16, U=4)), 3, 0),
    "sf-vs-fs": (dict(system=SystemConfig(N=64, M=16, D=16, U=2), v_values=[1, 2]), 4, 0),
    "single-user-sweep": (dict(system=SystemConfig(N=64, M=16, D=16, U=1), l_values=[2, 3]), 2, 4),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("scenario", sorted(_SHARED_DRAW_CASES))
def test_sweep_records_equal_independent_trials(monkeypatch, scenario, threads):
    # A row shares trial t's draw, and its A^H y, between its conditions, one
    # draw per distinct key; a solve gets the shared A^H y only where another
    # condition reads the same draw. Every record still equals, in every bit,
    # the mean and stderr of run_trial calls that share nothing.
    fields, keys, sharing = _SHARED_DRAW_CASES[scenario]
    config = ExperimentConfig(scenario=scenario, sweep=[8, 16], trials=3, seed=4, **fields)
    designs, adjoints, given = [], [], []
    make, adjoint, solve = simulate.make_design, KroneckerSensingOperator.adjoint_values, simulate.solve

    def counted(*args, **kwargs):
        designs.append(args)
        return make(*args, **kwargs)

    def counted_adjoint(*args, **kwargs):
        adjoints.append(args)
        return adjoint(*args, **kwargs)

    def spied_solve(*args, **kwargs):
        given.append(kwargs["aty"] is not None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(simulate, "make_design", counted)
    monkeypatch.setattr(KroneckerSensingOperator, "adjoint_values", counted_adjoint)
    monkeypatch.setattr(simulate, "solve", spied_solve)
    records, _, _ = run_sweep(config, threads=threads)
    monkeypatch.undo()
    assert len(designs) == len(config.sweep) * config.trials * keys
    assert sum(given) == len(config.sweep) * config.trials * sharing
    assert len(given) == len(config.sweep) * config.trials * len(simulate._conditions(config))
    # Thresholding solves with every antenna observed call adjoint_values
    # only for A^H y (OMP's picks and the Mp < M step call it too).
    if scenario != "omp-compare":
        assert config.antenna_count() == config.system.M
        assert "OMP" not in {cond.algorithm for cond in simulate._conditions(config)}
        assert len(adjoints) == len(designs)
    expected = []
    for Np in config.sweep:
        for cond in simulate._conditions(config):
            values = np.asarray([run_trial(config, cond, Np, t) for t in range(config.trials)])
            stderr = float(values.std(ddof=1) / math.sqrt(config.trials))
            expected.append((float(Np), cond.label, float(values.mean()).hex(), stderr.hex()))
    assert [(r.sweep_value, r.algorithm, r.mse_mean.hex(), r.mse_stderr.hex()) for r in records
            if not r.algorithm.endswith(":best(L1,L2)")] == expected


def _draw_bytes(draw):
    """The bytes of a draw's measurement, truth, A^H y and operator arrays, by name."""
    op, y, truth, aty = draw
    arrays = {"y": y, "aty": aty, **{f"truth{i}": a for i, a in enumerate(truth)}}
    for owner, prefix in ((op, "op."), (op.design, "design.")):
        arrays.update({prefix + name: a for name, a in vars(owner).items() if isinstance(a, np.ndarray)})
    return {name: (a.flags.writeable, a.tobytes()) for name, a in arrays.items()}


@pytest.mark.parametrize("Mp", [16, 8])
def test_a_shared_draw_is_never_written(Mp):
    # Every solver, on-grid and off-grid, under FS and SF, runs on one dict of
    # draws (one dict per config: the key leaves the config out). Afterwards
    # each draw has the bytes of a fresh one, its A^H y those of a fresh
    # adjoint_values(y), its measurement, truth and A^H y are still read-only,
    # and every MSE equals a fresh call's.
    config = ExperimentConfig(scenario="offgrid-sweep", system=SystemConfig(N=64, M=16, D=16, U=2),
                              channel=ChannelConfig(L=2, V=2), sweep=[24], trials=1, seed=9, Mp=Mp,
                              l1_values=[1], l2_values=[1])
    draws, first = {}, {}
    for option in ("FS", "SF"):
        for L1 in (None, 1):
            for alg in ("HiIHT", "HiHTP", "IHT", "HTP", "OMP"):
                cond = Condition(label=alg, algorithm=alg, option=option, V=2, L=2, L1=L1, L2=L1)
                mse = run_trial(config, cond, 24, 1, draws=draws)
                assert mse.hex() == run_trial(config, cond, 24, 1).hex()
                first.setdefault((1, 24, 2, 2, option, L1 is None), cond)
    assert draws.keys() == first.keys()
    for key, cond in first.items():
        op, y, truth = simulate._draw(config, cond, 24, 1)
        fresh, shared = _draw_bytes((op, y, truth, op.adjoint_values(y))), _draw_bytes(draws[key])
        assert shared.pop("aty") == (False, fresh.pop("aty")[1])
        assert shared == fresh
        assert not any(writeable for name, (writeable, _) in fresh.items()
                       if not name.startswith(("op.", "design.")))


def _lane_threads():
    return {t for t in threading.enumerate() if t.name.startswith("sweep-lane-")}


def test_trial_rows_run_on_fixed_lanes(monkeypatch):
    # Row t of every sweep point runs on lane t % threads, and lane 0 is the
    # caller: at trials=6, threads=3 rows {0, 3} run on this thread, {1, 4}
    # on one lane thread and {2, 5} on another, at both sweep points. Thread
    # objects are compared, not idents, since an ended thread's ident is
    # reused.
    placed = {}

    def placing_trial(config, condition, Np, trial_index, draws=None):
        placed.setdefault(threading.current_thread(), set()).add((Np, trial_index))
        return 0.0

    monkeypatch.setattr(simulate, "run_trial", placing_trial)
    run_sweep(tiny_config(trials=6), threads=3)

    def rows(*trials):
        return {(Np, t) for Np in (4, 8) for t in trials}

    assert placed.pop(threading.current_thread()) == rows(0, 3)
    assert sorted(placed.values(), key=min) == [rows(1, 4), rows(2, 5)]
    assert all(t.name.startswith("sweep-lane-") and not t.is_alive() for t in placed)


def test_one_thread_runs_every_row_on_the_caller(monkeypatch):
    # The default starts no thread, so a profile of the caller sees every trial.
    callers, started = set(), []
    start = threading.Thread.start

    def placing_trial(config, condition, Np, trial_index, draws=None):
        callers.add(threading.current_thread())
        return 0.0

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(simulate, "run_trial", placing_trial)
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    records, _, _ = run_sweep(tiny_config(), threads=1)
    assert callers == {threading.current_thread()}
    assert started == []
    assert len(records) == 2 * 2 and all(r.trials == 4 for r in records)


def test_a_lagging_lane_still_runs_every_row(monkeypatch):
    # The caller waits for the other lanes once its own rows are done; it
    # does not stop them. Lane 1's rows sleep, so over two sweep points it is
    # still at work when lane 0 has finished.
    ran = []

    def lagging_trial(config, condition, Np, trial_index, draws=None):
        if trial_index % 2:
            time.sleep(0.01)
        ran.append((Np, trial_index))
        return float(trial_index)

    monkeypatch.setattr(simulate, "run_trial", lagging_trial)
    records, _, _ = run_sweep(tiny_config(trials=4), threads=2)
    assert sorted(set(ran)) == [(Np, t) for Np in (4, 8) for t in range(4)]
    assert [r.mse_mean for r in records] == [1.5] * 4
    assert not _lane_threads()


def test_lanes_fill_every_row_under_fast_switching(monkeypatch):
    # More lanes than cores, switching threads every microsecond: every row
    # of every point is filled by its own trial, none lost or overwritten.
    def numbered_trial(config, condition, Np, trial_index, draws=None):
        return float(Np * 100 + trial_index)

    monkeypatch.setattr(simulate, "run_trial", numbered_trial)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        records, _, _ = run_sweep(tiny_config(trials=23), threads=5)
    finally:
        sys.setswitchinterval(interval)
    assert [r.mse_mean for r in records] == [Np * 100 + 11.0 for Np in (4, 8) for _ in range(2)]
    assert not _lane_threads()


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_trial_stops_the_sweep(monkeypatch, threads):
    # The exception reaches the caller once every lane thread has ended, and
    # the lane it failed on starts no row after it. The failing trial runs on
    # the caller (trial 0) and, at threads=2, on lane 1 (trial 1); there each
    # thread's first call waits until both lanes are in a row, so a row does
    # run on a lane thread. A row calls run_trial once per condition with its
    # shared dict of draws.
    for failing in (0, 1):
        started = []
        met, both_lanes = set(), threading.Barrier(threads, timeout=30)

        def failing_trial(config, condition, Np, trial_index, draws=None):
            thread = threading.current_thread()
            started.append((trial_index, thread))
            if thread not in met:
                met.add(thread)
                both_lanes.wait()
            time.sleep(0.01)
            if trial_index == failing:
                raise RuntimeError(f"trial {failing} failed")
            return 0.0

        monkeypatch.setattr(simulate, "run_trial", failing_trial)
        with pytest.raises(RuntimeError, match=f"trial {failing} failed"):
            run_sweep(tiny_config(trials=50), threads=threads)
        # Each lane started its first row, the failing row's lane every row
        # before it, and far from every row started.
        assert set(range(max(threads, failing + 1))) <= {t for t, _ in started}
        assert len(started) < 50
        assert max(t for t, thread in started if t % threads == failing % threads) == failing
        lanes = {thread for _, thread in started} - {threading.current_thread()}
        assert len(lanes) == threads - 1
        assert all(thread.name.startswith("sweep-lane-") and not thread.is_alive() for thread in lanes)
        assert not _lane_threads()


@pytest.mark.parametrize("threads", [0, -1, 1.5, 2.0, True])
def test_zero_threads_is_refused_before_the_output_directory(tmp_path, threads):
    # Anything but an integer >= 1 is refused before any compute or output.
    with pytest.raises(ValueError, match="threads must be an integer >= 1"):
        run_sweep(tiny_config(), out_dir=tmp_path / "out", threads=threads)
    assert not (tmp_path / "out").exists()


def test_mismatched_scenario_sweeps_assumed_paths():
    config = ExperimentConfig(
        scenario="mismatched-L",
        system=SystemConfig(N=64, M=16, D=16, U=2),
        channel=ChannelConfig(L=3, V=1),
        sweep=[2, 5],
        Np=12,
        trials=3,
        seed=2,
    )
    records, _, _ = run_sweep(config)
    assert {r.sweep_value for r in records} == {2.0, 5.0}


def test_offgrid_scenario_adds_best_curve():
    config = ExperimentConfig(
        scenario="offgrid-sweep",
        system=SystemConfig(N=32, M=8, D=8, U=1),
        channel=ChannelConfig(L=1, V=1),
        sweep=[16],
        trials=2,
        seed=3,
        l1_values=[1],
        l2_values=[1, 2],
    )
    records, _, _ = run_sweep(config)
    labels = {r.algorithm for r in records}
    assert "HiIHT:L1=1,L2=1" in labels and "HiIHT:L1=1,L2=2" in labels
    assert "HiIHT:best(L1,L2)" in labels
    best = [r for r in records if r.algorithm == "HiIHT:best(L1,L2)"][0]
    assert best.mse_mean == min(r.mse_mean for r in records if r.algorithm != best.algorithm)


def test_emit_plot_data_curve_counts(tmp_path):
    # l_values replaces channel.L, so the channel keeps its default L.
    config = tiny_config(channel=ChannelConfig(), l_values=[1, 2, 3])
    _, csv_path, _ = run_sweep(config, out_dir=tmp_path)
    written = emit_plot_data(csv_path, tmp_path / "plots")
    dat_files = [p for p in written if p.suffix == ".dat"]
    assert len(dat_files) == 6  # 2 algorithms x 3 path counts
    assert any(p.suffix == ".gp" for p in written)
    gp = [p for p in written if p.suffix == ".gp"][0]
    assert "logscale" in gp.read_text()


def test_emit_plot_data_three_solver_curves(tmp_path):
    config = ExperimentConfig(
        scenario="omp-compare",
        system=SystemConfig(N=64, M=16, D=16, U=2),
        channel=ChannelConfig(L=2, V=1),
        sweep=[8],
        trials=2,
        seed=9,
    )
    _, csv_path, _ = run_sweep(config, out_dir=tmp_path)
    written = emit_plot_data(csv_path, tmp_path / "plots")
    dat_files = sorted(p.name for p in written if p.suffix == ".dat")
    assert len(dat_files) == 3  # HiHTP, HiIHT, OMP
    assert any("OMP" in n for n in dat_files)


def test_emit_plot_data_empty_csv(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    write_csv([], empty)
    written = emit_plot_data(empty, tmp_path / "plots")
    dat_files = [p for p in written if p.suffix == ".dat"]
    assert dat_files == []
    assert "warning" in capsys.readouterr().err


def test_sf_option_trial_runs():
    config = tiny_config(option="SF", system=SystemConfig(N=64, M=16, D=16, U=2),
                         channel=ChannelConfig(L=2, V=2))
    cond = Condition(label="HiIHT", algorithm="HiIHT", option="SF", V=2, L=2)
    mse = run_trial(config, cond, 16, 0)
    assert np.isfinite(mse)


def _pinned(label, alg, V, option="FS", L=4, on_grid=True, L1=None, L2=None):
    return (label, alg, option, V, L, on_grid, L1, L2)


# Every field each scenario reads, given; sf-vs-fs sweeps option itself.
_EXPLICIT_BASE = dict(option="SF", algorithms=["HiHTP", "OMP"])
_EXPLICIT_AXES = {
    "single-user-sweep": dict(l_values=[2, 5]),
    "multiuser-sweep": dict(v_values=[3, 1]),
    "sf-vs-fs": dict(option="FS", v_values=[3, 1]),
    "mismatched-L": {},
    "omp-compare": {},
    "offgrid-sweep": dict(l1_values=[2, 1], l2_values=[3]),
}

_PINNED_CONDITIONS = {
    ("single-user-sweep", "defaults"): [
        _pinned("HiIHT", "HiIHT", 2), _pinned("IHT", "IHT", 2),
    ],
    ("single-user-sweep", "explicit"): [
        _pinned(f"{alg}:L={L}", alg, 2, "SF", L) for alg in ("HiHTP", "OMP") for L in (2, 5)
    ],
    ("multiuser-sweep", "defaults"): [
        _pinned("HiIHT:V=1", "HiIHT", 1), _pinned("HiIHT:V=2", "HiIHT", 2),
        _pinned("HiIHT:V=4", "HiIHT", 4),
    ],
    ("multiuser-sweep", "explicit"): [
        _pinned("HiHTP:V=3", "HiHTP", 3, "SF"), _pinned("HiHTP:V=1", "HiHTP", 1, "SF"),
        _pinned("OMP:V=3", "OMP", 3, "SF"), _pinned("OMP:V=1", "OMP", 1, "SF"),
    ],
    ("sf-vs-fs", "defaults"): [
        _pinned("HiIHT-FS:V=1", "HiIHT", 1, "FS"), _pinned("HiIHT-FS:V=4", "HiIHT", 4, "FS"),
        _pinned("HiIHT-SF:V=1", "HiIHT", 1, "SF"), _pinned("HiIHT-SF:V=4", "HiIHT", 4, "SF"),
    ],
    ("sf-vs-fs", "explicit"): [
        _pinned(f"{alg}-{opt}:V={v}", alg, v, opt)
        for alg in ("HiHTP", "OMP") for opt in ("FS", "SF") for v in (3, 1)
    ],
    ("mismatched-L", "defaults"): [_pinned("HiIHT", "HiIHT", 2)],
    ("mismatched-L", "explicit"): [
        _pinned("HiHTP", "HiHTP", 2, "SF"), _pinned("OMP", "OMP", 2, "SF"),
    ],
    ("omp-compare", "defaults"): [
        _pinned("HiHTP", "HiHTP", 2), _pinned("HiIHT", "HiIHT", 2), _pinned("OMP", "OMP", 2),
    ],
    ("omp-compare", "explicit"): [
        _pinned("HiHTP", "HiHTP", 2, "SF"), _pinned("OMP", "OMP", 2, "SF"),
    ],
    ("offgrid-sweep", "defaults"): [
        _pinned(f"HiIHT:L1={l1},L2={l2}", "HiIHT", 2, on_grid=False, L1=l1, L2=l2)
        for l1 in (1, 2, 4) for l2 in (1, 2, 4)
    ],
    ("offgrid-sweep", "explicit"): [
        _pinned(f"{alg}:L1={l1},L2=3", alg, 2, "SF", on_grid=False, L1=l1, L2=3)
        for alg in ("HiHTP", "OMP") for l1 in (2, 1)
    ],
}


def _channel(scenario, axes):
    """L = 4 and V = 2, apart from a value that the scenario's axes replace.

    That one keeps its default: a scenario refuses a channel value it does
    not read.
    """
    swept = {"multiuser-sweep": "V", "sf-vs-fs": "V"}.get(scenario)
    if scenario == "single-user-sweep" and axes == "explicit":
        swept = "L"
    return ChannelConfig(**{name: value for name, value in (("L", 4), ("V", 2)) if name != swept})


@pytest.mark.parametrize("scenario, axes", sorted(_PINNED_CONDITIONS))
def test_conditions_are_pinned(scenario, axes):
    # Every scenario's curves, in order, with its default axes and with every
    # field it reads given.
    from hisparse.simulate import _conditions

    config = ExperimentConfig(
        scenario=scenario, system=SystemConfig(U=4), channel=_channel(scenario, axes),
        sweep=[64], Np=64 if scenario == "mismatched-L" else None,
        **(dict(_EXPLICIT_BASE, **_EXPLICIT_AXES[scenario]) if axes == "explicit" else {}),
    )
    conditions = _conditions(config)
    assert [(c.label, c.algorithm, c.option, c.V, c.L, c.on_grid, c.L1, c.L2)
            for c in conditions] == _PINNED_CONDITIONS[scenario, axes]
    assert all(c.lhat is None for c in conditions)


_UNREAD_VALUES = {"l_values": [2], "v_values": [1], "l1_values": [1], "l2_values": [1],
                  "Np": 8, "option": "SF", "system.alpha": 0.125}


@pytest.mark.parametrize("scenario", sorted(_EXPLICIT_AXES))
def test_fields_a_scenario_does_not_read_are_refused(scenario):
    # Exactly the fields outside the scenario's explicit set (and option under
    # sf-vs-fs, which sweeps it) are refused when they leave their defaults.
    reads = set(dict(_EXPLICIT_BASE, **_EXPLICIT_AXES[scenario]))
    reads |= {"Np"} if scenario == "mismatched-L" else set()
    reads |= {"system.alpha"} if scenario == "offgrid-sweep" else set()
    reads -= {"option"} if scenario == "sf-vs-fs" else set()
    base = dict(scenario=scenario, system=SystemConfig(U=4), channel=_channel(scenario, "explicit"),
                sweep=[64], Np=64 if scenario == "mismatched-L" else None)
    for name, value in _UNREAD_VALUES.items():
        if name == "system.alpha":
            fields = dict(base, system=SystemConfig(U=4, alpha=value))
        else:
            fields = dict(base, **{name: value})
        if name in reads:
            ExperimentConfig(**fields)
        else:
            with pytest.raises(ValueError, match=f"{scenario} does not read {name}, got"):
                ExperimentConfig(**fields)
    # A default value given explicitly is accepted everywhere.
    ExperimentConfig(**dict(base, option="FS", system=SystemConfig(U=4, alpha=0.25)))
