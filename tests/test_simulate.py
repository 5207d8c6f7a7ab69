import json
import math

import numpy as np
import pytest

import hisparse
from hisparse import (
    ChannelParams,
    gen_ongrid,
    make_design,
    KroneckerSensingOperator,
    transfer_from_delay_angular,
    synthesize_transfer,
)
from hisparse.simulate import (
    ChannelConfig,
    Condition,
    ExperimentConfig,
    SystemConfig,
    emit_plot_data,
    naive_mse_trial,
    read_csv,
    recovery_profile,
    run_sweep,
    run_trial,
    split_estimate,
    stack_delay_angular,
    write_csv,
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
    # alpha*N == D sits exactly on the bound and is accepted.
    tiny_config(scenario="offgrid-sweep", system=SystemConfig(N=32, M=8, D=8, U=1))


def test_preset_revalidates():
    config = tiny_config(system=SystemConfig(N=1024, M=16, D=16, U=1), sweep=[300])
    with pytest.raises(ValueError, match="pilot count"):
        config.apply_preset("small")


def test_preset_override():
    config = tiny_config()
    config.apply_preset("paper")
    assert (config.system.N, config.system.M, config.system.D) == (1024, 256, 256)


def test_recovery_profile_shapes():
    assert recovery_profile("FS", V=2, L=3, K_V=1, K_L=1).s == (6, 1, 1)
    assert recovery_profile("SF", V=2, L=3, K_V=1, K_L=1).s == (2, 3, 1)
    assert recovery_profile("FS", V=1, L=3, K_V=1, K_L=1,
                            on_grid=False, L1=1, L2=2).s == (15, 1, 3)
    with pytest.raises(ValueError):
        recovery_profile("FS", V=1, L=3, K_V=1, K_L=1, on_grid=False)
    assert recovery_profile("sf", V=2, L=3, K_V=1, K_L=1).s == (2, 3, 1)
    with pytest.raises(ValueError):
        recovery_profile("xx", V=1, L=3, K_V=1, K_L=1)


def test_stack_and_split_are_inverse():
    rng = np.random.default_rng(0)
    params = ChannelParams(N=32, M=8, D=8, U=2, V=2, L=2)
    r = gen_ongrid(params, rng, "FS")
    for option in ("FS", "SF"):
        x = stack_delay_angular(r, option)
        mats = split_estimate(x, option, 2, 8, 8)
        from hisparse import delay_angular_matrix
        for u in range(2):
            expected = (delay_angular_matrix(r.paths[u], 32, 8, 8)
                        if r.paths[u] else np.zeros((8, 8)))
            np.testing.assert_allclose(mats[u], expected, atol=1e-14)


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
    x_true = stack_delay_angular(r, "FS")
    x_hat = x_true + 0.1 * (rng.standard_normal(x_true.size)
                            + 1j * rng.standard_normal(x_true.size))
    direct = float(np.linalg.norm(x_hat - x_true) ** 2)
    H_true = synthesize_transfer(r)
    h_err = 0.0
    for u, est in enumerate(split_estimate(x_hat, "FS", 2, 8, 8)):
        H_hat = transfer_from_delay_angular(est, 32, 8)
        h_err += float(np.linalg.norm(H_hat - H_true[u]) ** 2)
    assert direct == pytest.approx(h_err / (32 * 8), rel=1e-10)


def test_observation_routes_agree_on_grid():
    # Assembling the pilot matrix from per-UE transfer matrices must match
    # the fast operator applied to the stacked unknown (noiseless).
    rng = np.random.default_rng(6)
    params = ChannelParams(N=64, M=16, D=16, U=2, V=2, L=3)
    r = gen_ongrid(params, rng, "FS")
    design = make_design(64, 16, 16, 2, 12, 7, seed=8)
    op = KroneckerSensingOperator(design, "FS")
    from hisparse.simulate import observed_matrix
    Y = observed_matrix(r, design, rng, snr_db=math.inf,
                        transfers=synthesize_transfer(r))
    y_direct = op.forward(stack_delay_angular(r, "FS"))
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
        total += np.linalg.norm(stack_delay_angular(r, "FS")) ** 2
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
    rebuilt = ExperimentConfig.from_json_dict(manifest["config"])
    _, csv2, _ = run_sweep(rebuilt, out_dir=tmp_path / "b")
    first, second = read_csv(csv_path), read_csv(csv2)
    for a, b in zip(first, second):
        assert (a.sweep_value, a.algorithm, a.trials) == (b.sweep_value, b.algorithm, b.trials)
        assert a.mse_mean == b.mse_mean
        assert a.mse_stderr == b.mse_stderr


def test_threaded_run_matches_serial(tmp_path):
    config = tiny_config()
    serial, _, _ = run_sweep(config)
    threaded, _, _ = run_sweep(config, threads=4)
    for a, b in zip(serial, threaded):
        assert a.mse_mean == b.mse_mean


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
    config = tiny_config(l_values=[1, 2, 3])
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
