"""The names the benchmark harness under perfbench/ patches, wraps or calls.

The harness finds these by name at run time, so deleting or renaming one
breaks the benchmark without failing any other test here.
"""

from collections import Counter
import functools
import importlib.util
import inspect
import json
import math
from pathlib import Path
import sys
import threading

import numpy as np
import pytest

import hisparse.cli
import hisparse.operators
import hisparse.recovery
import hisparse.ripcheck
import hisparse.simulate
from hisparse.blocks import SparsityProfile
from hisparse.simulate import ChannelConfig, Condition, ExperimentConfig, SystemConfig

HOOKS = [
    (hisparse.simulate, name) for name in (
        # patched where simulate looks them up
        "solve", "gen_ongrid", "gen_offgrid", "superpose_transfer",
        "transfer_from_delay_angular", "observed_matrix", "make_design", "run_trial",
        "write_csv", "run_manifest",
        # imported by the workloads
        "CSV_HEADER", "ChannelConfig", "Condition", "ExperimentConfig", "SystemConfig",
        "read_csv",
    )
] + [
    (hisparse.recovery, "hi_threshold"),
    (np.linalg, "lstsq"),
    (np.linalg, "eigvalsh"),
    (hisparse.operators.KroneckerSensingOperator, "__init__"),
    (hisparse.operators.KroneckerSensingOperator, "forward"),
    (hisparse.operators.KroneckerSensingOperator, "adjoint_values"),
    (hisparse.ripcheck, "hirip_constant"),
    (hisparse.ripcheck, "rip_constant"),
    (hisparse.ripcheck, "count_hi_supports"),
    (hisparse.cli, "main"),
    (hisparse.simulate.ExperimentConfig, "from_json"),
    (hisparse.simulate.ExperimentConfig, "to_json"),
    (hisparse.simulate.ExperimentConfig, "apply_preset"),
]


@pytest.mark.parametrize("owner, name", HOOKS,
                         ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in HOOKS])
def test_benchmark_hook_resolves(owner, name):
    assert hasattr(owner, name)


def test_run_trial_keeps_the_benchmark_call_shape():
    # The workloads call run_trial(config, condition, Np, index) and expect a float.
    config = ExperimentConfig(scenario="mismatched-L", system=SystemConfig(N=64, M=16, D=16, U=2),
                              sweep=[8], Np=8, trials=1, seed=3)
    condition = Condition(label="HiIHT", algorithm="HiIHT", option="FS", V=1, L=3)
    mse = hisparse.simulate.run_trial(config, condition, 8, 0)
    assert isinstance(mse, float) and math.isfinite(mse)


def test_only_a_shared_draw_hands_solve_its_aty(monkeypatch):
    # Without draws (the workloads' call) run_trial passes solve no A^H y, so
    # the solve forms it with one adjoint_values call into its work buffer and
    # the trial makes no extra length-in_dim array. With draws, the draw's one
    # A^H y, read-only, goes to every solve on it.
    config = ExperimentConfig(scenario="mismatched-L", system=SystemConfig(N=64, M=16, D=16, U=2),
                              sweep=[8], Np=8, trials=1, seed=3)
    condition = Condition(label="HiIHT", algorithm="HiIHT", option="FS", V=1, L=3)
    op_class = hisparse.operators.KroneckerSensingOperator
    solve, adjoint = hisparse.simulate.solve, op_class.adjoint_values
    solves, adjoints = [], []

    def spy(*args, **kwargs):
        solves.append(kwargs)
        return solve(*args, **kwargs)

    def counted_adjoint(self, y, out=None, moduli=None):
        adjoints.append(out is not None)
        return adjoint(self, y, out, moduli)

    monkeypatch.setattr(hisparse.simulate, "solve", spy)
    monkeypatch.setattr(op_class, "adjoint_values", counted_adjoint)
    mse = hisparse.simulate.run_trial(config, condition, 8, 0)
    assert [kwargs.get("aty") for kwargs in solves] == [None] and adjoints == [True]
    solves.clear()
    adjoints.clear()
    draws = {}
    shared = [hisparse.simulate.run_trial(config, condition, 8, 0, draws=draws) for _ in range(2)]
    assert [value.hex() for value in shared] == [mse.hex()] * 2
    assert adjoints == [False]
    assert [list(kwargs) for kwargs in solves] == [["aty"], ["aty"]]
    assert solves[0]["aty"] is solves[1]["aty"] and not solves[0]["aty"].flags.writeable


def test_solve_and_report_keep_the_attributes_the_tracer_reads():
    # The tracer reads solve's third argument as args[2] or kwargs["cfg"], then
    # cfg.max_iters and result.iterations; ripcheck spans read supports_checked.
    solve = hisparse.simulate.solve
    assert list(inspect.signature(solve).parameters)[2] == "cfg"
    op = hisparse.operators.KroneckerSensingOperator(
        hisparse.simulate.make_design(16, 4, 4, 1, 16, 4, seed=1), "FS")
    cfg = hisparse.recovery.RecoveryConfig(algorithm="HiIHT",
                                           profile=SparsityProfile((1, 1, 1)))
    result = solve(np.ones(op.out_dim, dtype=complex), op, cfg=cfg)
    assert isinstance(cfg.max_iters, int) and isinstance(result.iterations, int)
    report = hisparse.ripcheck.rip_constant(np.eye(3), 2)
    assert isinstance(report.supports_checked, int)


# The call sites perfbench's traced run counts to check that a workload reaches
# each layer it claims to, and skips the ones it claims to skip; and the
# operator's least-squares refit, which perfbench does not trace: with every
# antenna observed it solves per-angle blocks without ``lstsq``, so its time
# reads as recovery.solve.self_ms there.
COUNTED = [
    (hisparse.operators.KroneckerSensingOperator, "forward"),
    (hisparse.operators.KroneckerSensingOperator, "adjoint_values"),
    (hisparse.recovery, "hi_threshold"),
    (np.linalg, "lstsq"),
    (hisparse.operators.KroneckerSensingOperator, "solve_normal"),
]


def counted_trial(monkeypatch, config, condition, Np):
    """Run one trial with a counter patched onto each COUNTED site."""
    calls = Counter()

    def counter(name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for owner, name in COUNTED:
        monkeypatch.setattr(owner, name, counter(name, getattr(owner, name)))
    mse = hisparse.simulate.run_trial(config, condition, Np, 0)
    monkeypatch.undo()
    assert math.isfinite(mse)
    return calls


def test_trials_reach_the_layers_the_benchmark_counts(monkeypatch):
    # A solver loop that routes A x or A^H r around the operator's methods, or
    # selects without hi_threshold, would leave a counter at 0 here.
    ongrid = ExperimentConfig(scenario="mismatched-L", system=SystemConfig(N=64, M=16, D=16, U=4),
                              channel=ChannelConfig(L=3, V=2), sweep=[12], Np=12, trials=1, seed=3)
    calls = counted_trial(monkeypatch, ongrid,
                          Condition(label="HiIHT", algorithm="HiIHT", option="FS", V=2, L=3), 12)
    assert min(calls[name] for name in ("forward", "adjoint_values", "hi_threshold")) >= 1
    assert calls["solve_normal"] == calls["lstsq"] == 0  # HiIHT keeps x_temp on the support, it never refits

    # Off-grid HiHTP refits through solve_normal. With every antenna observed
    # (Mp = M) its well-conditioned angle blocks never fall back to lstsq;
    # with Mp < M every refit is one lstsq of the restricted Gram.
    hihtp = Condition(label="HiHTP", algorithm="HiHTP", option="FS", V=1, L=3, L1=1, L2=1)
    for Mp in (16, 8):
        offgrid = ExperimentConfig(scenario="offgrid-sweep", system=SystemConfig(N=64, M=16, D=16, U=1),
                                   channel=ChannelConfig(L=3, V=1), sweep=[32], Mp=Mp, trials=1, seed=3)
        calls = counted_trial(monkeypatch, offgrid, hihtp, 32)
        assert min(calls[name] for name in ("forward", "adjoint_values", "hi_threshold", "solve_normal")) >= 1
        if Mp == 16:
            assert calls["lstsq"] == 0
        else:
            assert calls["lstsq"] == calls["solve_normal"]


def test_a_cycling_pursuit_solve_reports_its_full_pass_count(monkeypatch):
    # The tracer's recovery.iterations.mean and max_iters_frac compare
    # result.iterations with cfg.max_iters. A HiHTP solve whose supports fall
    # into a cycle stops early, yet reports the pass count of the full run.
    rng = np.random.default_rng(1)
    op = hisparse.operators.KroneckerSensingOperator(
        hisparse.simulate.make_design(32, 8, 8, 2, 12, 6, seed=1), "FS")
    y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
    cfg = hisparse.recovery.RecoveryConfig(algorithm="HiHTP", profile=SparsityProfile((3, 1, 2)))
    calls = Counter()
    select = hisparse.recovery.hi_threshold

    def counted(*args):
        calls["hi_threshold"] += 1
        return select(*args)

    monkeypatch.setattr(hisparse.recovery, "hi_threshold", counted)
    result = hisparse.simulate.solve(y, op, cfg)
    assert calls["hi_threshold"] < cfg.max_iters
    assert result.iterations == cfg.max_iters


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_workloads():
    """perfbench/workloads.py, loaded once from its file; sys.path is not touched."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("workload", ["paper-hiiht", "small-offgrid-sweep", "hirip-enum"])
def test_seed_zero_quality_matches_the_benchmark_reference(workload, tmp_path):
    # Every benchmark run at seed 0 compares the mean quality figure of its
    # check requests with perfbench/reference.json at rtol 1e-9; the same
    # check, in-process, so a figure that drifts fails here first.
    reference = json.loads((PERFBENCH / "reference.json").read_text())[workload]
    runner = _perfbench_workloads().make_workload(workload, 0, "full", tmp_path)
    k = runner.check_requests
    value = math.fsum(runner.run(i).value for i in range(k)) / k
    assert math.isclose(value, reference, rel_tol=1e-9, abs_tol=0.0), (value, reference)


def test_sweep_trials_reach_both_pool_threads(monkeypatch, tmp_path):
    # perfbench fails small-offgrid-sweep unless its run_trial spans run on two
    # threads. Trial row t of a sweep point runs on lane t % threads, so the
    # workload's two trials at --threads 2 put row 0 on the calling thread and
    # row 1 on one lane thread, and run_trial stays the one call per
    # (condition, trial). Each call waits for a call of the other row: both
    # rows must be in flight at once, so a run_sweep that ran them one after
    # the other on one thread, or did not run them concurrently, breaks the
    # barrier.
    runner = _perfbench_workloads().make_workload("small-offgrid-sweep", 0, "full", tmp_path)
    config = ExperimentConfig.from_json(runner.config_text(0), "small")
    threads = Counter()
    trial = hisparse.simulate.run_trial
    both_rows = threading.Barrier(2, timeout=30)

    def traced(*args, **kwargs):
        threads[threading.get_ident()] += 1
        both_rows.wait()
        return trial(*args, **kwargs)

    monkeypatch.setattr(hisparse.simulate, "run_trial", traced)
    hisparse.simulate.run_sweep(config, threads=runner.threads)
    assert runner.threads == config.trials == 2
    assert len(threads) == 2
    assert sum(threads.values()) == runner.curves * config.trials
