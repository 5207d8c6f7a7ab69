"""The names the benchmark harness under perfbench/ patches, wraps or calls.

The harness finds these by name at run time, so deleting or renaming one
breaks the benchmark without failing any other test here.
"""

import inspect
import math

import numpy as np
import pytest

import hisparse.cli
import hisparse.operators
import hisparse.recovery
import hisparse.ripcheck
import hisparse.simulate
from hisparse.blocks import SparsityProfile
from hisparse.simulate import Condition, ExperimentConfig, SystemConfig

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
