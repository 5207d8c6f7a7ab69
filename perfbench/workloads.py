"""The benchmark's workloads: seeded request streams over hisparse's public API.

A workload turns (seed, request index) into one request and runs it. Request
``i`` of seed ``s`` is always the same input, so the first ``check_requests``
requests form a fixed set whose quality figure (mean MSE, or mean hierarchical
isometry constant for ``hirip-enum``) is compared with ``reference.json``.

Scale ``full`` is what the benchmark measures; scale ``tiny`` runs the same code
paths at toy sizes for the smoke test.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
import io
import json
import math
from pathlib import Path
import tempfile

import numpy as np

import hisparse.cli
import hisparse.ripcheck
import hisparse.simulate
from hisparse.blocks import BlockShape, SparsityProfile
from hisparse.simulate import (
    CSV_HEADER,
    ChannelConfig,
    Condition,
    ExperimentConfig,
    SystemConfig,
    read_csv,
)


class CheckError(Exception):
    """A request returned output that is wrong, not merely slow."""


@dataclass
class Outcome:
    """What one request did: its quality value, work units and failed operations."""

    value: float
    work: int
    failed: int


def _seed_of(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class PaperHiIHT:
    """Closed loop, one client: seeded HiIHT trials at paper size.

    The criterion-7 shape (U = 4, V = 2, L = 3, Np = 15, Mp = M, FS), one trial
    index per request. HiIHT stops after two iterations here, so every request
    does the same work.
    """

    pool_threads = 1
    quality = "mse_mean"
    attempts = 1

    def __init__(self, seed: int, scale: str):
        if scale == "full":
            system = SystemConfig(N=1024, M=256, D=256, U=4)
            self.check_requests = 8
        else:
            system = SystemConfig(N=128, M=64, D=32, U=4)
            self.check_requests = 2
        self.Np = 15
        self.config = ExperimentConfig(
            scenario="mismatched-L", system=system, channel=ChannelConfig(L=3, V=2),
            sweep=[self.Np], Np=self.Np, trials=1, seed=seed,
        )
        self.condition = Condition(label="HiIHT", algorithm="HiIHT", option="FS", V=2, L=3)

    def run(self, index: int) -> Outcome:
        mse = hisparse.simulate.run_trial(self.config, self.condition, self.Np, index)
        return Outcome(float(mse), 1, 0 if math.isfinite(mse) else 1)


class OffgridSweep:
    """Each request is one in-process ``hisparse run`` of a small off-grid sweep.

    Three algorithms (HiIHT, HiHTP, IHT) at L1 in {1, 2}, L2 = 2, Np = 64 and
    two trials per curve, run on the program's own pool with two threads.
    """

    pool_threads = 2
    quality = "mse_mean"

    def __init__(self, seed: int, scale: str, out_root: Path, threads: int = 2):
        self.seed = seed
        self.threads = threads
        self.out_root = out_root
        self.check_requests = 3 if scale == "full" else 1
        self.l1_values = [1, 2] if scale == "full" else [1]
        self.trials = 2
        self.curves = 3 * len(self.l1_values)
        self.attempts = self.trials * self.curves

    def config_text(self, index: int) -> str:
        return json.dumps({
            "scenario": "offgrid-sweep",
            "system": {"U": 1},
            "channel": {"L": 3, "V": 1},
            "sweep": [64],
            "trials": self.trials,
            "seed": _seed_of(self.seed, index),
            "algorithms": ["HiIHT", "HiHTP", "IHT"],
            "l1_values": self.l1_values,
            "l2_values": [2],
        })

    def run(self, index: int) -> Outcome:
        text = self.config_text(index)
        expected = ExperimentConfig.from_json(text)
        expected.apply_preset("small")
        with tempfile.TemporaryDirectory(dir=self.out_root) as tmp:
            cfg_path = Path(tmp) / "config.json"
            cfg_path.write_text(text)
            out = Path(tmp) / "out"
            with contextlib.redirect_stdout(io.StringIO()):
                code = hisparse.cli.main(["run", "--config", str(cfg_path), "--preset", "small",
                                          "--threads", str(self.threads), "--out", str(out)])
            if code != 0:
                raise CheckError(f"hisparse run exited {code}")
            with open(out / "results.csv", encoding="utf-8") as fh:
                header = tuple(fh.readline().strip().split(","))
            if header != CSV_HEADER:
                raise CheckError(f"results.csv header {header} != {CSV_HEADER}")
            records = read_csv(out / "results.csv")
            manifest = json.loads((out / "manifest.json").read_text())
        if len(records) != self.curves + 3:
            raise CheckError(f"{len(records)} CSV rows, expected {self.curves + 3}")
        if manifest["config"] != json.loads(expected.to_json()):
            raise CheckError("manifest.json does not echo the run config")
        per_curve = [r.mse_mean for r in records if "best(" not in r.algorithm]
        failed = self.trials * sum(1 for m in per_curve if not math.isfinite(m))
        return Outcome(float(np.mean(per_curve)), self.attempts, failed)


# Block layouts and profiles drawn like the first block of the hirip property
# suite (three levels of 2-3 blocks); fixed here so every request costs the
# same and only the matrices depend on the seed.
HIRIP_LADDER = (
    ((2, 3, 3), (2, 2, 1)),
    ((3, 3, 2), (3, 1, 1)),
    ((3, 2, 2), (2, 1, 2)),
    ((2, 2, 3), (1, 2, 2)),
)


class HiripEnum:
    """Each request computes exact hierarchical and flat isometry constants
    of one seeded random matrix per ladder layout; no solver runs."""

    pool_threads = 1
    quality = "delta_hi_mean"

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.ladder = HIRIP_LADDER if scale == "full" else HIRIP_LADDER[2:]
        self.check_requests = 4 if scale == "full" else 1
        self.attempts = len(self.ladder)

    def run(self, index: int) -> Outcome:
        rng = np.random.default_rng([self.seed, index])
        deltas = []
        supports = 0
        for dims, s in self.ladder:
            shape = BlockShape(dims)
            profile = SparsityProfile(s)
            rows = int(rng.integers(4, 10))
            A = rng.standard_normal((rows, shape.total)) + 1j * rng.standard_normal((rows, shape.total))
            A /= np.linalg.norm(A, axis=0)
            k = min(profile.max_support, shape.total)
            hi = hisparse.ripcheck.hirip_constant(A, shape, profile)
            flat = hisparse.ripcheck.rip_constant(A, k)
            if not hi.delta <= flat.delta + 1e-12:
                raise CheckError(f"{dims} {s}: hierarchical delta {hi.delta} > flat {flat.delta}")
            if hi.supports_checked != hisparse.ripcheck.count_hi_supports(dims, s):
                raise CheckError(f"{dims} {s}: {hi.supports_checked} hierarchical supports checked")
            if flat.supports_checked != math.comb(shape.total, k):
                raise CheckError(f"{dims} {s}: {flat.supports_checked} flat supports checked")
            deltas.append(hi.delta)
            supports += hi.supports_checked + flat.supports_checked
        return Outcome(float(np.mean(deltas)), supports, 0)


def make_workload(name: str, seed: int, scale: str, out_root: Path, threads: int = 2):
    if name == "paper-hiiht":
        return PaperHiIHT(seed, scale)
    if name == "small-offgrid-sweep":
        return OffgridSweep(seed, scale, out_root, threads)
    if name == "hirip-enum":
        return HiripEnum(seed, scale)
    raise ValueError(f"unknown workload {name!r}")
