"""Configuration-driven Monte-Carlo channel-estimation experiments.

A run is described by one JSON document: system sizes, channel statistics,
a sweep axis (pilot counts, or assumed path counts for the mismatch
scenario), SNR, trial count, and a master seed. Trial t of any condition
draws its randomness from SeedSequence([master_seed, t]), so aggregate
results are independent of execution order and the whole CSV is
reproducible from the run manifest.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict, field, replace
import csv
import json
import math
import time
from pathlib import Path

import numpy as np

from . import __version__
from .blocks import SparsityProfile
from .channel import (
    ChannelParams,
    ChannelRealization,
    delay_angular_matrix,
    gen_offgrid,
    gen_ongrid,
    superpose_transfer,
    transfer_from_delay_angular,
)
from .design import make_design, signature
from .operators import (
    KroneckerSensingOperator,
    VectorizationOption,
    as_option,
    unvectorize,
    vectorize,
)
from .recovery import RecoveryConfig, solve

PRESETS = {
    "small": {"N": 128, "M": 64, "D": 32},
    "paper": {"N": 1024, "M": 256, "D": 256},
}

SCENARIOS = (
    "single-user-sweep",
    "multiuser-sweep",
    "sf-vs-fs",
    "mismatched-L",
    "omp-compare",
    "offgrid-sweep",
)

CSV_HEADER = ("sweep_value", "algorithm", "mse_mean", "mse_stderr", "trials", "seconds")


@dataclass
class SystemConfig:
    N: int = 128
    M: int = 64
    D: int = 32
    U: int = 1
    alpha: float = 0.25


@dataclass
class ChannelConfig:
    L: int = 3
    V: int = 1
    K_V: int = 1
    K_L: int = 1


@dataclass
class ExperimentConfig:
    scenario: str
    system: SystemConfig = field(default_factory=SystemConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    sweep: list = field(default_factory=list)
    snr_db: float = 10.0
    trials: int = 100
    seed: int = 0
    option: str = "FS"
    algorithms: list | None = None
    Np: int | None = None
    Mp: int | None = None
    l_values: list | None = None
    v_values: list | None = None
    l1_values: list | None = None
    l2_values: list | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.sweep:
            raise ValueError("sweep axis must be non-empty")
        if self.scenario == "mismatched-L" and self.Np is None:
            raise ValueError("mismatched-L needs a fixed pilot count Np")
        if self.scenario == "omp-compare" and self.Mp is None:
            self.Mp = max(1, self.system.M // 4)
        self._validate()

    def _validate(self) -> None:
        """Reject a sweep the system cannot run, before any trial starts."""
        as_option(self.option)  # ValueError unless FS or SF
        N, M, D, U = self.system.N, self.system.M, self.system.D, self.system.U
        if U * D > N:
            raise ValueError(f"U*D = {U * D} exceeds N = {N}")
        pilots = [self.Np] if self.scenario == "mismatched-L" else self.sweep
        for Np in pilots:
            if not 1 <= int(Np) <= N:
                raise ValueError(f"pilot count Np = {Np} outside [1, N = {N}]")
        if self.Mp is not None and not 1 <= self.Mp <= M:
            raise ValueError(f"antenna count Mp = {self.Mp} outside [1, M = {M}]")
        for cond in _conditions(self):
            if not 1 <= cond.V <= U:
                raise ValueError(f"{cond.label}: active UEs V = {cond.V} outside [1, U = {U}]")
        if self.scenario == "offgrid-sweep" and self.system.alpha * N > D:
            raise ValueError(
                f"off-grid delays span alpha*N = {self.system.alpha * N:g} taps, more than D = {D}"
            )

    def to_json(self) -> str:
        doc = asdict(self)
        return json.dumps(doc, sort_keys=True, indent=2)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        doc["system"] = SystemConfig(**doc.get("system", {}))
        doc["channel"] = ChannelConfig(**doc.get("channel", {}))
        return cls(**doc)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_json_dict(json.loads(text))

    def apply_preset(self, name: str) -> None:
        preset = PRESETS[name]
        self.system.N = preset["N"]
        self.system.M = preset["M"]
        self.system.D = preset["D"]
        self._validate()


@dataclass
class MseRecord:
    sweep_value: float
    algorithm: str
    mse_mean: float
    mse_stderr: float
    trials: int
    seconds: float


def recovery_profile(option, V, L, K_V, K_L, on_grid=True, L1=None, L2=None) -> SparsityProfile:
    """Hierarchical profile of the unknown for the given vectorization.

    Off-grid recovery inflates the path budget by the per-path leakage
    footprint (2*L1+1 delay taps by 2*L2+1 angle bins).
    """
    fs = as_option(option) is VectorizationOption.FS
    if on_grid:
        if fs:
            return SparsityProfile((V * L, K_V, K_L))
        return SparsityProfile((V, L, K_L))
    if L1 is None or L2 is None:
        raise ValueError("off-grid recovery needs L1 and L2")
    if fs:
        return SparsityProfile((V * L * (2 * L2 + 1), K_V, K_L * (2 * L1 + 1)))
    return SparsityProfile((V, L * (2 * L1 + 1), K_L * (2 * L2 + 1)))


def stack_delay_angular(realization: ChannelRealization, option: str) -> np.ndarray:
    """True unknown vector (on-grid) under the option's vectorization."""
    p = realization.params
    Xbar = np.zeros((p.U * p.D, p.M), dtype=np.complex128)
    for u, paths in enumerate(realization.paths):
        if paths:
            Xbar[u * p.D : (u + 1) * p.D] = delay_angular_matrix(paths, p.N, p.M, p.D)
    return vectorize(Xbar, option)


def split_estimate(x_hat: np.ndarray, option: str, U: int, D: int, M: int) -> list[np.ndarray]:
    """Per-UE D x M delay-angular estimates from a solver output vector."""
    Xbar = unvectorize(x_hat, option, U * D, M)
    return [Xbar[u * D : (u + 1) * D] for u in range(U)]


def _noise(rng, Np, Mp, snr_linear) -> np.ndarray:
    scale = math.sqrt(1.0 / (2.0 * snr_linear))
    return scale * (rng.standard_normal((Np, Mp)) + 1j * rng.standard_normal((Np, Mp)))


def observed_matrix(realization, design, rng, snr_db, transfers=None) -> np.ndarray:
    """Normalized pilot observation assembled from per-UE transfer matrices."""
    snr_linear = 10.0 ** (snr_db / 10.0)
    if transfers is None:
        transfers = [
            superpose_transfer(paths, design.N, design.M) if paths else None
            for paths in realization.paths
        ]
    Y = np.zeros((design.Np, design.Mp), dtype=np.complex128)
    for u, H in enumerate(transfers):
        if H is None:
            continue
        Y += signature(design, u)[:, None] * H[np.ix_(design.subcarriers, design.antennas)]
    Y += _noise(rng, design.Np, design.Mp, snr_linear)
    return Y / math.sqrt(design.Np * design.Mp)


@dataclass(frozen=True)
class Condition:
    """One curve of a sweep: channel statistics plus a solver setup."""

    label: str
    algorithm: str
    option: str = "FS"
    V: int = 1
    L: int = 3
    lhat: int | None = None      # assumed path count; None means L
    on_grid: bool = True
    L1: int | None = None
    L2: int | None = None


def run_trial(config: ExperimentConfig, condition: Condition, Np: int, trial_index: int) -> float:
    """Per-element channel MSE of one seeded Monte-Carlo trial."""
    sys_cfg, chan = config.system, config.channel
    Mp = config.Mp if config.Mp is not None else sys_cfg.M
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, trial_index]))
    params = ChannelParams(
        N=sys_cfg.N, M=sys_cfg.M, D=sys_cfg.D, U=sys_cfg.U,
        V=condition.V, L=condition.L, K_V=chan.K_V, K_L=chan.K_L,
        alpha=sys_cfg.alpha,
    )
    if condition.on_grid:
        realization = gen_ongrid(params, rng, condition.option)
    else:
        realization = gen_offgrid(params, rng)
    design = make_design(
        sys_cfg.N, sys_cfg.M, sys_cfg.D, sys_cfg.U, Np, Mp,
        seed=int(rng.integers(2**63)),
    )
    op = KroneckerSensingOperator(design, condition.option)

    lhat = condition.lhat if condition.lhat is not None else condition.L
    profile = recovery_profile(
        condition.option, condition.V, lhat, chan.K_V, chan.K_L,
        on_grid=condition.on_grid, L1=condition.L1, L2=condition.L2,
    ).clip(op.shape_in)
    cfg = RecoveryConfig(algorithm=condition.algorithm, profile=profile)

    snr_linear = 10.0 ** (config.snr_db / 10.0)
    if condition.on_grid:
        x_true = stack_delay_angular(realization, condition.option)
        z = _noise(rng, design.Np, design.Mp, snr_linear) / math.sqrt(design.Np * design.Mp)
        y = op.forward(x_true) + vectorize(z, condition.option)
        result = solve(y, op, cfg)
        # Parseval: per-element MSE over all UEs equals the squared distance
        # of the stacked delay-angular vectors.
        return float(np.linalg.norm(result.x_hat.values - x_true) ** 2)

    transfers = [
        superpose_transfer(paths, sys_cfg.N, sys_cfg.M) if paths else None
        for paths in realization.paths
    ]
    Y = observed_matrix(realization, design, rng, config.snr_db, transfers=transfers)
    y = vectorize(Y, condition.option)
    result = solve(y, op, cfg)
    estimates = split_estimate(result.x_hat.values, condition.option, sys_cfg.U, sys_cfg.D, sys_cfg.M)
    err = 0.0
    for u in range(sys_cfg.U):
        H_hat = transfer_from_delay_angular(estimates[u], sys_cfg.N, sys_cfg.M)
        H_true = transfers[u] if transfers[u] is not None else 0.0
        err += float(np.linalg.norm(H_hat - H_true) ** 2)
    return err / (sys_cfg.N * sys_cfg.M)


def naive_mse_trial(system: SystemConfig, L: int, snr_db: float, trial_index: int, seed: int = 0) -> float:
    """Per-element MSE of the raw full-sampling observation used as estimate."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, trial_index]))
    params = ChannelParams(N=system.N, M=system.M, D=system.D, U=1, V=1, L=L, alpha=system.alpha)
    realization = gen_ongrid(params, rng, "FS")
    H = superpose_transfer(realization.paths[0], system.N, system.M)
    snr_linear = 10.0 ** (snr_db / 10.0)
    Y = H + _noise(rng, system.N, system.M, snr_linear)
    return float(np.linalg.norm(Y - H) ** 2) / (system.N * system.M)


def _conditions(config: ExperimentConfig) -> list[Condition]:
    chan = config.channel
    scenario = config.scenario
    if scenario == "single-user-sweep":
        algorithms = config.algorithms or ["HiIHT", "IHT"]
        l_values = config.l_values or [chan.L]
        return [
            Condition(
                label=f"{alg}:L={L}" if len(l_values) > 1 else alg,
                algorithm=alg, option=config.option, V=chan.V, L=L,
            )
            for alg in algorithms
            for L in l_values
        ]
    if scenario == "multiuser-sweep":
        algorithms = config.algorithms or ["HiIHT"]
        v_values = config.v_values or [1, 2, 4]
        return [
            Condition(label=f"{alg}:V={v}", algorithm=alg, option=config.option, V=v, L=chan.L)
            for alg in algorithms
            for v in v_values
        ]
    if scenario == "sf-vs-fs":
        algorithms = config.algorithms or ["HiIHT"]
        v_values = config.v_values or [1, 4]
        return [
            Condition(label=f"{alg}-{opt}:V={v}", algorithm=alg, option=opt, V=v, L=chan.L)
            for alg in algorithms
            for opt in ("FS", "SF")
            for v in v_values
        ]
    if scenario == "mismatched-L":
        algorithms = config.algorithms or ["HiIHT"]
        return [
            Condition(label=alg, algorithm=alg, option=config.option, V=chan.V, L=chan.L)
            for alg in algorithms
        ]
    if scenario == "omp-compare":
        algorithms = config.algorithms or ["HiHTP", "HiIHT", "OMP"]
        return [
            Condition(label=alg, algorithm=alg, option=config.option, V=chan.V, L=chan.L)
            for alg in algorithms
        ]
    # offgrid-sweep
    algorithms = config.algorithms or ["HiIHT"]
    l1s = config.l1_values or [1, 2, 4]
    l2s = config.l2_values or [1, 2, 4]
    return [
        Condition(
            label=f"{alg}:L1={l1},L2={l2}", algorithm=alg, option=config.option,
            V=chan.V, L=chan.L, on_grid=False, L1=l1, L2=l2,
        )
        for alg in algorithms
        for l1 in l1s
        for l2 in l2s
    ]


def _run_batch(config, condition, Np, lhat, threads) -> tuple[float, float, float]:
    cond = condition if lhat is None else replace(condition, lhat=lhat)
    start = time.perf_counter()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            values = list(pool.map(
                lambda t: run_trial(config, cond, Np, t), range(config.trials)
            ))
    else:
        values = [run_trial(config, cond, Np, t) for t in range(config.trials)]
    seconds = time.perf_counter() - start
    values = np.asarray(values)
    stderr = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return float(values.mean()), stderr, seconds


def run_sweep(config: ExperimentConfig, out_dir=None, threads: int = 1):
    """Run all sweep points and conditions; optionally write CSV + manifest.

    Returns (records, csv_path, manifest_path); the paths are None when no
    output directory is given.
    """
    conditions = _conditions(config)
    records: list[MseRecord] = []
    for sweep_value in config.sweep:
        if config.scenario == "mismatched-L":
            Np, lhat = int(config.Np), int(sweep_value)
        else:
            Np, lhat = int(sweep_value), None
        for cond in conditions:
            mean, stderr, seconds = _run_batch(config, cond, Np, lhat, threads)
            records.append(MseRecord(float(sweep_value), cond.label, mean, stderr,
                                     config.trials, seconds))
        if config.scenario == "offgrid-sweep":
            here = [r for r in records if r.sweep_value == float(sweep_value)]
            by_alg: dict[str, MseRecord] = {}
            for r in here:
                alg = r.algorithm.split(":")[0]
                if alg not in by_alg or r.mse_mean < by_alg[alg].mse_mean:
                    by_alg[alg] = r
            for alg, best in by_alg.items():
                records.append(MseRecord(best.sweep_value, f"{alg}:best(L1,L2)",
                                         best.mse_mean, best.mse_stderr,
                                         best.trials, 0.0))
    csv_path = manifest_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "results.csv"
        manifest_path = out_dir / "manifest.json"
        write_csv(records, csv_path)
        manifest_path.write_text(run_manifest(config, csv_path.name))
    return records, csv_path, manifest_path


def write_csv(records, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([
                repr(r.sweep_value), r.algorithm, repr(r.mse_mean),
                repr(r.mse_stderr), r.trials, f"{r.seconds:.3f}",
            ])


def read_csv(path) -> list[MseRecord]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None and tuple(header) != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        return [
            MseRecord(float(row[0]), row[1], float(row[2]), float(row[3]),
                      int(row[4]), float(row[5]))
            for row in reader
        ]


def run_manifest(config: ExperimentConfig, csv_name: str) -> str:
    doc = {
        "package": "hisparse",
        "version": __version__,
        "config": json.loads(config.to_json()),
        "trial_seed_rule": "default_rng(SeedSequence([seed, trial_index]))",
        "csv": csv_name,
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def emit_plot_data(csv_path, out_dir=None) -> list[Path]:
    """One gnuplot-ready data file per curve plus a log-log script stub."""
    csv_path = Path(csv_path)
    out_dir = Path(out_dir) if out_dir is not None else csv_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    records = read_csv(csv_path)
    curves: dict[str, list[MseRecord]] = {}
    for r in records:
        curves.setdefault(r.algorithm, []).append(r)
    written: list[Path] = []
    stem = csv_path.stem
    for name, rows in curves.items():
        safe = "".join(ch if ch.isalnum() or ch in "=+-." else "_" for ch in name)
        path = out_dir / f"{stem}_{safe}.dat"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# curve: {name}\n# sweep_value mse_mean mse_stderr\n")
            for r in sorted(rows, key=lambda r: r.sweep_value):
                fh.write(f"{r.sweep_value!r} {r.mse_mean!r} {r.mse_stderr!r}\n")
        written.append(path)
    script = out_dir / f"{stem}.gp"
    with open(script, "w", encoding="utf-8") as fh:
        fh.write("set logscale xy\nset xlabel 'sweep value'\nset ylabel 'MSE'\n")
        if written:
            parts = ", ".join(
                f"'{p.name}' using 1:2 with linespoints title '{name}'"
                for p, name in zip(written, curves)
            )
            fh.write(f"plot {parts}\n")
    written.append(script)
    if not curves:
        import sys
        print(f"warning: no curves found in {csv_path}", file=sys.stderr)
    return written
