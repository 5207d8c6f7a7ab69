"""Configuration-driven Monte-Carlo channel-estimation experiments.

A run is described by one JSON document: system sizes, channel statistics,
a sweep axis (pilot counts, or assumed path counts for the mismatch
scenario), SNR, trial count, and a master seed. Trial t of any condition
draws its randomness from SeedSequence([master_seed, t]), so aggregate
results are independent of execution order and the whole CSV is
reproducible from the run manifest.

Trial row t of each sweep point runs on lane t % threads, lane 0 being the
calling thread: the row calls ``run_trial`` for each condition in order, on
one dict of draws that the row owns. A draw (rng, channel paths, pilot
design, operator and observation) is keyed by (trial_index, Np, V, L,
option, on_grid), everything that can differ between two conditions of one
config, so conditions that read the same channel statistics solve the same
observation, drawn once per row, with one A^H y. A key that only one
condition reads is drawn by that condition's trial alone, whose solve forms
its A^H y as an independent trial does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, asdict, field, fields, replace
import csv
import itertools
import json
import math
import operator
import sys
import threading
import time
from pathlib import Path

import numpy as np

from . import __version__
from .blocks import SparsityProfile, _is_integer
from .channel import (
    DEFAULT_ALPHA,
    ChannelParams,
    _complex_normal,
    delay_angular_offgrid,
    gen_offgrid,
    gen_ongrid,
    grid_indices,
    ongrid_draw_can_fail,
    superpose_transfer,
    transfer_from_delay_angular,  # unused here; perfbench patches this name (channel.synth)
)
from .design import make_design, signature
from .operators import (
    KroneckerSensingOperator,
    VectorizationOption,
    as_option,
    flat_index,
    unknown_shape,
    vectorize,
)
from .recovery import FLAT_ALGORITHMS, HI_ALGORITHMS, LS_ALGORITHMS, RecoveryConfig, solve

PRESETS = {
    "small": {"N": 128, "M": 64, "D": 32},
    "paper": {"N": 1024, "M": 256, "D": 256},
}

# Per scenario: default algorithms, curve label, and the Condition fields its
# curves sweep as {field: (config list, default values)}. A None default
# sweeps the channel's own value; while that is one value, curves are
# labelled by algorithm alone.
_SCENARIO_TABLE = {
    "single-user-sweep": (["HiIHT", "IHT"], "{alg}:L={L}", {"L": ("l_values", None)}),
    "multiuser-sweep": (["HiIHT"], "{alg}:V={V}", {"V": ("v_values", [1, 2, 4])}),
    "sf-vs-fs": (["HiIHT"], "{alg}-{option}:V={V}",
                 {"option": (None, ["FS", "SF"]), "V": ("v_values", [1, 4])}),
    "mismatched-L": (["HiIHT"], "{alg}", {}),
    "omp-compare": (["HiHTP", "HiIHT", "OMP"], "{alg}", {}),
    "offgrid-sweep": (["HiIHT"], "{alg}:L1={L1},L2={L2}",
                      {"L1": ("l1_values", [1, 2, 4]), "L2": ("l2_values", [1, 2, 4])}),
}

# The list fields that some scenario's axes read, in table order.
_AXIS_KEYS = tuple(dict.fromkeys(key for _, _, axes in _SCENARIO_TABLE.values()
                                 for key, _ in axes.values() if key))


def _is_real(value) -> bool:
    return _is_integer(value) or isinstance(value, (float, np.floating))


@dataclass
class SystemConfig:
    N: int = 128
    M: int = 64
    D: int = 32
    U: int = 1
    alpha: float = DEFAULT_ALPHA


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
        if not isinstance(self.scenario, str) or self.scenario not in _SCENARIO_TABLE:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if not self.sweep:
            raise ValueError("sweep axis must be non-empty")
        if self.scenario == "mismatched-L" and self.Np is None:
            raise ValueError("mismatched-L needs a fixed pilot count Np")
        self._validate()

    def antenna_count(self) -> int:
        """Observed antennas Mp: the explicit value, else M // 4 for omp-compare, else M.

        Resolved from the current system, so it follows a ``--preset``.
        """
        if self.Mp is not None:
            return self.Mp
        if self.scenario == "omp-compare":
            return max(1, self.system.M // 4)
        return self.system.M

    def _sweep_point(self, sweep_value) -> tuple[int, int | None]:
        """(pilot count Np, assumed path count or None) of one sweep value."""
        if self.scenario == "mismatched-L":
            return self.Np, sweep_value
        return sweep_value, None

    def _validate(self) -> None:
        """Reject a sweep the system cannot run, before any trial starts."""
        for name in ("sweep", "algorithms") + _AXIS_KEYS:
            value = getattr(self, name)
            if value is not None and not isinstance(value, list):
                raise ValueError(f"{name} must be a list, got {value!r}")
            if value == []:
                raise ValueError(f"{name} must be a non-empty list when given")
            for i, item in enumerate(value or []):  # each names one curve's or one point's rows
                if item in value[:i]:
                    raise ValueError(f"{name} lists {item!r} twice")
        as_option(self.option)  # ValueError unless FS or SF
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        counts = [("trials", self.trials), ("Np", self.Np), ("Mp", self.Mp)]
        counts += [("sweep", v) for v in self.sweep]
        counts += [(key, v) for key in _AXIS_KEYS for v in getattr(self, key) or []]
        counts += [(f"system.{key}", v) for key, v in asdict(self.system).items() if key != "alpha"]
        counts += [(f"channel.{key}", v) for key, v in asdict(self.channel).items()]
        for name, value in counts:
            if value is not None and not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for name in ("K_V", "K_L"):  # an SF profile or draw never reads K_V
            if getattr(self.channel, name) < 1:
                raise ValueError(f"channel.{name} must be >= 1, got {getattr(self.channel, name)}")
        for name, value in (("snr_db", self.snr_db), ("system.alpha", self.system.alpha)):
            if not _is_real(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
        # A field the scenario does not read, or sweeps itself, must keep its
        # default; so must a channel field that an axis with values replaces.
        axes = _SCENARIO_TABLE[self.scenario][2]
        read = {key for key, _ in axes.values()}
        for name, default, unread in [(key, None, key not in read) for key in _AXIS_KEYS] + [
                ("Np", None, self.scenario != "mismatched-L"), ("option", "FS", "option" in axes),
                ("system.alpha", SystemConfig.alpha, "L1" not in axes)] + [
                (f"channel.{name}", getattr(ChannelConfig, name), bool(key and getattr(self, key) or grid))
                for name, (key, grid) in axes.items() if hasattr(ChannelConfig, name)]:
            value = operator.attrgetter(name)(self)
            if unread and value != default:
                raise ValueError(f"{self.scenario} does not read {name}, got {value!r}")
        if not (-300.0 <= self.snr_db <= 300.0 or self.snr_db == math.inf):
            raise ValueError(f"snr_db = {self.snr_db} outside [-300, 300] (Infinity: no noise)")
        N, M, D, U = self.system.N, self.system.M, self.system.D, self.system.U
        K_V, K_L = self.channel.K_V, self.channel.K_L
        if U * D > N:
            raise ValueError(f"U*D = {U * D} exceeds N = {N}")
        Mp = self.antenna_count()
        if not 1 <= Mp <= M:
            raise ValueError(f"antenna count Mp = {Mp} outside [1, M = {M}]")
        points = [self._sweep_point(v) for v in self.sweep]
        for Np, lhat in points:
            if not 1 <= Np <= N:
                raise ValueError(f"pilot count Np = {Np} outside [1, N = {N}]")
            if lhat is not None and lhat < 1:
                raise ValueError(f"assumed path count {lhat} in the sweep must be >= 1")
        if self.scenario == "offgrid-sweep" and not 0.0 <= self.system.alpha * N <= D:
            raise ValueError(
                f"off-grid delays span alpha*N = {self.system.alpha * N:g} taps, outside [0, D = {D}]"
            )
        for cond in _conditions(self):
            if cond.algorithm not in HI_ALGORITHMS + FLAT_ALGORITHMS:
                raise ValueError(f"{cond.label}: unknown algorithm {cond.algorithm!r}")
            if not 1 <= cond.V <= U:
                raise ValueError(f"{cond.label}: active UEs V = {cond.V} outside [1, U = {U}]")
            if not cond.on_grid:  # the leakage footprint sparse_approx models
                for name, level, size, n in (("l1_values", cond.L1, "N", N), ("l2_values", cond.L2, "M", M)):
                    if not 1 <= level <= (n - 1) // 2:
                        raise ValueError(f"{name}: truncation level {level} outside "
                                         f"[1, ({size} - 1) // 2 = {(n - 1) // 2}]")
            for Np, lhat in points:
                # Building the profile rejects a non-positive sparsity. A refit
                # support never exceeds the clipped profile's size (the flat
                # solvers select k = that size).
                at_point = cond if lhat is None else replace(cond, lhat=lhat)
                size = _profile(self, at_point).max_support
                if cond.algorithm in LS_ALGORITHMS and size > Np * Mp:
                    raise ValueError(
                        f"{cond.label}: least-squares support of up to {size} columns "
                        f"exceeds Np*Mp = {Np * Mp} at Np = {Np}"
                    )
            if not 1 <= cond.L <= D * M:
                raise ValueError(
                    f"{cond.label}: path count L = {cond.L} outside [1, D*M = {D * M}]"
                )
            if cond.on_grid and ongrid_draw_can_fail(M, D, cond.V, cond.L, K_V, K_L, cond.option):
                raise ValueError(
                    f"{cond.label}: the on-grid draw of L = {cond.L} paths can run out of grid "
                    f"points (M = {M}, D = {D}, V = {cond.V}, K_V = {K_V}, K_L = {K_L})"
                )

    def to_json(self) -> str:
        """The config as JSON; a numpy scalar the checks accepted is written as its value."""
        return json.dumps(asdict(self), sort_keys=True, indent=2, default=np.generic.item)

    @classmethod
    def from_json(cls, text: str, preset: str | None = None) -> "ExperimentConfig":
        """The config a JSON document describes, validated once at its final
        sizes: a named preset's sizes replace the document's before that."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"a config must be a JSON object, got {type(doc).__name__}")
        for name in ("system", "channel"):
            if not isinstance(doc.get(name, {}), dict):
                raise ValueError(f"{name} must be a JSON object, got {doc[name]!r}")
        sizes = PRESETS[preset] if preset is not None else {}
        doc["system"] = SystemConfig(**{**doc.get("system", {}), **sizes})
        doc["channel"] = ChannelConfig(**doc.get("channel", {}))
        return cls(**doc)

    def apply_preset(self, name: str) -> None:
        """Take the preset's sizes; a ValueError leaves this config as it was."""
        self.system = replace(self, system=replace(self.system, **PRESETS[name])).system


@dataclass
class MseRecord:
    sweep_value: float
    algorithm: str
    mse_mean: float
    mse_stderr: float
    trials: int
    seconds: float


CSV_HEADER = tuple(f.name for f in fields(MseRecord))


def recovery_profile(option, V, L, K_V, K_L, L1=None, L2=None) -> SparsityProfile:
    """Hierarchical profile of the unknown for the given vectorization.

    With no truncation levels the channel is on-grid. Off-grid recovery (L1
    and L2 both given) inflates the path budget by the per-path leakage
    footprint (2*L1+1 delay taps by 2*L2+1 angle bins).
    """
    fs = as_option(option) is VectorizationOption.FS
    if L1 is None and L2 is None:
        if fs:
            return SparsityProfile((V * L, K_V, K_L))
        return SparsityProfile((V, L, K_L))
    if L1 is None or L2 is None:
        raise ValueError("off-grid recovery needs L1 and L2")
    if fs:
        return SparsityProfile((V * L * (2 * L2 + 1), K_V, K_L * (2 * L1 + 1)))
    return SparsityProfile((V, L * (2 * L1 + 1), K_L * (2 * L2 + 1)))


def sparse_delay_angular(paths, N: int, M: int, D: int, option: str) -> tuple[np.ndarray, np.ndarray]:
    """Nonzeros of the stacked on-grid (U*D x M) delay-angular unknown.

    ``paths`` holds one path list per UE, so U = len(paths). Returns (sorted
    flat indices, gains) in the option's layout; paths that share a grid
    point are summed in path order. An off-grid path is refused by
    ``grid_indices``, a delay tap at or beyond D here.
    """
    rows, cols, gains = [], [], []
    for u, ue_paths in enumerate(paths):
        for path in ue_paths:
            k, l = grid_indices(path, N, M)
            if k >= D:
                raise ValueError(f"delay tap {k} outside [0, {D})")
            rows.append(u * D + k)
            cols.append(l)
            gains.append(path.gain)
    flat = flat_index(option, rows, cols, len(paths) * D, M)
    idx, inverse = np.unique(flat, return_inverse=True)
    values = np.zeros(idx.size, dtype=np.complex128)
    np.add.at(values, inverse, np.array(gains, dtype=np.complex128))
    return idx, values


def observed_matrix(H, design, rng, snr_db) -> np.ndarray:
    """Normalized pilot observation from the (U, N, M) stack of transfer matrices.

    An inactive UE's slice is all zeros and adds nothing.
    """
    Y = np.zeros((design.Np, design.Mp), dtype=np.complex128)
    for u, H_u in enumerate(H):
        Y += signature(design, u)[:, None] * H_u[np.ix_(design.subcarriers, design.antennas)]
    Y += _complex_normal(rng, (design.Np, design.Mp), 1.0 / 10.0 ** (snr_db / 10.0))
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
    L1: int | None = None        # off-grid truncation levels; None for an on-grid channel
    L2: int | None = None

    @property
    def on_grid(self) -> bool:
        return self.L1 is None


def _profile(config: ExperimentConfig, condition: Condition) -> SparsityProfile:
    """The condition's recovery profile, clipped to the unknown's layout."""
    sys_cfg, chan = config.system, config.channel
    lhat = condition.lhat if condition.lhat is not None else condition.L
    profile = recovery_profile(
        condition.option, condition.V, lhat, chan.K_V, chan.K_L,
        L1=condition.L1, L2=condition.L2,
    )
    return profile.clip(unknown_shape(condition.option, sys_cfg.M, sys_cfg.U, sys_cfg.D))


def run_trial(config: ExperimentConfig, condition: Condition, Np: int, trial_index: int,
              draws: dict | None = None) -> float:
    """Per-element channel MSE of one seeded Monte-Carlo trial.

    The trial's draw is its rng, channel paths, pilot design, operator and
    observation (and the truth it is scored against). The score is taken in
    the delay-angular domain, which by Parseval equals the per-element
    transfer-domain error; no estimate is synthesized. Within one config it
    depends on the condition only through the key (trial_index, Np, V, L,
    option, on_grid); the assumed path count, L1, L2 and the algorithm enter
    only the solve and the score. ``draws``, when given, is a dict its caller
    owns for conditions that share draws: the draw is made the first time its
    key is seen, stored there with its A^H y (``op.adjoint_values(y)``), and
    reused after that; every solve on the draw reads that A^H y rather than
    forming its own. Without ``draws`` the solve forms A^H y itself, in its
    work buffer. The measurement, the truth and the shared A^H y are
    read-only arrays, and neither the solve nor the score writes the
    operator, so a reused draw returns the float a fresh call returns, in
    every bit.
    """
    key = _draw_key(condition, Np, trial_index)
    if draws is None or key not in draws:
        op, y, truth = _draw(config, condition, Np, trial_index)
        aty = None
        if draws is not None:
            aty = op.adjoint_values(y)
            aty.flags.writeable = False
            draws[key] = op, y, truth, aty
    else:
        op, y, truth, aty = draws[key]
    cfg = RecoveryConfig(algorithm=condition.algorithm, profile=_profile(config, condition))
    result = solve(y, op, cfg, aty=aty)
    # Parseval: per-element MSE over all UEs equals the squared distance of
    # the stacked delay-angular vectors, plus (off-grid) the true energy
    # beyond the D delay rows that the estimate spans.
    if not condition.on_grid:
        g, tail = truth
        return float(np.linalg.norm(result.x_hat - g) ** 2 + tail)
    idx, gains = truth
    # On-grid both vectors vanish off the union of the estimate's support
    # and the true one, so only that union is summed.
    union = np.union1d(result.support, idx)
    err = result.x_hat[union]
    err[np.searchsorted(union, idx)] -= gains
    return float(np.linalg.norm(err) ** 2)


def _draw_key(condition: Condition, Np: int, trial_index: int) -> tuple:
    """What a trial's draw depends on within one config."""
    return trial_index, Np, condition.V, condition.L, condition.option, condition.on_grid


def _draw(config: ExperimentConfig, condition: Condition, Np: int, trial_index: int):
    """(operator, measurement y, truth) of trial ``trial_index``, from SeedSequence([seed, t]).

    The truth is the on-grid (flat indices, gains) of the unknown or the
    off-grid (g, tail): g is the first D delay rows of every UE's
    delay-angular channel (``delay_angular_offgrid``), in the unknown's
    layout, and tail the 0-d energy of the rows beyond D. The (U, N, M)
    transfer stack that y observes is not kept. The truth's arrays and y are
    read-only.
    """
    sys_cfg, chan = config.system, config.channel
    N, M, D, U = sys_cfg.N, sys_cfg.M, sys_cfg.D, sys_cfg.U
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, trial_index]))
    params = ChannelParams(
        N=N, M=M, D=D, U=U, V=condition.V, L=condition.L, K_V=chan.K_V, K_L=chan.K_L,
        alpha=sys_cfg.alpha,
    )
    if condition.on_grid:
        paths = gen_ongrid(params, rng, condition.option)
    else:
        paths = gen_offgrid(params, rng)
    design = make_design(N, M, D, U, Np, config.antenna_count(), seed=int(rng.integers(2**63)))
    op = KroneckerSensingOperator(design, condition.option)
    if condition.on_grid:
        idx, gains = sparse_delay_angular(paths, N, M, D, condition.option)
        z = _complex_normal(rng, (design.Np, design.Mp), 1.0 / 10.0 ** (config.snr_db / 10.0))
        z /= math.sqrt(design.Np * design.Mp)
        y = op.forward(idx, gains) + vectorize(z, condition.option)
        truth = (idx, gains)
    else:
        H = np.stack([superpose_transfer(ue_paths, N, M) for ue_paths in paths])
        y = vectorize(observed_matrix(H, design, rng, config.snr_db), condition.option)
        G = delay_angular_offgrid(H)
        # A copy, so that no view of G lives on in the draw.
        g = vectorize(G[:, :D].reshape(U * D, M), condition.option).copy()
        truth = (g, np.asarray(np.linalg.norm(G[:, D:]) ** 2))
    for array in (y, *truth):
        array.flags.writeable = False
    return op, y, truth


def _conditions(config: ExperimentConfig) -> list[Condition]:
    """The sweep's curves: each algorithm at each point of the scenario's axes, in order."""
    algorithms, label, axes = _SCENARIO_TABLE[config.scenario]
    base = {"option": config.option, "V": config.channel.V, "L": config.channel.L}
    grids = [(key and getattr(config, key)) or default or [base[name]]
             for name, (key, default) in axes.items()]
    if any(default is None and len(grid) == 1 for (_, default), grid in zip(axes.values(), grids)):
        label = "{alg}"
    conditions = []
    for alg in config.algorithms or algorithms:
        for point in itertools.product(*grids):
            values = dict(base, **dict(zip(axes, point)))
            conditions.append(Condition(label=label.format(alg=alg, **values), algorithm=alg,
                                        **values))
    return conditions


def _trial_row(config: ExperimentConfig, conditions: list[Condition], Np: int,
               trial_index: int) -> list[tuple[float, float]]:
    """(MSE, seconds) of trial ``trial_index`` under each condition, in order.

    Conditions whose draw key more than one of them reads share one dict of
    draws, which lives only for this call; a shared draw's cost is charged
    to the first condition that makes it. A condition that reads its key
    alone runs as an independent trial, so no A^H y is kept for it.
    """
    keys = [_draw_key(cond, Np, trial_index) for cond in conditions]
    readers = Counter(keys)
    draws: dict = {}
    row = []
    for cond, key in zip(conditions, keys):
        start = time.perf_counter()
        mse = run_trial(config, cond, Np, trial_index, draws=draws if readers[key] > 1 else None)
        row.append((mse, time.perf_counter() - start))
    return row


def run_sweep(config: ExperimentConfig, out_dir=None, threads: int = 1):
    """Run all sweep points and conditions; optionally write CSV + manifest.

    Trial row t of every sweep point runs on lane ``t % threads``. Lane 0 is
    the calling thread; each other lane is one thread, started once per
    sweep, that takes the sweep points in order, so ``threads = 1`` starts
    none. A row calls ``run_trial`` for every condition in order, on one
    dict of the draws that more than one condition reads (``_trial_row``).
    Once every lane has ended, each point's records are built from its rows
    in trial order. A record's ``seconds`` is the summed wall time of its
    condition's ``run_trial`` calls. The first exception in any lane, the
    caller's included, stops every lane before its next row; it is raised
    once every lane thread has ended. A lane thread that cannot start
    raises ``Thread.start``'s RuntimeError this way. A ``threads`` that is not an integer
    >= 1 is refused before the output directory is made. Returns (records,
    csv_path, manifest_path); the paths are None when no output directory
    is given.
    """
    if not _is_integer(threads) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    conditions = _conditions(config)
    points = [(Np, [cond if lhat is None else replace(cond, lhat=lhat) for cond in conditions])
              for Np, lhat in map(config._sweep_point, config.sweep)]
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    rows = [[None] * config.trials for _ in points]  # rows[point][trial], as _trial_row returns it
    failures: list[BaseException] = []  # the first one stops every lane before its next row

    def run_lane(lane: int) -> None:
        """Fill the lane's rows of every point in order, until a lane fails."""
        try:
            for point_rows, (Np, at_point) in zip(rows, points):
                for t in range(lane, config.trials, threads):
                    if failures:
                        return
                    point_rows[t] = _trial_row(config, at_point, Np, t)
        except BaseException as exc:  # Ctrl-C on the caller stops the lanes too
            failures.append(exc)

    lanes = [threading.Thread(target=run_lane, args=(lane,), name=f"sweep-lane-{lane}")
             for lane in range(1, min(threads, config.trials))]
    try:
        for thread in lanes:
            thread.start()
        run_lane(0)
        for thread in lanes:
            thread.join()
    except BaseException as exc:  # a lane that would not start, or Ctrl-C while waiting
        failures.append(exc)
        for thread in filter(threading.Thread.is_alive, lanes):
            thread.join()
    if failures:
        raise failures[0]
    records: list[MseRecord] = []
    for sweep_value, point_rows in zip(config.sweep, rows):
        best: dict[str, MseRecord] = {}  # per algorithm, its first lowest-mean off-grid record
        for c, cond in enumerate(conditions):
            values = np.asarray([row[c][0] for row in point_rows])
            seconds = math.fsum(row[c][1] for row in point_rows)
            stderr = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
            record = MseRecord(float(sweep_value), cond.label, float(values.mean()), stderr,
                               config.trials, seconds)
            records.append(record)
            if not cond.on_grid and (cond.algorithm not in best
                                     or record.mse_mean < best[cond.algorithm].mse_mean):
                best[cond.algorithm] = record
        records += [replace(r, algorithm=f"{alg}:best(L1,L2)", seconds=0.0)
                    for alg, r in best.items()]
    csv_path = manifest_path = None
    if out_dir is not None:
        csv_path, manifest_path = out_dir / "results.csv", out_dir / "manifest.json"
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
        records = []
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"CSV line {reader.line_num} has {len(row)} fields, "
                                 f"expected {len(CSV_HEADER)}")
            records.append(MseRecord(float(row[0]), row[1], float(row[2]), float(row[3]),
                                     int(row[4]), float(row[5])))
        return records


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
    records = read_csv(csv_path)
    out_dir = Path(out_dir) if out_dir is not None else csv_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
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
        print(f"warning: no curves found in {csv_path}", file=sys.stderr)
    return written
