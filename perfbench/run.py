"""Run one hisparse benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper-hiiht --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from the checkout's
``src/``. ``--trace 0`` measures the end-to-end metrics with tracing off, in
three fresh processes run one after another, and times request latency in
units of a reference kernel run between requests; ``--trace 1`` runs every request
once untraced and once traced in this process and reports the per-layer
metrics from the traced copies. Earlier stdout lines carry the
environment header and the correctness figures; the last line is the result.
The exit code is non-zero if any check fails or any operation failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# The untraced run is split over this many fresh processes, one after another;
# each gives one set-up sample.
SEGMENTS = 3
# BLAS runs on one thread in every process of the benchmark. With OpenBLAS's
# default of one thread per core, its idle threads spin on the core the other
# pool thread (or another tenant) needs, and latency follows the scheduler.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
INHERITED_BLAS_THREADS = {name: os.environ.get(name) for name in BLAS_THREADS}
DEFAULT_SEED = 0
# The quality figure must reproduce the stored reference this closely.
REFERENCE_RTOL = 1e-9
TAIL_BEYOND = 10


def declared() -> dict:
    """BENCHMARK.json: the workload names and each metric's unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared()["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs toy sizes for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_package():
    if not (SRC / "hisparse" / "__init__.py").is_file():
        raise SystemExit(f"error: no hisparse sources under {SRC}")
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was set")
    os.environ.update(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import hisparse
    if Path(hisparse.__file__).resolve().parent != SRC / "hisparse":
        raise SystemExit(f"error: imported hisparse from {hisparse.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "hisparse").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_inherited": INHERITED_BLAS_THREADS,
        "blas_threads_used": {name: os.environ.get(name) for name in BLAS_THREADS},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def tail(sorted_samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that percentile to reach the median, the median is used.
    """
    n = len(sorted_samples)
    j = max(n - 1 - TAIL_BEYOND, n // 2)
    return sorted_samples[j], 100.0 * (j + 1) / n


class Run:
    """Counters and checks shared by the untraced and traced loops."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.values: dict[int, float] = {}

    def request(self, index: int):
        """Run one request; returns (seconds, outcome), outcome None if it raised."""
        from workloads import CheckError

        self.attempted += self.workload.attempts
        start = time.perf_counter()
        try:
            outcome = self.workload.run(index)
        except CheckError as exc:
            self.problems.append(f"request {index}: {exc}")
            self.failed += self.workload.attempts
            return time.perf_counter() - start, None
        except Exception:
            traceback.print_exc()
            self.failed += self.workload.attempts
            return time.perf_counter() - start, None
        seconds = time.perf_counter() - start
        self.failed += outcome.failed
        self._record(index, outcome.value)
        return seconds, outcome

    def _record(self, index: int, value: float) -> None:
        if index in self.values and self.values[index] != value:
            self.problems.append(f"request {index} not reproducible: "
                                 f"{self.values[index]!r} then {value!r}")
        self.values.setdefault(index, value)

    def merge(self, segment: dict) -> None:
        """Add the counters and values of a measuring process's run."""
        self.attempted += segment["attempted"]
        self.failed += segment["failed"]
        self.problems += segment["problems"]
        for index, value in segment["values"].items():
            self._record(int(index), value)

    def quality(self) -> float | None:
        k = self.workload.check_requests
        if any(i not in self.values for i in range(k)):
            return None
        return math.fsum(self.values[i] for i in range(k)) / k

    def check_reference(self, args) -> float | None:
        value = self.quality()
        if value is None or not math.isfinite(value):
            self.problems.append(f"{self.workload.quality} over the check requests is {value}")
            return None
        if args.seed != DEFAULT_SEED or args.scale != "full":
            return None
        reference = json.loads((BENCH / "reference.json").read_text())[args.workload]
        if not math.isclose(value, reference, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
            self.problems.append(f"{self.workload.quality} {value!r} differs from "
                                 f"reference {reference!r}")
        return reference


def segment(workload_name: str, seed: int, scale: str, seconds: float, part: int,
            spawned: float) -> None:
    """Body of one measuring process: set up, then run its share of the requests.

    Set-up (interpreter start, import, building the workload, one warm-up run of
    request 0) is timed from ``spawned``, the parent's wall clock when it started
    this process. Part ``k`` runs requests k, k + SEGMENTS, ... for ``seconds``,
    and the reference kernel after each; a request's cost is its wall time over
    the mean of the kernel runs just before and just after it.
    """
    import_package()
    import workloads
    from reference_kernel import ReferenceKernel

    workload = workloads.make_workload(workload_name, seed, scale, OUT)
    kernel = ReferenceKernel()
    run = Run(workload)
    run.request(0)
    kernel.run()
    setup = time.time() - spawned
    samples, costs, kernel_s = [], [], [kernel.run()]
    work = 0
    index = part
    start = time.perf_counter()
    while index < workload.check_requests or time.perf_counter() - start < seconds:
        elapsed, outcome = run.request(index)
        kernel_s.append(kernel.run())
        if outcome is not None:
            samples.append(elapsed)
            costs.append(elapsed / (0.5 * (kernel_s[-2] + kernel_s[-1])))
            work += outcome.work
        index += SEGMENTS
    print(json.dumps({
        "setup": setup, "samples": samples, "costs": costs, "kernel": kernel_s,
        "work": work,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
        "values": run.values,
    }))


def measure(args, run: Run) -> tuple[dict, dict]:
    """Run the timed loop in SEGMENTS fresh processes and pool what they measured."""
    setup, samples, costs, kernel_s, rss = [], [], [], [], []
    work = 0.0
    for part in range(SEGMENTS):
        code = "import sys; sys.path.insert(0, {!r}); import run; run.segment{!r}".format(
            str(BENCH), (args.workload, args.seed, args.scale, args.seconds / SEGMENTS,
                         part, time.time()))
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"measuring process {part} exited {proc.returncode}")
        seg = json.loads(proc.stdout.strip().splitlines()[-1])
        setup.append(seg["setup"])
        samples += seg["samples"]
        costs += seg["costs"]
        kernel_s += seg["kernel"]
        work += seg["work"]
        rss.append(seg["rss_mb"])
        run.merge(seg)
    if not samples:
        raise RuntimeError("no request completed")
    costs.sort()
    tail_cost, tail_pct = tail(costs)
    metrics = {
        "setup_s": statistics.median(setup),
        "request_ref.p50": statistics.median(costs),
        "request_ref.tail": tail_cost,
        "throughput_per_ref": work / math.fsum(costs),
        "peak_rss_mb": max(rss),
    }
    # Wall-clock figures, for reading the kernel units back into time on this machine.
    details = {"requests": len(samples), "tail_percentile": tail_pct,
               "wall_request_ms_p50": 1e3 * statistics.median(samples),
               "wall_throughput_per_s": work / math.fsum(samples),
               "reference_kernel_ms_p50": 1e3 * statistics.median(kernel_s),
               "setup_samples_s": setup, "rss_samples_mb": rss}
    return metrics, details


def measure_traced(args, run: Run, env: dict) -> tuple[dict, dict]:
    """Run each request untraced and traced in this process; per-layer metrics."""
    import spans

    workload = run.workload
    tracer = spans.Tracer()
    ratios = []
    index = 0
    start = time.perf_counter()
    while index < workload.check_requests or time.perf_counter() - start < args.seconds:
        # Alternate which copy runs first so warm caches favour neither.
        timed = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            with tracer.request(index) if traced else contextlib.nullcontext():
                timed[traced] = run.request(index)
        if timed[True][1] is not None and timed[False][1] is not None:
            ratios.append(timed[True][0] / timed[False][0])
        index += 1
    metrics = spans.layer_metrics(tracer, index, workload.pool_threads)
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else math.nan
    run.problems.extend(bypass_problems(args.workload, metrics, tracer))
    trace_path = OUT / f"trace_{args.workload}_seed{args.seed}.jsonl"
    tracer.dump(trace_path, env)
    return metrics, {"requests": index, "spans": len(tracer.spans), "trace_file": str(trace_path)}


def bypass_problems(name: str, layers: dict, tracer) -> list[str]:
    """Check that each workload sends traffic only where it claims to."""
    import spans

    problems = []
    if name == "paper-hiiht" and layers["recovery.lstsq.calls"] != 0:
        problems.append("paper-hiiht ran restricted least squares")
    if name == "hirip-enum":
        busy = [k for k in ("operators.forward.calls", "operators.adjoint.calls",
                            "blocks.hi_threshold.calls", "recovery.lstsq.calls")
                if layers[k] != 0]
        if busy or layers["recovery.solve.ms"] != 0 or layers["operators.init.ms"] != 0:
            problems.append(f"hirip-enum reached operators/recovery: {busy}")
    if name == "small-offgrid-sweep":
        threads = spans.trial_threads(tracer)
        if not threads or min(threads.values()) < 2:
            problems.append(f"sweep trials did not run on two pool threads: {threads}")
    if name != "hirip-enum" and layers["operators.forward.calls"] == 0:
        problems.append(f"{name} never reached the sensing operator")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.make_workload(args.workload, args.seed, args.scale, OUT)
    run = Run(workload)
    env = environment()
    if args.trace:
        metrics, details = measure_traced(args, run, env)
    else:
        metrics, details = measure(args, run)
    reference = run.check_reference(args)
    for name, value in metrics.items():
        if not math.isfinite(value):
            run.problems.append(f"metric {name} is {value}")
    units = {m["name"]: m["unit"]
             for m in declared()["per_layer" if args.trace else "end_to_end"]}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env,
        "checks": {
            workload.quality: run.quality(),
            "reference": reference,
            "failed_frac": run.failed / max(run.attempted, 1),
            "problems": run.problems,
            **details,
        },
    }
    print(json.dumps(summary))
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct and run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
