"""Regenerate reference.json: each workload's quality figure for the default seed.

    python3 perfbench/make_reference.py

The figure is the mean over the workload's check requests (mean MSE, or mean
hierarchical isometry constant for hirip-enum). The sweep is run with one
thread here while the benchmark runs it with two, so a match also shows that
results do not depend on the thread count. Only regenerate when a change is
meant to alter the numbers, and say so in the change log.
"""

from __future__ import annotations

import json
import math
import sys

import run


def main() -> int:
    run.import_package()
    import workloads

    run.OUT.mkdir(exist_ok=True)
    reference = {}
    for name in (w["name"] for w in run.declared()["workloads"]):
        workload = workloads.make_workload(name, run.DEFAULT_SEED, "full", run.OUT, threads=1)
        values = [workload.run(i).value for i in range(workload.check_requests)]
        reference[name] = math.fsum(values) / len(values)
        print(f"{name}: {workload.quality} = {reference[name]!r}", flush=True)
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
