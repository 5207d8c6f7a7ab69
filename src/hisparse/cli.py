"""Command-line front end: run sweeps, emit plot data, verify properties."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .simulate import ExperimentConfig, PRESETS, emit_plot_data, run_sweep
from .verify import SUITES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hisparse",
        description="Hierarchically sparse channel-estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured Monte-Carlo sweep")
    run_p.add_argument("--config", required=True, help="experiment config JSON")
    run_p.add_argument("--out", default="results", help="output directory")
    run_p.add_argument("--threads", type=int, default=1)
    run_p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                       help="override system sizes with a named preset")

    plot_p = sub.add_parser("plot", help="emit gnuplot data from a results CSV")
    plot_p.add_argument("--csv", required=True)
    plot_p.add_argument("--out", default=None, help="output directory (default: CSV directory)")

    verify_p = sub.add_parser("verify", help="run a randomized property suite")
    verify_p.add_argument("--suite", required=True, choices=sorted(SUITES))
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--trials", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        try:
            config = ExperimentConfig.from_json(Path(args.config).read_text())
            if args.preset:
                config.apply_preset(args.preset)
        except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
            print(f"error: bad config: {exc}", file=sys.stderr)
            return 1
        records, csv_path, manifest_path = run_sweep(config, out_dir=args.out,
                                                     threads=args.threads)
        print(f"wrote {csv_path} ({len(records)} rows) and {manifest_path}")
        return 0
    if args.command == "plot":
        written = emit_plot_data(args.csv, args.out)
        print(f"wrote {len(written)} plot files")
        return 0
    if args.command == "verify":
        suite = SUITES[args.suite]
        kwargs = {"seed": args.seed}
        if args.trials is not None:
            kwargs["trials"] = args.trials
        passed = suite(**kwargs)
        print("verify:", "PASS" if passed else "FAIL")
        return 0 if passed else 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
