#!/usr/bin/env python3
"""Run every experiment config in this directory and print the reports.

Usage: python scripts/run_suite.py [--threads N] [--exact-probabilities]
Outputs land in the per-config ``out`` directories (under ./runs by default).
Without ``--threads`` each config's own ``threads`` key applies.
"""
import argparse
import sys
import time
from pathlib import Path

from sshquench.experiment import compare_report, run_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--exact-probabilities", action="store_true")
    parser.add_argument(
        "--only", help="substring filter on config file names", default=""
    )
    args = parser.parse_args()

    configs = sorted(Path(__file__).parent.glob("*.conf"))
    if args.only:
        configs = [c for c in configs if args.only in c.name]
    if not configs:
        print("no configs matched", file=sys.stderr)
        return 2

    for config in configs:
        started = time.time()
        print(f"=== {config.name}")
        out = run_experiment(
            config,
            threads=args.threads,
            exact_probabilities=args.exact_probabilities or None,
            quiet=True,
        )
        print(compare_report(out), end="")
        print(f"    ({time.time() - started:.1f}s -> {out})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
