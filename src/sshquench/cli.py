"""Command line front end.

    sshquench run <config> [--out DIR] [--seed N] [--threads N]
                           [--exact-probabilities] [--quiet]
    sshquench report <run-dir>

Exit codes: 0 success, 2 invalid configuration, missing files, an output path
that is not a directory or a malformed run-directory CSV, 3 capacity violation
(chain or subsystem too large for the dense engine).
"""
from __future__ import annotations

import argparse
import sys

from .config import ConfigError
from .experiment import RunFileError, compare_report, run_experiment
from .state import CapacityError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sshquench",
        description="Simulate dimerized XX chain quenches and estimate "
        "entanglement and twist observables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment configuration")
    run_p.add_argument("config", help="path to a key = value config file")
    run_p.add_argument("--out", help="output directory (defaults from config/env)")
    run_p.add_argument("--seed", type=int, help="override the master seed")
    run_p.add_argument("--threads", type=int, help="override the worker count")
    run_p.add_argument(
        "--exact-probabilities",
        action="store_true",
        help="bypass unitary and shot sampling; report exact expectations",
    )
    run_p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    report_p = sub.add_parser("report", help="summarize a finished run directory")
    report_p.add_argument("rundir", help="output directory of a previous run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            out = run_experiment(
                args.config,
                out_dir=args.out,
                seed=args.seed,
                threads=args.threads,
                exact_probabilities=True if args.exact_probabilities else None,
                quiet=args.quiet,
            )
            print(f"run complete: {out}")
            return 0
        text = compare_report(args.rundir)
        print(text, end="")
        return 0
    except ConfigError as exc:
        where = f"{getattr(args, 'config', '?')}:{exc.line}: " if exc.line else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, NotADirectoryError, RunFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
