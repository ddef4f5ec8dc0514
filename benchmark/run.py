"""Out-of-process benchmark of `sshquench run` (see README.md here).

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. For ``--seconds`` it starts one
child interpreter after another, each doing one ``sshquench run`` of the
workload's generated config; every child's outputs are checked. With
``--trace 0`` the last stdout line reports the end-to-end metrics (medians
over the children), with ``--trace 1`` the per-layer metrics of traced
children alternated with untraced ones. Run outputs go to
``.bench_out/<workload>/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bench_checks
from bench_trace import PER_LAYER

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    """Config keys of one workload (the seed is added per run)."""

    settings: dict[str, str]
    threads: int

    @property
    def t_points(self) -> int:
        return int(self.settings["t_points"])

    @property
    def shots(self) -> int:
        """Simulated measurement shots of one run."""
        per_time = int(self.settings["n_shots"])
        if "entropy" in self.settings["quantities"]:
            per_time *= int(self.settings["n_unitaries"])
        return self.t_points * per_time

    def config_text(self, seed: int) -> str:
        lines = [f"# benchmark workload, seed {seed}"]
        lines += [f"{k} = {v}" for k, v in self.settings.items()]
        return "\n".join(lines + [f"seed = {seed}", ""])


_RING = {"boundary": "pbc", "t_max": "1.5707963267948966"}

WORKLOADS = {
    "rm_l8_mitigated": Workload(
        settings={**_RING, "L": "8", "initial": "singlet", "quantities": "entropy",
                  "t_points": "10", "n_unitaries": "100", "n_shots": "4096",
                  "p_layer": "0.013625", "mitigate": "on"},
        threads=1,
    ),
    "rm_l16_threads": Workload(
        settings={**_RING, "L": "16", "initial": "singlet", "quantities": "entropy",
                  "t_points": "4", "n_unitaries": "40", "n_shots": "16384",
                  "p_layer": "0.005", "mitigate": "on"},
        threads=2,
    ),
    "twist_l16_readout": Workload(
        settings={**_RING, "L": "16", "initial": "neel", "quantities": "twist,berry",
                  "t_points": "12", "n_shots": "65536", "readout_flip": "0.02"},
        threads=1,
    ),
}

END_TO_END = (
    ("run_s", "s"),
    ("shots_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Child:
    """One finished child run: its JSON result and the problems found."""

    out_dir: Path
    result: dict | None
    problems: list[str]

    def digest(self) -> str:
        h = hashlib.sha256()
        for csv_file in sorted(self.out_dir.glob("*.csv")):
            h.update(csv_file.name.encode() + csv_file.read_bytes())
        return h.hexdigest()


class Bench:
    def __init__(self, root: Path, name: str, seed: int):
        self.root = root
        self.workload = WORKLOADS[name]
        self.work = root / ".bench_out" / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "workload.conf"
        self.config.write_text(self.workload.config_text(seed))
        self.children: list[Child] = []
        self.twist_model = None
        if "twist" in self.workload.settings["quantities"]:
            times = np.linspace(0.0, float(_RING["t_max"]), self.workload.t_points)
            self.twist_model = bench_checks.twist_model(
                int(self.workload.settings["L"]),
                [float(t) for t in times],
                float(self.workload.settings["readout_flip"]),
            )

    def spawn(self, threads: int, trace: bool = False, exact: bool = False) -> Child:
        """Run one child to completion and check what it wrote."""
        out_dir = self.work / f"run{len(self.children):03d}"
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(self.root / "src"), os.environ.get("PYTHONPATH")])
            ),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            SSHQUENCH_BENCH_ROOT=str(self.root),
        )
        argv = [
            sys.executable, str(HERE / "bench_child.py"), str(self.config), str(out_dir),
            str(threads), str(int(trace)), str(int(exact)), str(self.work / "spans.json"),
        ]
        env["SSHQUENCH_BENCH_SPAWNED"] = repr(time.monotonic())
        result, problems = None, []
        try:
            proc = subprocess.run(
                argv, env=env, cwd=self.root, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            problems.append(f"child exceeded {CHILD_TIMEOUT_S} s")
        else:
            if proc.returncode == 0:
                result = json.loads(proc.stdout.splitlines()[-1])
            else:
                problems.append(f"child exit code {proc.returncode}: {proc.stderr[-2000:]}")
        if result is not None:
            problems += self.check(out_dir, result, exact)
        child = Child(out_dir, result, problems)
        self.children.append(child)
        return child

    def check(self, out_dir: Path, result: dict, exact: bool) -> list[str]:
        if result["exit_code"] != 0 or result["report_exit_code"] != 0:
            return [f"sshquench exit codes run={result['exit_code']} "
                    f"report={result['report_exit_code']}"]
        try:
            if self.twist_model is not None:
                return bench_checks.check_twist(
                    out_dir, self.twist_model, int(self.workload.settings["n_shots"]), exact
                )
            return bench_checks.check_entropy(out_dir, self.workload.t_points, exact)
        except (OSError, KeyError, ValueError) as exc:
            return [f"unreadable output: {exc!r}"]

    def same_outputs(self, reference: Child, other: Child, what: str) -> None:
        """Flag ``other`` when its CSV files differ from ``reference``'s."""
        if reference.result and other.result and reference.digest() != other.digest():
            other.problems.append(f"CSV files differ from {reference.out_dir.name} ({what})")

    def measure(self, seconds: float, trace: bool) -> tuple[list[Child], list[Child]]:
        """Timed children for ``seconds``; returns (untraced, traced)."""
        threads = self.workload.threads
        # Untimed checks: exact probabilities against the oracles (this
        # first child also compiles the package's bytecode cache), then,
        # for a multi-threaded workload, the single-thread reference run.
        self.spawn(threads, exact=True)
        single = self.spawn(1) if threads > 1 else None

        untraced: list[Child] = []
        traced: list[Child] = []
        start = time.monotonic()
        while not untraced or (trace and not traced) or time.monotonic() - start < seconds:
            with_trace = trace and len(traced) <= len(untraced)
            (traced if with_trace else untraced).append(self.spawn(threads, trace=with_trace))

        first = untraced[0]
        for child in untraced[1:] + traced:
            self.same_outputs(first, child, "same seed")
        if single is not None:
            self.same_outputs(first, single, f"threads=1 vs threads={threads}")
        return untraced, traced


def median_of(children: list[Child], key) -> float:
    return statistics.median(key(c.result) for c in children if c.result is not None)


def provenance(root: Path, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)), timeout=10,
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = HERE.parent
    if not (root / "src" / "sshquench" / "cli.py").is_file():
        print(f"error: no sshquench sources under {root / 'src'}", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    untraced, traced = bench.measure(args.seconds, bool(args.trace))
    if not any(c.result for c in untraced) or (args.trace and not any(c.result for c in traced)):
        for c in bench.children:
            print("\n".join(c.problems), file=sys.stderr)
        print("error: no child run produced a measurement", file=sys.stderr)
        return 1

    shots = bench.workload.shots
    failed = sum(1 for c in bench.children if c.problems)
    attempted = len(bench.children)
    info = provenance(root, args.seed)
    settings = "; ".join(f"{k} = {v}" for k, v in bench.workload.settings.items())
    print(f"workload {args.workload}, threads = {bench.workload.threads}: {settings}")
    print("provenance " + json.dumps(info))
    print(f"children  {len(untraced)} untraced, {len(traced)} traced, "
          f"{attempted - len(untraced) - len(traced)} untimed checks")
    for c in bench.children:
        for problem in c.problems:
            print(f"FAILED {c.out_dir.name}: {problem}")

    if args.trace:
        values = {
            metric: statistics.median(c.result["layers"][metric] for c in traced if c.result)
            for metric, _unit in PER_LAYER
            if metric != "trace.overhead_s"
        }
        traced_run_s = median_of(traced, lambda r: r["run_s"])
        units = dict(PER_LAYER)
        # Self times of worker threads overlap, so shares are taken of their
        # sum, the busy time of all threads, rather than of the wall time.
        busy_s = sum(v for m, v in values.items() if units[m] == "s")
        values["trace.overhead_s"] = traced_run_s - median_of(untraced, lambda r: r["run_s"])
        print(f"traced run_s {traced_run_s:.4f} s, busy {busy_s:.4f} s; "
              "shares are self time / busy time")
    else:
        values = {
            "run_s": median_of(untraced, lambda r: r["run_s"]),
            "shots_per_s": median_of(untraced, lambda r: shots / r["run_s"]),
            "setup_s": median_of(untraced, lambda r: r["setup_s"]),
            "peak_rss_mb": median_of(untraced, lambda r: r["peak_rss_mb"]),
        }
        units = dict(END_TO_END)
    for metric, value in values.items():
        share = ""
        if args.trace and units[metric] == "s" and metric != "trace.overhead_s":
            share = f"  {100.0 * value / busy_s:5.1f}%"
        print(f"  {metric:36s} {value:14.6g} {units[metric]}{share}")
    print(f"  {'failed_frac':36s} {failed / attempted:14.6g} frac ({failed} of {attempted})")

    metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
    summary = {
        "provenance": info,
        "workload": args.workload,
        "trace": args.trace,
        "shots_per_run": shots,
        "samples": [
            {"run": c.out_dir.name, **(c.result or {}), "problems": c.problems}
            for c in bench.children
        ],
        "metrics": metrics,
    }
    (bench.work / "result.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
