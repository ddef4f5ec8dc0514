#!/usr/bin/env python3
"""Compare two source checkouts in alternating pairs; write one BENCH JSON file.

Usage: python scripts/bench_pairs.py BEFORE AFTER --out BENCH_<n>.json

BEFORE and AFTER are checkouts with ``src/``, ``scripts/`` and ``benchmark/``. Every
measurement runs once per checkout in each pair, BEFORE first in even
pairs and AFTER first in odd ones, so that a drift of the machine's speed
falls on both sides alike. Each ``benchmark/run.py`` runs for the
``run_seconds`` of AFTER's BENCHMARK.json. The file holds:
  end_to_end  per workload and seed (``PAIRS`` pairs at each of ``SEEDS``),
              the end-to-end metrics of each checkout's own
              ``benchmark/run.py --trace 0`` in every pair, their medians
              and quartiles, and the number of pairs in which AFTER was
              strictly better (the direction of each metric is read from
              AFTER's BENCHMARK.json);
  stages      each checkout's own ``scripts/bench_stages.py`` with its
              ``src`` on the Python path (the script calls private names,
              which a change may alter), in 3 pairs: per run and medians,
              and the medians of the rotation forms, read per side;
  traced      one ``run.py --trace 1`` of every workload per checkout, at
              the first seed: its per-layer metrics;
  threads     per checkout, ``execute`` of the ``rm_l16_threads`` config at
              the first seed, timed in a fresh interpreter at threads 1 and
              2 in 5 pairs;
  memory      per checkout, the peak RSS (``ru_maxrss``, in MB) of a fresh
              interpreter that runs ``execute`` of an exact-mode L = 18 Neel
              twist and Berry config, at 2 and at 16 time points, 3 times
              each. A run that holds one state at a time peaks alike at both.
              A child's ``ru_maxrss`` starts at the high-water mark of the
              process that spawned it, so this script must stay smaller than
              the run it measures (about 60 MB), as it does.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from bench_stages import checkout_state

PAIRS = 10
SEEDS = (777, 2718)
SIDES = ("before", "after")
SINGLE_THREAD_BLAS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
STAGE_PAIRS = 3
THREAD_PAIRS = 5

# times ``execute`` of the rm_l16_threads workload config; argv: checkout, seed, threads
THREAD_CHILD = r"""
import sys, tempfile, time
sys.path.insert(0, sys.argv[1] + "/benchmark")
from run import WORKLOADS
from sshquench.config import parse_config_text
from sshquench.experiment import execute
text = WORKLOADS["rm_l16_threads"].config_text(int(sys.argv[2]))
config = parse_config_text(f"{text}\nthreads = {sys.argv[3]}\n")
with tempfile.TemporaryDirectory() as out:
    start = time.perf_counter()
    execute(config, out, quiet=True)
    print(time.perf_counter() - start)
"""


# peak RSS in MB of an exact-mode L = 18 twist ``execute``; argv: t_points
MEMORY_CHILD = r"""
import resource, sys, tempfile
from sshquench.config import parse_config_text
from sshquench.experiment import execute
text = "L = 18\ninitial = neel\nquantities = twist,berry\nexact_probabilities = true\n"
config = parse_config_text(f"{text}t_points = {sys.argv[1]}\n")
with tempfile.TemporaryDirectory() as out:
    execute(config, out, quiet=True)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""
MEMORY_POINTS = ("2", "16")
MEMORY_REPEATS = 3


def _ordered(pair: int) -> tuple[str, str]:
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def _last_line(argv, cwd: Path, env=None) -> str:
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


def _with_src(checkout: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(checkout / "src"), **SINGLE_THREAD_BLAS)


def _run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    result = json.loads(_last_line(argv, checkout))
    values = {m: v["value"] for m, v in result["metrics"].items()}
    return {**values, "correct": result["correct"], "failed": result["failed"]}


def _quartiles(values: list) -> list:
    """[q1, median, q3]; a single value stands for all three."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def end_to_end(dirs, workload, seed, seconds, better) -> dict:
    runs = []
    for pair in range(PAIRS):
        row = {"order": list(_ordered(pair))}
        for side in _ordered(pair):
            row[side] = _run_bench(dirs[side], workload, seed, seconds, trace=0)
            print(f"{workload} pair {pair} {side}: run_s {row[side]['run_s']:.3f}", flush=True)
        runs.append(row)
    quartiles = {
        side: {m: _quartiles([r[side][m] for r in runs]) for m in better} for side in SIDES
    }
    wins = {
        m: sum(
            (r["after"][m] < r["before"][m]) if lower else (r["after"][m] > r["before"][m])
            for r in runs
        )
        for m, lower in better.items()
    }
    return {"pairs": runs, "q1_median_q3": quartiles, "after_wins": wins}


def stages(dirs) -> dict:
    runs = {side: [] for side in SIDES}
    for pair in range(STAGE_PAIRS):
        for side in _ordered(pair):
            argv = [sys.executable, str(dirs[side] / "scripts" / "bench_stages.py")]
            proc = subprocess.run(argv, env=_with_src(dirs[side]), capture_output=True,
                                  text=True, check=True)
            runs[side].append(json.loads(proc.stdout))
    medians = {
        side: {
            name: statistics.median(r["stages"][name]["median_s"] for r in runs[side])
            for name in runs[side][0]["stages"]
        }
        for side in SIDES
    }
    rotate = {
        side: {
            size: {form: statistics.median(r["rotate"][size][form] for r in runs[side])
                   for form in forms}
            for size, forms in runs[side][0]["rotate"].items()
        }
        for side in SIDES
    }
    return {"runs": runs, "median_s": medians, "rotate_median_s": rotate}


def threads(dirs, seed: int) -> dict:
    out = {}
    for side in SIDES:
        times = {"1": [], "2": []}
        for pair in range(THREAD_PAIRS):
            for n in ("1", "2") if pair % 2 == 0 else ("2", "1"):
                argv = [sys.executable, "-c", THREAD_CHILD, str(dirs[side]), str(seed), n]
                times[n].append(float(_last_line(argv, dirs[side], _with_src(dirs[side]))))
        wins = sum(two < one for one, two in zip(times["1"], times["2"]))
        out[side] = {"execute_s": times, "threads2_wins": wins, "pairs": THREAD_PAIRS}
        print(f"threads {side}: {times}", flush=True)
    return out


def memory(dirs) -> dict:
    out = {}
    for side in SIDES:
        peaks = {n: [] for n in MEMORY_POINTS}
        for _ in range(MEMORY_REPEATS):
            for n in MEMORY_POINTS:
                argv = [sys.executable, "-c", MEMORY_CHILD, n]
                peaks[n].append(float(_last_line(argv, dirs[side], _with_src(dirs[side]))))
        medians = {n: statistics.median(v) for n, v in peaks.items()}
        out[side] = {"peak_rss_mb": peaks, "median_mb": medians}
        print(f"memory {side}: {medians}", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    dirs = {"before": args.before.resolve(), "after": args.after.resolve()}
    spec = json.loads((dirs["after"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    result = {
        "provenance": {
            **{side: checkout_state(d) for side, d in dirs.items()},
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "settings": {"seeds": SEEDS, "seconds": seconds, "pairs": PAIRS},
        "end_to_end": {
            f"{w}@seed{seed}": end_to_end(dirs, w, seed, seconds, better)
            for seed in SEEDS
            for w in workloads
        },
        "stages": stages(dirs),
        "traced": {
            w: {side: _run_bench(dirs[side], w, SEEDS[0], seconds, trace=1) for side in SIDES}
            for w in workloads
        },
        "threads": threads(dirs, SEEDS[0]),
        "memory": memory(dirs),
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
