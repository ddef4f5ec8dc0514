#!/usr/bin/env python3
"""Compare two source checkouts in alternating pairs; write one BENCH JSON file.

Usage: python scripts/bench_pairs.py BEFORE AFTER --out BENCH_<n>.json
       python scripts/bench_pairs.py --reread BENCH_<n>.json

BEFORE and AFTER are checkouts with ``src/``, ``scripts/`` and ``benchmark/``. Every
measured section compares two sides in ``PAIRS`` alternating pairs
(``alternate``): the first side first in even pairs and the second first in
odd ones, so that a drift of the machine's speed falls on both alike. Each
``benchmark/run.py`` runs for the ``run_seconds`` of AFTER's BENCHMARK.json.
The file holds:
  end_to_end  per workload and seed (at each of ``SEEDS``), BEFORE against
              AFTER: the end-to-end metrics of each checkout's own
              ``benchmark/run.py --trace 0`` in every pair, and their
              medians and quartiles;
  stages      BEFORE against AFTER: every stage's ``median_s`` from each
              checkout's own ``scripts/bench_stages.py``, run with its
              ``src`` on the Python path (the script calls private names,
              which a change may alter), in every pair;
  traced      one ``run.py --trace 1`` of every workload per checkout, at
              the first seed: its per-layer metrics;
  threads     per checkout, 1 against 2 threads: ``execute`` of the
              ``rm_l16_threads`` config at the first seed, timed in a fresh
              interpreter, in every pair, and the pairs that 2 threads won;
  memory      per checkout, 2 against 16 time points: the peak RSS
              (``ru_maxrss``, in MB) of a fresh interpreter that runs
              ``execute`` of an exact-mode L = 18 Neel twist and Berry
              config, in every pair, and the median of each. A run that
              holds one state at a time peaks alike at both. A child's
              ``ru_maxrss`` starts at the high-water mark of the process
              that spawned it, so this script must stay smaller than the run
              it measures (about 60 MB), as it does;
  verdicts    per workload, seed and end-to-end metric, and per stage that
              both checkouts print, the per-pair ratios after/before, their
              median with a fixed-seed bootstrap 95% interval, AFTER's wins,
              BEFORE's q3 - q1 and a verdict (``verdicts``). ``--reread``
              prints these for an existing file, against this checkout's
              BENCHMARK.json, and runs nothing.
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

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
SEEDS = (777, 2718)
SIDES = ("before", "after")
SINGLE_THREAD_BLAS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
GAIN_WIN_SHARE = 0.9  # a gain wins at least 9 of 10 pairs
BOOTSTRAP_DRAWS = 10000
BOOTSTRAP_SEED = 16

# times ``execute`` of the rm_l16_threads workload config, run in a checkout; argv: seed, threads
THREAD_CHILD = r"""
import sys, tempfile, time
sys.path.insert(0, "benchmark")
from run import WORKLOADS
from sshquench.config import parse_config_text
from sshquench.experiment import execute
text = WORKLOADS["rm_l16_threads"].config_text(int(sys.argv[1]))
config = parse_config_text(f"{text}\nthreads = {sys.argv[2]}\n")
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


def alternate(first: str, second: str, measure) -> list[dict]:
    """``PAIRS`` rows ``{"order": [...], first: measure(first), second:
    measure(second)}``, ``first`` measured first in even pairs and ``second``
    first in odd ones."""
    rows = []
    for pair in range(PAIRS):
        order = (first, second) if pair % 2 == 0 else (second, first)
        rows.append({"order": list(order), **{label: measure(label) for label in order}})
    return rows


def _stdout(argv, cwd=None, env=None) -> str:
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                          check=True).stdout


def _with_src(checkout: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(checkout / "src"), **SINGLE_THREAD_BLAS)


def _child(checkout: Path, code: str, *args: str) -> float:
    """The number that a fresh interpreter running ``code`` with ``checkout``'s
    ``src`` prints last."""
    argv = [sys.executable, "-c", code, *args]
    return float(_stdout(argv, checkout, _with_src(checkout)).splitlines()[-1])


def _run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    result = json.loads(_stdout(argv, checkout).splitlines()[-1])
    values = {m: v["value"] for m, v in result["metrics"].items()}
    return {**values, "correct": result["correct"], "failed": result["failed"]}


def _quartiles(values: list) -> list:
    """[q1, median, q3]; a single value stands for all three."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def end_to_end(dirs, workload, seed, seconds, metrics) -> dict:
    def measure(side):
        values = _run_bench(dirs[side], workload, seed, seconds, trace=0)
        print(f"{workload}@seed{seed} {side}: run_s {values['run_s']:.3f}", flush=True)
        return values

    runs = alternate(*SIDES, measure)
    quartiles = {
        side: {m: _quartiles([r[side][m] for r in runs]) for m in metrics} for side in SIDES
    }
    return {"pairs": runs, "q1_median_q3": quartiles}


def _verdict(pairs: list, name: str, lower: bool, bound: float) -> dict:
    """One metric's paired comparison; see ``verdicts``."""
    before = [r["before"][name] for r in pairs]
    after = [r["after"][name] for r in pairs]
    ratios = np.array(after) / np.array(before)
    draws = np.random.default_rng(BOOTSTRAP_SEED).choice(ratios, (BOOTSTRAP_DRAWS, ratios.size))
    interval = np.percentile(np.median(draws, axis=1), [2.5, 97.5])
    wins = sum((a < b) if lower else (a > b) for a, b in zip(after, before))
    q1, median_before, q3 = _quartiles(before)
    median_after = statistics.median(after)
    gained = median_before - median_after if lower else median_after - median_before
    all_beat = max(after) < min(before) if lower else min(after) > max(before)
    if wins >= GAIN_WIN_SHARE * len(pairs) and gained > q3 - q1:
        verdict = "gain"
    elif -gained > bound * median_before:
        verdict = "worse"
    elif q3 - q1 > bound * median_before and not all_beat:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "ratios": ratios.tolist(),
        "median_ratio": float(np.median(ratios)),
        "median_ratio_95": interval.tolist(),
        "after_wins": wins,
        "pairs": len(pairs),
        "before_q3_minus_q1": q3 - q1,
        "verdict": verdict,
    }


def verdicts(bench: dict, spec: dict) -> dict:
    """The verdict on ``bench``'s pairs per ``workload@seed`` and end-to-end
    metric of ``spec`` (a BENCHMARK.json), under ``end_to_end``, and per stage
    that both sides print, under ``stages`` against the ``run_s`` bound (files
    older than the stage pairs have none); ties count for neither side:
      gain          AFTER wins at least 9 of 10 pairs and its median beats
                    BEFORE's by more than BEFORE's q3 - q1. This is exactly
                    the rule a claimed gain must pass, and it has no minimum
                    effect size: a metric whose runs barely spread reads
                    ``gain`` on a tiny move (``rm_l8_mitigated`` ``peak_rss_mb``
                    in BENCH_25.json, at a ratio of 0.999);
      worse         AFTER's median is worse than BEFORE's by more than the bound;
      unresolved    not worse, but BEFORE's q3 - q1 is wider than the bound
                    and not every AFTER run beats every BEFORE run;
      within bound  every other case.
    """
    table = {"end_to_end": {
        key: {m["name"]: _verdict(entry["pairs"], m["name"], m["better"] == "lower", m["bound"])
              for m in spec["end_to_end"]}
        for key, entry in bench["end_to_end"].items()
    }}
    pairs = bench.get("stages", {}).get("pairs")
    if pairs:
        bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "run_s")
        both = [name for name in pairs[0]["before"] if name in pairs[0]["after"]]
        table["stages"] = {name: {"median_s": _verdict(pairs, name, True, bound)}
                           for name in both}
    return table


def verdict_table(table: dict) -> str:
    lines = []
    for section, head in (("end_to_end", "workload@seed"), ("stages", "stage")):
        if section not in table:
            continue
        lines.append(f"{head:<26} {'metric':<12} {'ratio':>6} {'95% interval':>15} "
                     f"{'wins':>5}  verdict")
        for key, metrics in table[section].items():
            for name, v in metrics.items():
                lo, hi = v["median_ratio_95"]
                lines.append(f"{key:<26} {name:<12} {v['median_ratio']:6.3f} "
                             f"{lo:7.3f}-{hi:<7.3f} {v['after_wins']:>2}/{v['pairs']:<2}  "
                             f"{v['verdict']}")
    return "\n".join(lines)


def stages(dirs) -> dict:
    def measure(side):
        argv = [sys.executable, str(dirs[side] / "scripts" / "bench_stages.py")]
        printed = json.loads(_stdout(argv, env=_with_src(dirs[side])))["stages"]
        return {name: stage["median_s"] for name, stage in printed.items()}

    return {"pairs": alternate(*SIDES, measure)}


def threads(dirs, seed: int) -> dict:
    out = {}
    for side in SIDES:
        rows = alternate("1", "2", lambda n: _child(dirs[side], THREAD_CHILD, str(seed), n))
        out[side] = {"execute_s": rows, "threads2_wins": sum(r["2"] < r["1"] for r in rows)}
        print(f"threads {side}: 2 threads won {out[side]['threads2_wins']}/{PAIRS}", flush=True)
    return out


def memory(dirs) -> dict:
    out = {}
    for side in SIDES:
        rows = alternate(*MEMORY_POINTS, lambda n: _child(dirs[side], MEMORY_CHILD, n))
        medians = {n: statistics.median(r[n] for r in rows) for n in MEMORY_POINTS}
        out[side] = {"peak_rss_mb": rows, "median_mb": medians}
        print(f"memory {side}: {medians}", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path, nargs="?")
    parser.add_argument("after", type=Path, nargs="?")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--reread", type=Path, metavar="BENCH",
                        help="print the verdicts of an existing BENCH file and run nothing")
    args = parser.parse_args(argv)
    if args.reread:
        bench = json.loads(args.reread.read_text())
        print(verdict_table(verdicts(bench, json.loads((ROOT / "BENCHMARK.json").read_text()))))
        return 0
    if args.before is None or args.after is None or args.out is None:
        parser.error("BEFORE, AFTER and --out are needed unless --reread is given")
    dirs = {"before": args.before.resolve(), "after": args.after.resolve()}
    spec = json.loads((dirs["after"] / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
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
            f"{w}@seed{seed}": end_to_end(dirs, w, seed, seconds, metrics)
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
    result["verdicts"] = verdicts(result, spec)
    print(verdict_table(result["verdicts"]), flush=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
