"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest benchmark -q
"""
import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_checks
import bench_trace
import run
from sshquench.experiment import run_experiment

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ENTROPY_CONF = """L = 8
initial = singlet
t_points = 3
n_unitaries = 12
n_shots = 1024
p_layer = 0.013625
mitigate = on
seed = 5
"""

TWIST_CONF = """L = 8
initial = neel
t_max = 1.5707963267948966
t_points = 5
quantities = twist,berry
n_shots = 4096
readout_flip = 0.02
seed = 5
"""


def _run(tmp_path: Path, text: str, **kwargs) -> Path:
    conf = tmp_path / "w.conf"
    conf.write_text(text)
    return run_experiment(conf, out_dir=tmp_path / "out", quiet=True, **kwargs)


def _edit_csv(path: Path, row: int, column: str, delta: float) -> None:
    rows = bench_checks.read_rows(path)
    rows[row][column] = repr(float(rows[row][column]) + delta)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench_trace.PER_LAYER)
    assert spec["paths"] == [HERE.name]


@pytest.mark.parametrize("exact", [False, True])
def test_entropy_check_passes_then_flags_a_shifted_value(tmp_path, exact):
    out = _run(tmp_path, ENTROPY_CONF, exact_probabilities=exact or None)
    assert bench_checks.check_entropy(out, 3, exact) == []
    column, delta = ("raw", 1e-6) if exact else ("mitigated", 1.0)
    _edit_csv(out / "entropy.csv", 2, column, delta)
    assert bench_checks.check_entropy(out, 3, exact)
    assert bench_checks.check_entropy(out, 4, exact)


@pytest.mark.parametrize("exact", [False, True])
def test_twist_model_matches_the_program_and_flags_a_shifted_value(tmp_path, exact):
    out = _run(tmp_path, TWIST_CONF, exact_probabilities=exact or None)
    times = [float(r["t"]) for r in bench_checks.read_rows(out / "twist.csv")]
    model = bench_checks.twist_model(8, times, 0.02)
    assert bench_checks.check_twist(out, model, 4096, exact) == []
    _edit_csv(out / "twist.csv", 2, "re_post", 1e-6 if exact else 0.2)
    assert bench_checks.check_twist(out, model, 4096, exact)


def test_twist_model_without_flips_keeps_every_shot():
    m = bench_checks.twist_model(8, [0.0, 0.3], 0.0)
    assert all(math.isclose(p.kept_frac, 1.0) for p in m)
    assert all(abs(p.z_post - p.z_exact) < 1e-12 for p in m)


def test_self_time_excludes_children_on_the_same_thread():
    tracer = bench_trace.Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    self_s, calls = tracer.self_times()
    assert calls == {"outer": 1, "inner": 1}
    assert math.isclose(
        self_s["outer"], (outer[3] - outer[2]) - (inner[3] - inner[2]), abs_tol=1e-12
    )
    assert inner[4] == outer[0]


def test_traced_run_counts_rounds_and_restores_the_package(tmp_path):
    from sshquench import circuits, experiment, state

    original = (experiment.sample_haar_unitary, circuits.Circuit.run, state.Gate1Q.__post_init__)
    tracer = bench_trace.Tracer()
    with bench_trace.installed(tracer):
        out = _run(tmp_path, ENTROPY_CONF.replace("seed = 5", "seed = 5\nthreads = 2"))
    assert (experiment.sample_haar_unitary, circuits.Circuit.run, state.Gate1Q.__post_init__) == original

    layers = tracer.layer_metrics()
    rounds = 3 * 12
    assert layers["randmeas.rounds"] == rounds
    assert layers["randmeas.haar_calls"] == 8 * rounds
    assert layers["randmeas.kernel_calls"] == 3 * rounds  # unbiased, plug-in, full chain
    assert layers["state.gate1q_calls"] >= 8 * rounds
    assert layers["circuits.run_calls"] == 4  # initial state plus one per time
    assert 0.0 < layers["experiment.parallel_busy_frac"] <= 1.0 + 1e-9
    assert set(layers) | set(bench_trace.MEASURED_OUTSIDE) == {m for m, _ in bench_trace.PER_LAYER}
    tracer.write(tmp_path / "spans.json")
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert len(spans) == len(tracer.spans)
    assert bench_checks.check_entropy(out, 3, False) == []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "rm_l8_mitigated",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
