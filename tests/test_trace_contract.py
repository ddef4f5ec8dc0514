"""A traced twist run keeps working with the benchmark's tracer installed.

The tracer in ``benchmark/bench_trace.py`` wraps names that the runner looks
up at call time and reads ``.values()`` on the argument and the result of
``postselect_half_filling``. This runs a small Neel twist and Berry
configuration under it, so a change to what those calls take or return
fails here, not only in a traced benchmark run.
"""
import sys
from pathlib import Path

BENCHMARK_DIR = Path(__file__).resolve().parents[1] / "benchmark"
if str(BENCHMARK_DIR) not in sys.path:
    sys.path.insert(0, str(BENCHMARK_DIR))

import bench_checks  # noqa: E402
import bench_trace  # noqa: E402
from sshquench.experiment import run_experiment  # noqa: E402

TWIST_CONF = """L = 8
initial = neel
t_max = 1.5707963267948966
t_points = 5
quantities = twist,berry
n_shots = 4096
readout_flip = 0.02
seed = 17
"""


def test_traced_twist_run_postselects_and_passes_the_twist_check(tmp_path):
    conf = tmp_path / "twist.conf"
    conf.write_text(TWIST_CONF)
    tracer = bench_trace.Tracer()
    with bench_trace.installed(tracer):
        out = run_experiment(conf, out_dir=tmp_path / "out", quiet=True)

    assert (out / "twist.csv").exists() and (out / "berry.csv").exists()
    kept = tracer.layer_metrics()["observables.postselect_kept_frac"]
    assert 0.0 < kept < 1.0
    times = [float(r["t"]) for r in bench_checks.read_rows(out / "twist.csv")]
    model = bench_checks.twist_model(8, times, 0.02)
    assert bench_checks.check_twist(out, model, 4096, False) == []
