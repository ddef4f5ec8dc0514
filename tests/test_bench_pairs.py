"""The pair loop and the verdicts of ``scripts/bench_pairs.py`` on synthetic
pairs and on the committed BENCH files; no subprocess starts and no time is
asserted."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import bench_pairs  # noqa: E402

BENCH_FILES = sorted(bench_pairs.ROOT.glob("BENCH_*.json"))

SPEC = {
    "end_to_end": [
        {"name": "run_s", "better": "lower", "bound": 0.25},
        {"name": "shots_per_s", "better": "higher", "bound": 0.25},
    ]
}

# before-side run_s of 10 pairs: median 1.0, q3 - q1 about 0.03
STEADY = [0.98, 1.02, 0.99, 1.01, 1.0, 0.97, 1.03, 1.0, 0.99, 1.01]
# median 1.0, q3 - q1 = 0.15 (quartiles 0.925 and 1.075)
SPREAD_15 = [0.9, 1.1, 0.925, 1.075, 0.95, 1.05, 0.925, 1.075, 0.98, 1.02]
# median 1.0, q3 - q1 about 0.30
SPREAD_30 = [0.8, 1.2, 0.85, 1.15, 0.9, 1.1, 0.84, 1.16, 0.95, 1.05]


def _bench(before, after):
    """A BENCH dict of one workload: shots_per_s is 1 / run_s, and the other
    metrics of the repository's BENCHMARK.json equal run_s."""
    pairs = [
        {
            side: {"run_s": v, "shots_per_s": 1.0 / v, "setup_s": v, "peak_rss_mb": v}
            for side, v in (("before", b), ("after", a))
        }
        for b, a in zip(before, after)
    ]
    return {"end_to_end": {"w@seed1": {"pairs": pairs}}}


def _verdicts(before, after):
    table = bench_pairs.verdicts(_bench(before, after), SPEC)["end_to_end"]["w@seed1"]
    return {name: v["verdict"] for name, v in table.items()}, table


def test_a_thirty_percent_gain_that_wins_every_pair():
    verdicts, table = _verdicts(STEADY, [0.7 * b for b in STEADY])
    assert verdicts == {"run_s": "gain", "shots_per_s": "gain"}
    assert table["run_s"]["after_wins"] == 10
    assert table["run_s"]["median_ratio"] == pytest.approx(0.7)
    lo, hi = table["run_s"]["median_ratio_95"]
    assert lo <= 0.7 <= hi


def test_an_eleven_percent_move_inside_a_fifteen_percent_spread_is_no_gain():
    verdicts, table = _verdicts(SPREAD_15, [0.89 * b for b in SPREAD_15])
    assert table["run_s"]["after_wins"] == 10
    assert table["run_s"]["before_q3_minus_q1"] == pytest.approx(0.15)
    assert verdicts == {"run_s": "within bound", "shots_per_s": "within bound"}


def test_a_thirty_percent_slowdown_is_worse():
    verdicts, table = _verdicts(STEADY, [1.3 * b for b in STEADY])
    # the same runs lose 1 - 1/1.3 = 23% of their throughput, inside its bound
    assert verdicts == {"run_s": "worse", "shots_per_s": "within bound"}
    assert table["run_s"]["after_wins"] == 0


def test_a_spread_wider_than_the_bound_is_unresolved():
    verdicts, _ = _verdicts(SPREAD_30, list(reversed(SPREAD_30)))
    assert verdicts == {"run_s": "unresolved", "shots_per_s": "unresolved"}


def test_ties_count_for_neither_side():
    _, table = _verdicts(STEADY, STEADY)
    assert table["run_s"]["after_wins"] == 0
    assert table["run_s"]["verdict"] == "within bound"


def _stage_verdicts(before, after, only_after=()):
    """Stage verdicts of one stage ``s`` on synthetic per-pair medians, with
    the stages ``only_after`` printed by AFTER alone."""
    pairs = [{"before": {"s": b}, "after": {"s": a, **dict.fromkeys(only_after, a)}}
             for b, a in zip(before, after)]
    bench = {**_bench(STEADY, STEADY), "stages": {"pairs": pairs}}
    return {name: v["median_s"]["verdict"]
            for name, v in bench_pairs.verdicts(bench, SPEC)["stages"].items()}


def test_pairs_alternate_which_side_runs_first():
    calls = []
    rows = bench_pairs.alternate("x", "y", lambda label: calls.append(label) or len(calls))
    assert len(rows) == bench_pairs.PAIRS
    assert calls == ["x", "y", "y", "x"] * (bench_pairs.PAIRS // 2)
    assert [r["order"] for r in rows[:2]] == [["x", "y"], ["y", "x"]]
    # every row holds both labels' measurements, in the order they ran
    assert rows[1] == {"order": ["y", "x"], "y": 3, "x": 4}


def test_a_thirty_percent_stage_speed_up_is_a_gain():
    assert _stage_verdicts(STEADY, [0.7 * b for b in STEADY]) == {"s": "gain"}


def test_a_thirty_percent_stage_slowdown_is_worse():
    assert _stage_verdicts(STEADY, [1.3 * b for b in STEADY]) == {"s": "worse"}


def test_a_stage_printed_by_one_side_only_gets_no_verdict():
    assert _stage_verdicts(STEADY, STEADY, only_after=("new_stage",)) == {"s": "within bound"}


def test_reread_prints_the_table_and_runs_nothing(tmp_path, capsys):
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps(_bench(STEADY, [1.3 * b for b in STEADY])))
    assert bench_pairs.main(["--reread", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["workload@seed", "metric"]
    # one row per end-to-end metric of the repository's BENCHMARK.json
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    assert len(lines) == 1 + len(spec["end_to_end"])
    assert lines[1].split()[:2] == ["w@seed1", "run_s"]
    assert lines[1].endswith("worse")


def test_reread_prints_stage_rows_after_the_end_to_end_rows(tmp_path, capsys):
    pairs = [{"before": {"s": b}, "after": {"s": 1.3 * b}} for b in STEADY]
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps({**_bench(STEADY, STEADY), "stages": {"pairs": pairs}}))
    assert bench_pairs.main(["--reread", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].split()[0] == "stage"
    assert lines[-1].split()[:2] == ["s", "median_s"]
    assert lines[-1].endswith("worse")


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_reread_reads_every_committed_bench_file(path, capsys):
    assert bench_pairs.main(["--reread", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    rows = len(json.loads(path.read_text())["end_to_end"]) * len(spec["end_to_end"])
    # the header, then one row per workload x seed x end-to-end metric
    head, *rest = lines
    assert head.split()[0] == "workload@seed"
    assert ["@seed" in line.split()[0] for line in rest[:rows]] == [True] * rows
    # what follows, if anything, is the stage table
    assert rest[rows:] == [] or rest[rows].split()[0] == "stage"
