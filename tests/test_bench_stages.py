"""Smoke test of ``scripts/bench_stages.py``: it runs and prints its keys in order.

No time is asserted; only the shape of the JSON it prints.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
from bench_stages import checkout_state  # noqa: E402

# The stages in the order the script documents and runs them. A stage's time
# depends on the stages that ran before it in the same process, so a new
# stage is appended here and at the end of ``_stages``, never inserted.
STAGES = (
    *(f"{form}_l{n}" for n in (8, 10, 12, 14, 16) for form in ("rotate_state", "blocks")),
    "sample_haar_unitary",
    "gate1q_construct",
    "kernel_n8",
    "kernel_n16",
    "random_round_l8",
    "random_round_l16",
    "prep_l16_neel",
    "prep_l16_singlet",
    "state_build_l16",
    "exact_twist_l16",
    "flip_outcomes_l16",
    "twist_point_l16",
    "neel_state_l16",
)


def test_one_repeat_prints_every_stage():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_stages.py"), "--repeats", "1"],
        env=env, check=True, timeout=300, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout)
    assert set(result) == {"provenance", "repeats", "stages"}
    assert set(result["provenance"]) == {
        "commit", "src_modified", "status", "python", "numpy", "nproc"
    }
    assert result["repeats"] == 1
    assert tuple(result["stages"]) == STAGES
    for stage in result["stages"].values():
        assert set(stage) == {"median_s", "calls_per_block", "blocks_s"}
        assert len(stage["blocks_s"]) == 1


def test_checkout_state_shows_an_edited_script(tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    for name in ("src/a.py", "scripts/b.py", "benchmark/c.py", "notes.txt"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "start")
    assert checkout_state(tmp_path)["status"] == []
    (tmp_path / "scripts" / "b.py").write_text("x = 2\n")
    (tmp_path / "notes.txt").write_text("not a tracked tree\n")
    state = checkout_state(tmp_path)
    assert state["status"] == [" M scripts/b.py"]
    assert state["src_modified"] is False
    (tmp_path / "src" / "new.py").write_text("")
    state = checkout_state(tmp_path)
    assert state["status"] == [" M scripts/b.py", "?? src/new.py"]
    assert state["src_modified"] is True
