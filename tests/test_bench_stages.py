"""Smoke test of ``scripts/bench_stages.py``: it runs and prints its keys in order.

No time is asserted; only the shape of the JSON it prints.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

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
)


def test_one_repeat_prints_every_stage():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_stages.py"), "--repeats", "1"],
        env=env, check=True, timeout=300, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout)
    assert set(result) == {"provenance", "repeats", "stages"}
    assert set(result["provenance"]) == {"commit", "src_modified", "python", "numpy", "nproc"}
    assert result["repeats"] == 1
    assert tuple(result["stages"]) == STAGES
    for stage in result["stages"].values():
        assert set(stage) == {"median_s", "calls_per_block", "blocks_s"}
        assert len(stage["blocks_s"]) == 1
