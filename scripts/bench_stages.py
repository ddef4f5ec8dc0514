#!/usr/bin/env python3
"""Time the fixed-cost stages of a randomized-measurement round, in process.

Usage: PYTHONPATH=<checkout>/src python scripts/bench_stages.py [--repeats N]

Stages, in the order they run (a stage's time depends on the stages run
before it in this process, so a new stage goes at the end):
  rotate_state_l<n>, blocks_l<n>, for n = 8, 10, 12, 14, 16 in turn:
  rotate_state_l<n>     one rotation round, a fixed Haar unitary per qubit,
                        as ``rotate_state`` does it;
  blocks_l<n>           the same round in the cycled-block form, blocks of
                        4 qubits, the last one shorter where 4 does not
                        divide L. The chain length from which
                        ``rotate_state`` rotates in blocks comes from these;
  sample_haar_unitary   one Haar draw;
  gate1q_construct      one ``Gate1Q`` of a Haar unitary, unitarity check
                        included;
  kernel_n{8,16}        one ``purity_statistic`` (the Hamming kernel) of a
                        count vector over 2^8 and 2^16 outcomes;
  random_round_l{8,16}  one ``experiment._random_round``: the draws, the
                        rotation, depolarizing at p_tot = 0.1 and the
                        multinomial, with the shot counts of the
                        ``rm_l8_mitigated`` and ``rm_l16_threads`` workloads;
  prep_l16_{neel,singlet}
                        one ``prepare_neel(16).run()`` and one
                        ``prepare_singlet_product(16).run()``: the
                        preparation circuits as one run of stages;
  state_build_l16       one time point's state of the ``twist_l16_readout``
                        workload: the fused link blocks at t = 0.3 applied
                        to the prepared Neel ring;
  exact_twist_l16       one ``exact_twist`` of that state;
  flip_outcomes_l16     one ``flip_outcomes`` at f = 0.02 of 65536 shots
                        sampled from that state, as that workload flips them;
  twist_point_l16       one ``experiment._twist_point`` of that state under
                        that workload's settings: both exact twists, the
                        sampling, the flips, postselection and both
                        estimates of one time point.
The rotations and rounds act on a singlet ring quenched to t = 0.3.

Each timing runs ``--repeats`` blocks of calls and reports the median over
blocks of the time per call, in seconds. The JSON goes to stdout. The
package is imported from the Python path, so pointing ``PYTHONPATH`` at two
checkouts compares them. The JSON carries provenance: the commit of the
package's checkout, whether its ``src`` differs from that commit, the Python
and numpy versions and nproc. BLAS runs on one thread unless the
environment says otherwise, as in the children of ``benchmark/run.py``.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # read once, when numpy loads BLAS

import numpy as np  # noqa: E402

P_TOT = 0.1
SHOTS = {8: 4096, 16: 16384}  # per round, by chain length
TWIST_SHOTS, TWIST_FLIP = 65536, 0.02  # per time point of ``twist_l16_readout``
ROTATE_CALLS = {8: 100, 10: 50, 12: 20, 14: 10, 16: 5}  # calls per block


def _git(root: Path, *args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def checkout_state(root: Path) -> dict:
    """Commit of a checkout and whether its ``src`` differs from it."""
    status = _git(root, "status", "--porcelain", "--", "src")
    return {
        "commit": _git(root, "rev-parse", "HEAD") or "unavailable",
        "src_modified": None if status is None else bool(status),
    }


def _stages():
    """(name, calls per block, one call) in report order."""
    from sshquench import quench_circuit
    from sshquench.circuits import evolution_circuit, prepare_neel, prepare_singlet_product
    from sshquench.config import parse_config_text
    from sshquench.experiment import _random_round, _twist_point
    from sshquench.noise import flip_outcomes
    from sshquench.observables import exact_twist, gauge_reference
    from sshquench.randmeas import _rotate_in_blocks, purity_statistic, rotate_state
    from sshquench.randmeas import sample_haar_unitary
    from sshquench.state import Gate1Q, probabilities, sample_outcomes

    # the rotations run first: a stage's time depends on what ran before it in
    # the process (``kernel_n16`` read about 1.4x slower with them run last)
    rotation_rng = np.random.default_rng(13)
    for num_sites, calls in ROTATE_CALLS.items():
        ring = quench_circuit(0.3, num_sites, "singlet", "pbc").run()
        us = [sample_haar_unitary(rotation_rng) for _ in range(num_sites)]
        yield f"rotate_state_l{num_sites}", calls, lambda s=ring, us=us: rotate_state(s, us)
        yield f"blocks_l{num_sites}", calls, lambda s=ring, us=us: _rotate_in_blocks(s, us)
    rng = np.random.default_rng(11)
    yield "sample_haar_unitary", 2000, lambda: sample_haar_unitary(rng)
    u = sample_haar_unitary(rng)
    yield "gate1q_construct", 2000, lambda: Gate1Q(u, 3)
    for num_qubits, calls in ((8, 1000), (16, 20)):
        shots = SHOTS[num_qubits]
        counts = rng.multinomial(shots, np.full(1 << num_qubits, 1.0 / (1 << num_qubits)))
        yield (f"kernel_n{num_qubits}", calls,
               lambda c=counts, n=shots: purity_statistic(c, n, "unbiased"))
    for num_sites, calls in ((8, 100), (16, 5)):
        state = quench_circuit(0.3, num_sites, "singlet", "pbc").run()
        yield (f"random_round_l{num_sites}", calls,
               lambda s=state, n=SHOTS[num_sites]: _random_round(s, n, rng, P_TOT))
    neel, singlet = prepare_neel(16), prepare_singlet_product(16)
    yield "prep_l16_neel", 20, neel.run
    yield "prep_l16_singlet", 20, singlet.run
    start = neel.run()
    evolution = evolution_circuit(0.3, 16, "pbc", fused=True)
    yield "state_build_l16", 20, lambda: evolution.run(start)
    state = evolution.run(start)
    yield "exact_twist_l16", 50, lambda: exact_twist(state, q=1, kind="spin")
    outcomes = sample_outcomes(probabilities(state), TWIST_SHOTS, rng)
    yield "flip_outcomes_l16", 20, lambda: flip_outcomes(outcomes, 16, TWIST_FLIP, rng)
    # the workload's settings with its one time point at the state's t
    config = parse_config_text(
        "L = 16\ninitial = neel\nboundary = pbc\ntimes = 0.3\nquantities = twist,berry\n"
        f"n_shots = {TWIST_SHOTS}\nreadout_flip = {TWIST_FLIP}\nseed = 777\n"
    )
    reference = gauge_reference(start)
    yield "twist_point_l16", 20, lambda: _twist_point(config, state, 0, reference, 0.0)


def _time(call, calls: int, repeats: int) -> dict:
    call()  # warm caches outside the timed blocks
    per_call = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        per_call.append((time.perf_counter() - start) / calls)
    return {"median_s": statistics.median(per_call), "calls_per_block": calls,
            "blocks_s": per_call}


def provenance() -> dict:
    import sshquench

    return {
        **checkout_state(Path(sshquench.__file__).resolve().parents[2]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def measure(repeats: int) -> dict:
    return {
        "provenance": provenance(),
        "repeats": repeats,
        "stages": {name: _time(call, calls, repeats) for name, calls, call in _stages()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    print(json.dumps(measure(args.repeats), indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
