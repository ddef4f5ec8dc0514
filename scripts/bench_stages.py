#!/usr/bin/env python3
"""Time the fixed-cost stages of a randomized-measurement round, in process.

Usage: PYTHONPATH=<checkout>/src python scripts/bench_stages.py [--repeats N]

Stages, each on a singlet ring quenched to t = 0.3:
  sample_haar_unitary   one Haar draw;
  rotate_state_l{8,16}  one rotation round, a fixed Haar unitary per qubit;
  random_round_l{8,16}  one ``experiment._random_round``: the draws, the
                        rotation, depolarizing at p_tot = 0.1 and the
                        multinomial, with the shot counts of the
                        ``rm_l8_mitigated`` and ``rm_l16_threads`` workloads.
Section ``gate1q`` times both forms of a one-qubit gate on every qubit of a
random state at L = 8, 12 and 16: ``np.matmul`` of the gate into the
(2^q, 2, R) view and ``state._strided_one_qubit``. ``apply_gate`` picks
between them by ``state.MATMUL_CUTOFF``. A package without that function
(a checkout from before it) gets no such section.

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
SHOTS = {8: 4096, 16: 16384}
GATE_CALLS = {8: 500, 12: 100, 16: 10}  # calls per block, by chain length


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
    from sshquench.experiment import _random_round
    from sshquench.randmeas import rotate_state, sample_haar_unitary

    rng = np.random.default_rng(11)
    yield "sample_haar_unitary", 2000, lambda: sample_haar_unitary(rng)
    for num_sites, calls in ((8, 200), (16, 10)):
        state = quench_circuit(0.3, num_sites, "singlet", "pbc").run()
        unitaries = [sample_haar_unitary(rng) for _ in range(num_sites)]
        yield (f"rotate_state_l{num_sites}", calls,
               lambda s=state, us=unitaries: rotate_state(s, us))
    for num_sites, calls in ((8, 100), (16, 5)):
        state = quench_circuit(0.3, num_sites, "singlet", "pbc").run()
        yield (f"random_round_l{num_sites}", calls,
               lambda s=state, n=SHOTS[num_sites]: _random_round(s, 1, n, rng, P_TOT))


def _gate_forms():
    """(chain length, qubit, form, calls per block, one call) for ``gate1q``."""
    from sshquench import state as state_module
    from sshquench.randmeas import sample_haar_unitary

    rng = np.random.default_rng(12)
    u = sample_haar_unitary(rng)
    for num_sites, calls in GATE_CALLS.items():
        vec = rng.standard_normal(1 << num_sites) + 1j * rng.standard_normal(1 << num_sites)
        vec /= np.linalg.norm(vec)
        for q in range(num_sites):
            psi = vec.reshape(1 << q, 2, -1)
            yield num_sites, q, "matmul", calls, lambda p=psi: np.matmul(u, p)
            yield (num_sites, q, "strided", calls,
                   lambda p=psi: state_module._strided_one_qubit(u, p))


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
    from sshquench import state as state_module

    result = {
        "provenance": provenance(),
        "repeats": repeats,
        "stages": {name: _time(call, calls, repeats) for name, calls, call in _stages()},
    }
    if hasattr(state_module, "_strided_one_qubit"):
        gate1q = {}
        for num_sites, q, form, calls, call in _gate_forms():
            row = gate1q.setdefault(f"l{num_sites}", {}).setdefault(f"q{q}", {})
            row[f"{form}_s"] = _time(call, calls, repeats)["median_s"]
        result["gate1q"] = gate1q
    return result


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
