#!/usr/bin/env python3
"""Time the fixed-cost stages of a randomized-measurement round, in process.

Usage: PYTHONPATH=<checkout>/src python scripts/bench_stages.py [--repeats N]

Stages:
  sample_haar_unitary   one Haar draw;
  gate1q_construct      one ``Gate1Q`` of a Haar unitary, unitarity check
                        included;
  kernel_n{8,16}        one ``purity_statistic`` (the Hamming kernel) of a
                        count vector over 2^8 and 2^16 outcomes;
  random_round_l{8,16}  one ``experiment._random_round``: the draws, the
                        rotation, depolarizing at p_tot = 0.1 and the
                        multinomial, with the shot counts of the
                        ``rm_l8_mitigated`` and ``rm_l16_threads`` workloads;
  state_build_l16       one time point's state of the ``twist_l16_readout``
                        workload: the fused link blocks at t = 0.3 applied
                        to the prepared Neel ring;
  exact_twist_l16       one ``exact_twist`` of that state.
Section ``rotate`` times one rotation round, a fixed Haar unitary per
qubit, at L = 8, 10, 12, 14 and 16: ``rotate_state_s`` as the package
does it, and ``k<k>_s`` for the cycled-block form with blocks of k = 1, 2
and 4 qubits, the last block shorter where k does not divide L (checkouts
without that form time only ``rotate_state``). ``rotate_state``'s block
size, and the chain length from which it rotates in blocks, come from these.
The rotations and rounds act on a singlet ring quenched to t = 0.3.
Section ``gate1q`` times the two forms of a one-qubit gate on every qubit
of a random state at L = 8, 12 and 16: ``matmul`` (``np.matmul`` of the
gate into the (2^q, 2, R) view) and ``kron`` (the package's kron form, for
rows R of at most ``KRON_MAX_ROWS``). ``apply_gate`` picks between them by
``state.MATMUL_LEADING`` and ``state.MATMUL_ROWS``. Section ``gate2q``
times a fused link block on every adjacent pair (a, a+1) of such states in
three forms: ``moveaxis`` (both axes moved to the front, one (4, 2^(L-2))
product, moved back), ``matmul`` into the (2^a, 4, R) view and ``kron``
(for R of at most ``KRON_MAX_ROWS``, where the package's kron form takes
4x4 matrices).

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
GATE_CALLS = {8: 500, 12: 100, 16: 10}  # calls per block, by chain length
ROTATE_CALLS = {8: 100, 10: 50, 12: 20, 14: 10, 16: 5}  # calls per block
KRON_MAX_ROWS = 64  # the kron form is timed up to this row length R


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
    from sshquench.circuits import evolution_circuit, prepare_neel
    from sshquench.experiment import _random_round
    from sshquench.observables import exact_twist
    from sshquench.randmeas import purity_statistic, sample_haar_unitary
    from sshquench.state import Gate1Q

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
               lambda s=state, n=SHOTS[num_sites]: _random_round(s, 1, n, rng, P_TOT))
    start = prepare_neel(16).run()
    evolution = evolution_circuit(0.3, 16, "pbc", fused=True)
    yield "state_build_l16", 20, lambda: evolution.apply(start)
    state = evolution.apply(start)
    yield "exact_twist_l16", 50, lambda: exact_twist(state, q=1, kind="spin")


def _kron_forms():
    """The package's kron gate form, and whether it takes 4x4 matrices.

    Checkouts before the two-qubit form have only the one-qubit
    ``_kron_one_qubit``.
    """
    from sshquench import state

    two_qubit = getattr(state, "_kron_form", None)
    return two_qubit or state._kron_one_qubit, two_qubit is not None


def _moveaxis(m, vec, a, num_sites):
    """``m`` on qubits (a, a+1) with both axes moved to the front and back."""
    psi = np.moveaxis(vec.reshape([2] * num_sites), (a, a + 1), (0, 1)).reshape(4, -1)
    out = (m @ psi).reshape([2] * num_sites)
    return np.ascontiguousarray(np.moveaxis(out, (0, 1), (a, a + 1))).reshape(-1)


def _gate_forms():
    """(section, chain length, qubit, form, calls per block, one call).

    ``gate1q`` forms act on the (2^q, 2, R) view, ``gate2q`` forms on qubits
    (q, q+1); the kron form only for R of at most ``KRON_MAX_ROWS``.
    """
    from sshquench.circuits import coupling_block_matrix
    from sshquench.randmeas import sample_haar_unitary

    kron, kron_two_qubit = _kron_forms()
    rng = np.random.default_rng(12)
    u = sample_haar_unitary(rng)
    block = coupling_block_matrix(0.3)
    for num_sites, calls in GATE_CALLS.items():
        vec = rng.standard_normal(1 << num_sites) + 1j * rng.standard_normal(1 << num_sites)
        vec /= np.linalg.norm(vec)
        for q in range(num_sites):
            psi = vec.reshape(1 << q, 2, -1)
            yield "gate1q", num_sites, q, "matmul", calls, lambda p=psi: np.matmul(u, p)
            if psi.shape[2] <= KRON_MAX_ROWS:  # its (2R, 2R) factor has 4 R^2 entries
                yield "gate1q", num_sites, q, "kron", calls, lambda p=psi: kron(u, p)
        for a in range(num_sites - 1):
            psi = vec.reshape(1 << a, 4, -1)
            yield ("gate2q", num_sites, a, "moveaxis", calls,
                   lambda a=a, n=num_sites: _moveaxis(block, vec, a, n))
            yield "gate2q", num_sites, a, "matmul", calls, lambda p=psi: np.matmul(block, p)
            if kron_two_qubit and psi.shape[2] <= KRON_MAX_ROWS:
                yield "gate2q", num_sites, a, "kron", calls, lambda p=psi: kron(block, p)


def _rotations():
    """(chain length, form, calls per block, one call) of section ``rotate``."""
    from sshquench import quench_circuit, randmeas

    blocks = getattr(randmeas, "_rotate_in_blocks", None)
    rng = np.random.default_rng(13)
    for num_sites, calls in ROTATE_CALLS.items():
        state = quench_circuit(0.3, num_sites, "singlet", "pbc").run()
        us = [randmeas.sample_haar_unitary(rng) for _ in range(num_sites)]
        yield (num_sites, "rotate_state", calls,
               lambda s=state, us=us: randmeas.rotate_state(s, us))
        for k in (1, 2, 4) if blocks else ():
            yield num_sites, f"k{k}", calls, lambda s=state, us=us, k=k: blocks(s, us, k)


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
    gates = {"gate1q": {}, "gate2q": {}}
    for section, num_sites, q, form, calls, call in _gate_forms():
        row = gates[section].setdefault(f"l{num_sites}", {}).setdefault(f"q{q}", {})
        row[f"{form}_s"] = _time(call, calls, repeats)["median_s"]
    rotate = {}
    for num_sites, form, calls, call in _rotations():
        row = rotate.setdefault(f"l{num_sites}", {})
        row[f"{form}_s"] = _time(call, calls, repeats)["median_s"]
    return {
        "provenance": provenance(),
        "repeats": repeats,
        "stages": {name: _time(call, calls, repeats) for name, calls, call in _stages()},
        **gates,
        "rotate": rotate,
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
