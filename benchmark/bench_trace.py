"""In-memory span recorder and the wrappers that attach it to sshquench.

``install`` replaces the module attributes that the pipeline actually looks
up at call time (the names imported into ``sshquench.experiment``, the
``apply_gate`` names of ``randmeas`` and ``circuits``, ``Circuit.run`` and
``Circuit.then``, the dataclass validators, and the two functions the CLI
calls) with wrappers that record one span per call: name, start, end,
parent and thread id. Nothing in the package is edited; the wrappers live
only in the traced child process.

A span's self time is its duration minus the time of the child spans on the
same thread. Rounds that ``_parallel_map`` hands to worker threads are
recorded with the round section as parent, so their time is not subtracted
from the main thread's spans.
"""
from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

# span name -> names looked up in sshquench.experiment
EXPERIMENT_CALLS = {
    "config.parse": ("parse_config",),
    "circuits.build": ("prepare_neel", "prepare_singlet_product", "evolution_circuit"),
    "circuits.layer_count": ("layer_count",),
    "state.probabilities": ("probabilities",),
    "state.sample": ("sample_outcomes",),
    "state.counts": ("counts_from_outcomes",),
    "randmeas.seed": ("child_generator",),
    "randmeas.haar": ("sample_haar_unitary",),
    "randmeas.rotate": ("rotate_state",),
    "randmeas.marginal": ("marginal_counts",),
    "randmeas.kernel": ("purity_statistic",),
    "noise.depolarize": ("apply_depolarizing",),
    "noise.flip": ("flip_outcomes",),
    "noise.p_tot_fit": ("estimate_p_tot_from_full_purity",),
    "noise.mitigate": ("mitigate_purity",),
    "observables.twist": ("twist_order_parameter", "particle_twist_amplitude"),
    "observables.exact_twist": ("exact_twist", "gauge_reference"),
    "observables.berry": ("berry_phase",),
    "observables.postselect": ("postselect_half_filling",),
    "oracle.closed_form": ("closed_form_entropy",),
}

# Per-layer metrics in report order: (metric, unit). ``_s`` is self time
# summed over a span name, ``_calls`` the number of such spans.
PER_LAYER = (
    ("randmeas.haar_s", "s"),
    ("randmeas.haar_calls", "count"),
    ("randmeas.seed_s", "s"),
    ("randmeas.seed_calls", "count"),
    ("randmeas.rotate_s", "s"),
    ("randmeas.shot_table_s", "s"),
    ("randmeas.marginal_s", "s"),
    ("randmeas.marginal_calls", "count"),
    ("randmeas.kernel_s", "s"),
    ("randmeas.kernel_calls", "count"),
    ("randmeas.rounds", "count"),
    ("state.validate_s", "s"),
    ("state.validate_calls", "count"),
    ("state.sample_s", "s"),
    ("state.counts_s", "s"),
    ("state.gate1q_s", "s"),
    ("state.gate1q_calls", "count"),
    ("state.gate2q_s", "s"),
    ("state.gate2q_calls", "count"),
    ("state.probabilities_s", "s"),
    ("state.bytes_moved_computed", "B"),
    ("noise.depolarize_s", "s"),
    ("noise.flip_s", "s"),
    ("noise.p_tot_fit_s", "s"),
    ("noise.mitigate_s", "s"),
    ("noise.p_tot_clamped", "frac"),
    ("noise.mitigated_clamped", "frac"),
    ("circuits.run_s", "s"),
    ("circuits.run_calls", "count"),
    ("circuits.gates_applied", "count"),
    ("circuits.build_s", "s"),
    ("circuits.layer_count_s", "s"),
    ("observables.twist_s", "s"),
    ("observables.exact_twist_s", "s"),
    ("observables.berry_s", "s"),
    ("observables.postselect_s", "s"),
    ("observables.postselect_kept_frac", "frac"),
    ("oracle.closed_form_s", "s"),
    ("config.parse_s", "s"),
    ("experiment.self_s", "s"),
    ("experiment.parallel_busy_frac", "frac"),
    ("experiment.bytes_written", "B"),
    ("experiment.report_s", "s"),
    ("trace.overhead_s", "s"),
)
MEASURED_OUTSIDE = ("experiment.bytes_written", "trace.overhead_s")


class Tracer:
    """Spans and counters of one process, kept in memory until ``write``."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, thread, child_time]
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: int | None = None) -> list:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        span = [next(self._ids), name, time.perf_counter(), 0.0, parent, threading.get_ident(), 0.0]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][6] += span[3] - span[2]

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` may count."""

        @wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(args, result)
            return result

        return traced

    def self_times(self) -> tuple[dict[str, float], Counter]:
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for _id, name, start, end, _parent, _thread, child in self.spans:
            self_s[name] += end - start - child
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self) -> dict[str, float]:
        """The ``PER_LAYER`` metrics that spans and counters determine.

        ``experiment.bytes_written`` and ``trace.overhead_s`` are measured
        outside the traced call and filled in by the caller.
        """
        self_s, calls = self.self_times()
        c = self.counters
        out = {}
        for metric, _unit in PER_LAYER:
            if metric in MEASURED_OUTSIDE:
                continue
            if metric.endswith("_s"):
                out[metric] = self_s[metric[:-2]]
            elif metric.endswith("_calls"):
                out[metric] = calls[metric[: -len("_calls")]]
        out["experiment.self_s"] = self_s["experiment"]
        out["randmeas.rounds"] = calls["randmeas.rotate"]
        out["state.bytes_moved_computed"] = c["gate_bytes"]
        out["circuits.gates_applied"] = c["circuit_gates"]
        out["noise.p_tot_clamped"] = _share(c["p_tot_clamped"], calls["noise.p_tot_fit"])
        out["noise.mitigated_clamped"] = _share(c["mitigated_clamped"], calls["noise.mitigate"])
        out["observables.postselect_kept_frac"] = _share(c["kept_shots"], c["postselect_shots"])
        out["experiment.parallel_busy_frac"] = _share(c["round_busy_s"], c["round_capacity_s"])
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON rows: id, name, start, end, parent, thread."""
        rows = [span[:6] for span in self.spans]
        path.write_text(json.dumps({"fields": ["id", "name", "start", "end", "parent", "thread"], "spans": rows}))


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _patch(patches: list, owner, attr: str, value) -> None:
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, value)


def install(tracer: Tracer) -> list:
    """Wrap the sshquench call sites; returns (owner, attribute, original)."""
    from sshquench import circuits, cli, experiment, randmeas, state

    def clamped(key):
        return lambda args, result: tracer.count(key, result.clamped)

    def kept(args, result):
        tracer.count("postselect_shots", sum(args[0].values()))
        tracer.count("kept_shots", sum(result.values()))

    after = {
        "estimate_p_tot_from_full_purity": clamped("p_tot_clamped"),
        "mitigate_purity": clamped("mitigated_clamped"),
        "postselect_half_filling": kept,
    }
    patches: list = []
    for span, names in EXPERIMENT_CALLS.items():
        for attr in names:
            wrapped = tracer.wrap(span, getattr(experiment, attr), after.get(attr))
            _patch(patches, experiment, attr, wrapped)

    for module, counter in ((randmeas, None), (circuits, "circuit_gates")):
        _patch(patches, module, "apply_gate", _gate_wrapper(tracer, module.apply_gate, counter))

    for cls in (state.QuantumState, state.Gate1Q, state.Gate2Q):
        _patch(patches, cls, "__post_init__", tracer.wrap("state.validate", cls.__post_init__))
    _patch(patches, randmeas.ShotTable, "__post_init__",
           tracer.wrap("randmeas.shot_table", randmeas.ShotTable.__post_init__))
    _patch(patches, circuits.Circuit, "run", tracer.wrap("circuits.run", circuits.Circuit.run))
    _patch(patches, circuits.Circuit, "then", tracer.wrap("circuits.build", circuits.Circuit.then))
    _patch(patches, experiment, "_parallel_map", _parallel_map_wrapper(tracer, experiment._parallel_map))
    _patch(patches, cli, "run_experiment", tracer.wrap("experiment", cli.run_experiment))
    _patch(patches, cli, "compare_report", tracer.wrap("experiment.report", cli.compare_report))
    return patches


@contextmanager
def installed(tracer: Tracer):
    """``install`` for the duration of a ``with`` block."""
    patches = install(tracer)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _gate_wrapper(tracer: Tracer, apply_gate, counter: str | None):
    from sshquench.state import Gate1Q

    @wraps(apply_gate)
    def traced(state, gate):
        # one read and one write of the complex128 amplitude vector
        tracer.count("gate_bytes", 2 * 16 * (1 << state.num_qubits))
        if counter is not None:
            tracer.count(counter)
        span = tracer.open("state.gate1q" if isinstance(gate, Gate1Q) else "state.gate2q")
        try:
            return apply_gate(state, gate)
        finally:
            tracer.close(span)

    return traced


def _parallel_map_wrapper(tracer: Tracer, parallel_map):
    """Round section span plus busy time of the rounds it runs."""

    @wraps(parallel_map)
    def traced(fn, items, threads):
        section = tracer.open("experiment.rounds")
        busy: list[float] = []  # list.append is atomic across threads

        def one_item(*args):
            span = tracer.open("experiment", parent=section[0])
            try:
                return fn(*args)
            finally:
                tracer.close(span)
                busy.append(span[3] - span[2])

        try:
            return parallel_map(one_item, items, threads)
        finally:
            tracer.close(section)
            tracer.count("round_busy_s", sum(busy))
            tracer.count("round_capacity_s", threads * (section[3] - section[2]))

    return traced
