"""Circuits for the dimerized XX chain quench protocols.

Initial-state preparation and the exact flat-band time evolution. At
(J, J') = (0, 1) the propagator factorizes into commuting two-qubit
blocks exp(-i t (XX + YY)) on the intercell links, so evolution circuits for
arbitrary t carry no Trotter error. Gate-level circuits build each block from
the XX and YY Ising evolutions, basis-wrapped copies of CX . Rz(2t) . CX;
fused circuits apply it as one dense 4x4 gate. ``Circuit.run`` runs a
circuit of ring-local gates (one-qubit gates and pairs (a, (a+1) mod L)),
such as the preparations and the fused evolution, as one run of cycled
stages (``state._apply_stages``).

Layer counting models nearest-neighbor hardware congestion: a two-qubit gate
occupies every site in the closed interval between its endpoints, so the
wrap-around link of a periodic chain serializes against the bulk while bulk
links run in parallel. Counts are comparable between boundary conditions in
trend only; they do not reproduce any particular device transpiler.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .state import (
    Gate, Gate1Q, Gate2Q, QuantumState, _apply_stages, apply_gate, new_basis_state,
)

_SQ2 = 1.0 / np.sqrt(2.0)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_S = np.diag([1.0, 1.0j])
_SDG = np.diag([1.0, -1.0j])
_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def x_gate(qubit: int) -> Gate1Q:
    return Gate1Q(_X, qubit, name="X")


def h_gate(qubit: int) -> Gate1Q:
    return Gate1Q(_H, qubit, name="H")


def s_gate(qubit: int) -> Gate1Q:
    return Gate1Q(_S, qubit, name="S")


def sdg_gate(qubit: int) -> Gate1Q:
    return Gate1Q(_SDG, qubit, name="SDG")


def rz_gate(qubit: int, theta: float) -> Gate1Q:
    """Rz(theta) = diag(exp(-i theta/2), exp(+i theta/2))."""
    m = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    return Gate1Q(m, qubit, name="RZ", param=float(theta))


def cx_gate(control: int, target: int) -> Gate2Q:
    return Gate2Q(_CX, (control, target), name="CX")


def coupling_block_matrix(t: float) -> np.ndarray:
    """Closed form of exp(-i t (XX + YY)) on one link."""
    c, s = cos(2.0 * t), sin(2.0 * t)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )


def coupling_block_gate(a: int, b: int, t: float) -> Gate2Q:
    return Gate2Q(coupling_block_matrix(t), (a, b), name="XXYY", param=float(t))


@dataclass(frozen=True)
class Circuit:
    """Immutable ordered gate list on ``num_qubits`` qubits."""

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for g in self.gates:
            if max(g.qubits) >= self.num_qubits:
                raise ValueError(
                    f"gate {g.name} on {g.qubits} out of range for "
                    f"{self.num_qubits} qubits"
                )

    def run(self, start: QuantumState | None = None) -> QuantumState:
        """Apply the circuit to ``start`` of as many qubits, or to |0...0> if None:
        ring-local gates in one run of cycled stages, any other circuit gate by gate."""
        n = self.num_qubits
        state = new_basis_state(n, "0" * n) if start is None else start
        if state.num_qubits != n:
            raise ValueError("start state and circuit act on different qubit counts")
        if all(isinstance(g, Gate1Q) or g.qubits[1] == (g.qubits[0] + 1) % n for g in self.gates):
            return _apply_stages(state, [(g.qubits[0], g.matrix.T) for g in self.gates])
        for g in self.gates:
            state = apply_gate(state, g)
        return state

    def then(self, other: "Circuit") -> "Circuit":
        if other.num_qubits != self.num_qubits:
            raise ValueError("circuits act on different qubit counts")
        return Circuit(self.num_qubits, self.gates + other.gates)


def _gate_span(gate: Gate) -> range:
    qs = gate.qubits
    return range(min(qs), max(qs) + 1)


def layers(circuit: Circuit) -> list[list[Gate]]:
    """Partition the gate list into parallel layers.

    Gates are placed as early as their occupied site intervals allow; gates
    within a layer act on disjoint qubits.
    """
    occupied = [0] * circuit.num_qubits  # last layer touching each site
    out: list[list[Gate]] = []
    for g in circuit.gates:
        span = _gate_span(g)
        layer = 1 + max(occupied[s] for s in span)
        while len(out) < layer:
            out.append([])
        out[layer - 1].append(g)
        for s in span:
            occupied[s] = layer
    return out


def layer_count(circuit: Circuit) -> int:
    return len(layers(circuit))


def _require_even(num_sites: int) -> None:
    if num_sites < 2 or num_sites % 2:
        raise ValueError(f"chain length must be even and >= 2, got {num_sites}")


def prepare_neel(num_sites: int) -> Circuit:
    """|1 0 1 0 ...>: X on every odd site (sites are 1-based, qubits 0-based)."""
    _require_even(num_sites)
    return Circuit(num_sites, tuple(x_gate(q) for q in range(0, num_sites, 2)))


def prepare_singlet_product(num_sites: int) -> Circuit:
    """Product of singlets (|01> - |10>)/sqrt(2) on the intracell pairs.

    Each pair (2j-1, 2j) is built by (CX)(H x I)(X x X).
    """
    _require_even(num_sites)
    gates: list[Gate] = []
    for a in range(0, num_sites, 2):
        b = a + 1
        gates += [x_gate(a), x_gate(b), h_gate(a), cx_gate(a, b)]
    return Circuit(num_sites, tuple(gates))


def evolution_links(num_sites: int, boundary: str) -> list[tuple[int, int]]:
    """Intercell links, which carry the coupling J' = 1; 0-based.

    Sites 2 and 3 (1-based) form the first link; a periodic chain adds the
    wrap link (L, 1). An open chain of length 2 has no links at all.
    """
    _require_even(num_sites)
    if boundary not in ("pbc", "obc"):
        raise ValueError(f"boundary must be 'pbc' or 'obc', got {boundary!r}")
    links = [(a, a + 1) for a in range(1, num_sites - 1, 2)]
    if boundary == "pbc":
        links.append((num_sites - 1, 0))
    return links


def _zz_block(a: int, b: int, t: float) -> list[Gate]:
    return [cx_gate(a, b), rz_gate(b, 2.0 * t), cx_gate(a, b)]


def _link_gates(a: int, b: int, t: float) -> list[Gate]:
    xx = [h_gate(a), h_gate(b)] + _zz_block(a, b, t) + [h_gate(a), h_gate(b)]
    yy = (
        [s_gate(a), s_gate(b), h_gate(a), h_gate(b)]
        + _zz_block(a, b, t)
        + [h_gate(a), h_gate(b), sdg_gate(a), sdg_gate(b)]
    )
    return xx + yy


def evolution_circuit(
    t: float, num_sites: int, boundary: str = "pbc", fused: bool = False
) -> Circuit:
    """Exact propagator exp(-i t H) for the fully dimerized chain.

    ``fused`` replaces each link's gate sequence by the single dense block
    exp(-i t (XX + YY)); both modes implement the same unitary and are
    cross-checked in the test suite. Runs simulate with the fused blocks;
    the gate-level sequence serves ``layer_count`` and ``circuit_to_text``.
    """
    gates: list[Gate] = []
    for a, b in evolution_links(num_sites, boundary):
        if fused:
            gates.append(coupling_block_gate(a, b, t))
        else:
            gates += _link_gates(a, b, t)
    return Circuit(num_sites, tuple(gates))


def quench_circuit(
    t: float, num_sites: int, initial: str, boundary: str = "pbc"
) -> Circuit:
    """State preparation followed by evolution to time ``t``."""
    if initial == "neel":
        prep = prepare_neel(num_sites)
    elif initial == "singlet":
        prep = prepare_singlet_product(num_sites)
    else:
        raise ValueError(f"initial must be 'neel' or 'singlet', got {initial!r}")
    return prep.then(evolution_circuit(t, num_sites, boundary))


def circuit_to_text(circuit: Circuit) -> str:
    """One gate per line: ``NAME site [site] [param]`` with 1-based sites."""
    lines = []
    for g in circuit.gates:
        fields = [g.name] + [str(q + 1) for q in g.qubits]
        if g.param is not None:
            fields.append(f"{g.param:.12g}")
        lines.append(" ".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")
