"""Preparation and evolution circuits against kron/expm references."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (
    dense_operator,
    moveaxis_two_qubit,
    qubit_bits,
    random_state_vector,
    random_unitary_4x4,
    ref_evolved_vector,
    ref_singlet_vector,
)
from sshquench import circuits
from sshquench.circuits import (
    Circuit,
    circuit_to_text,
    coupling_block_gate,
    coupling_block_matrix,
    evolution_circuit,
    evolution_links,
    layer_count,
    layers,
    prepare_neel,
    prepare_singlet_product,
    quench_circuit,
    rz_gate,
)
from sshquench.randmeas import sample_haar_unitary
from sshquench.state import (
    Gate1Q,
    Gate2Q,
    QuantumState,
    apply_gate,
    new_basis_state,
    overlap,
    probabilities,
)


class TestPreparation:
    @pytest.mark.parametrize("num_sites", [2, 4, 8])
    def test_neel_hits_alternating_string(self, num_sites):
        state = prepare_neel(num_sites).run()
        want = "10" * (num_sites // 2)
        dist = probabilities(state)
        assert dist[int(want, 2)] == pytest.approx(1.0, abs=1e-12)

    def test_neel_is_unentangled(self):
        state = prepare_neel(4).run()
        from sshquench.state import purity

        assert purity(state, (0, 1)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("num_sites", [2, 4, 8])
    def test_singlet_product_overlap(self, num_sites):
        state = prepare_singlet_product(num_sites).run()
        ref = ref_singlet_vector(num_sites)
        assert abs(overlap(state, type(state)(num_sites, ref))) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_singlet_pair_amplitudes(self):
        state = prepare_singlet_product(2).run()
        np.testing.assert_allclose(
            state.amplitudes, [0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0], atol=1e-12
        )

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            prepare_neel(5)
        with pytest.raises(ValueError):
            prepare_singlet_product(3)


class TestEvolution:
    def test_links(self):
        assert evolution_links(8, "obc") == [(1, 2), (3, 4), (5, 6)]
        assert evolution_links(8, "pbc") == [(1, 2), (3, 4), (5, 6), (7, 0)]
        assert evolution_links(2, "obc") == []

    def test_length_two_open_chain_is_empty(self):
        assert evolution_circuit(0.3, 2, "obc").gates == ()

    def test_time_zero_is_identity(self):
        initial = prepare_neel(4).run()
        evolved = evolution_circuit(0.0, 4, "pbc").run(initial)
        assert abs(overlap(initial, evolved)) == pytest.approx(1.0, abs=1e-10)

    def test_coupling_block_full_swap(self):
        # exp(-i t (XX+YY)) at t = pi/4 swaps |01> and |10> up to phase
        state = new_basis_state(2, "01")
        from sshquench.circuits import coupling_block_gate

        out = apply_gate(state, coupling_block_gate(0, 1, np.pi / 4))
        assert abs(out.amplitudes[2]) == pytest.approx(1.0, abs=1e-12)

    def test_coupling_block_matches_matrix_exponential(self):
        xx = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]).astype(complex)
        yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
        for t in (0.0, 0.21, 1.3):
            np.testing.assert_allclose(
                coupling_block_matrix(t), expm(-1j * t * (xx + yy)), atol=1e-12
            )

    @pytest.mark.parametrize("initial", ["neel", "singlet"])
    @pytest.mark.parametrize("boundary,pbc", [("pbc", True), ("obc", False)])
    def test_matches_expm_reference(self, initial, boundary, pbc):
        num_sites, t = 6, 0.47
        state = quench_circuit(t, num_sites, initial, boundary).run()
        ref = ref_evolved_vector(num_sites, pbc, initial, t)
        got = state.amplitudes
        # global phase free: compare via overlap magnitude and probabilities
        assert abs(np.vdot(ref, got)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("boundary", ["pbc", "obc"])
    def test_fused_mode_agrees_elementwise(self, boundary):
        num_sites, t = 8, 0.31
        prep = prepare_singlet_product(num_sites)
        a = prep.then(evolution_circuit(t, num_sites, boundary)).run()
        b = prep.then(evolution_circuit(t, num_sites, boundary, fused=True)).run()
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-10)

    @pytest.mark.parametrize("num_sites", [8, 16])
    @pytest.mark.parametrize("initial", ["neel", "singlet"])
    @pytest.mark.parametrize("boundary", ["pbc", "obc"])
    def test_run_from_the_prepared_state_keeps_the_bits(self, num_sites, initial, boundary):
        prep = (prepare_neel if initial == "neel" else prepare_singlet_product)(num_sites)
        start = prep.run()
        for t in (0.0, 0.31, 1.2):
            evolution = evolution_circuit(t, num_sites, boundary, fused=True)
            from_start = evolution.run(start).amplitudes
            assert np.array_equal(from_start, prep.then(evolution).run().amplitudes)

    def test_run_rejects_a_start_state_of_another_size(self):
        with pytest.raises(ValueError, match="different qubit counts"):
            evolution_circuit(0.3, 6, "pbc").run(prepare_neel(8).run())

    @settings(max_examples=20, deadline=None)
    @given(
        t1=st.floats(0.0, 1.5, allow_nan=False),
        t2=st.floats(0.0, 1.5, allow_nan=False),
    )
    def test_group_property(self, t1, t2):
        initial = prepare_neel(6).run()
        once = evolution_circuit(t1 + t2, 6, "pbc").run(initial)
        twice = evolution_circuit(t2, 6, "pbc").run(
            evolution_circuit(t1, 6, "pbc").run(initial)
        )
        assert abs(overlap(once, twice)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("initial", ["neel", "singlet"])
    def test_magnetization_sector_preserved(self, initial):
        num_sites = 8
        state = quench_circuit(0.83, num_sites, initial, "pbc").run()
        weights = sum(qubit_bits(np.arange(1 << num_sites), num_sites))
        leaked = probabilities(state)[weights != num_sites // 2].sum()
        assert leaked < 1e-12

    @pytest.mark.parametrize(
        "initial,boundary", [("neel", "pbc"), ("singlet", "pbc"), ("neel", "obc")]
    )
    def test_period_half_pi_up_to_phase(self, initial, boundary):
        t = 0.29
        a = quench_circuit(t, 8, initial, boundary).run()
        b = quench_circuit(t + np.pi / 2, 8, initial, boundary).run()
        assert abs(overlap(a, b)) == pytest.approx(1.0, abs=1e-9)

    def test_obc_singlet_period_pi(self):
        a = quench_circuit(0.29, 8, "singlet", "obc").run()
        b = quench_circuit(0.29 + np.pi, 8, "singlet", "obc").run()
        assert abs(overlap(a, b)) == pytest.approx(1.0, abs=1e-9)

    def test_neel_quench_entropy_peak(self):
        from sshquench.state import purity

        state = quench_circuit(np.pi / 8, 4, "neel", "pbc").run()
        entropy = -np.log2(purity(state, (0, 1)))
        assert entropy == pytest.approx(2.0, abs=1e-9)


def _gate_by_gate(circuit, state):
    """The gates one by one, each two-qubit gate by the moveaxis reference."""
    for g in circuit.gates:
        if isinstance(g, Gate2Q):
            vec = moveaxis_two_qubit(g.matrix, state.amplitudes, g.qubits, state.num_qubits)
            state = QuantumState(state.num_qubits, vec)
        else:
            state = apply_gate(state, g)
    return state


def _refuse(*args):
    raise AssertionError("unexpected path")


class TestLinkLayer:
    """A circuit of ring-local gates, one-qubit gates and ring pairs
    (a, (a+1) mod L), runs in one run of cycled stages."""

    @pytest.mark.parametrize("num_sites", range(2, 17, 2))
    @pytest.mark.parametrize("initial", ["neel", "singlet"])
    @pytest.mark.parametrize("boundary", ["pbc", "obc"])
    def test_same_bits_as_gate_by_gate(self, num_sites, initial, boundary, monkeypatch):
        start = (prepare_neel if initial == "neel" else prepare_singlet_product)(num_sites).run()
        for t in (0.0, 0.31, 0.77, 1.2, 2.9):
            evolution = evolution_circuit(t, num_sites, boundary, fused=True)
            want = _gate_by_gate(evolution, start).amplitudes
            with monkeypatch.context() as m:
                m.setattr(circuits, "apply_gate", _refuse)  # the layer path only
                got = evolution.run(start).amplitudes
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("num_sites", [2, 4, 6, 8, 12, 16])
    def test_random_unitary_layer_same_bits_as_gate_by_gate(self, num_sites, monkeypatch):
        rng = np.random.default_rng(num_sites)
        start = QuantumState(num_sites, random_state_vector(num_sites, rng))
        links = [(a, (a + 1) % num_sites) for a in range(1, num_sites, 2)]  # the wrap link too
        order = rng.permutation(len(links))  # the stages in any order
        layer = Circuit(num_sites, tuple(Gate2Q(random_unitary_4x4(rng), links[i]) for i in order))
        want = _gate_by_gate(layer, start).amplitudes
        monkeypatch.setattr(circuits, "apply_gate", _refuse)  # the layer path only
        assert layer.run(start).amplitudes.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "gates",
        [
            [coupling_block_gate(1, 2, 0.4), coupling_block_gate(2, 3, 0.9)],  # overlapping
            [coupling_block_gate(5, 0, 0.4), rz_gate(2, 0.7), coupling_block_gate(3, 4, 0.9)],
        ],
        ids=["overlapping", "mixed"],
    )
    def test_ring_local_circuits_same_bits_as_gate_by_gate(self, gates, monkeypatch):
        start = QuantumState(6, random_state_vector(6, np.random.default_rng(4)))
        circuit = Circuit(6, tuple(gates))
        want = _gate_by_gate(circuit, start).amplitudes
        monkeypatch.setattr(circuits, "apply_gate", _refuse)  # the staged path only
        assert circuit.run(start).amplitudes.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "gates",
        [
            [coupling_block_gate(2, 1, 0.4)],  # a reversed pair
            [coupling_block_gate(1, 3, 0.4)],  # a pair that is not adjacent
        ],
        ids=["reversed", "not_adjacent"],
    )
    def test_other_circuits_go_gate_by_gate(self, gates, monkeypatch):
        start = QuantumState(6, random_state_vector(6, np.random.default_rng(4)))
        circuit = Circuit(6, tuple(gates))
        monkeypatch.setattr(circuits, "_apply_stages", _refuse)
        got = circuit.run(start).amplitudes
        assert got.tobytes() == _gate_by_gate(circuit, start).amplitudes.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), num_sites=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_random_ring_local_circuits(self, data, num_sites, seed):
        # one-qubit gates and ring pairs, the wrap link included, overlapping
        # and in any order; at L = 1 there are no pairs
        rng = np.random.default_rng(seed)
        start = QuantumState(num_sites, random_state_vector(num_sites, rng))
        gates = []
        for a in data.draw(st.lists(st.integers(0, num_sites - 1), max_size=12)):
            if num_sites == 1 or data.draw(st.booleans()):
                gates.append(Gate1Q(sample_haar_unitary(rng), a))
            else:
                gates.append(Gate2Q(random_unitary_4x4(rng), (a, (a + 1) % num_sites)))
        circuit = Circuit(num_sites, tuple(gates))

        def one_by_one(circuit):
            state = start
            for g in circuit.gates:
                state = apply_gate(state, g)
            return state.amplitudes

        def dense(circuit):
            vec = start.amplitudes
            for g in circuit.gates:
                vec = dense_operator(g.matrix, g.qubits, num_sites) @ vec
            return vec

        with pytest.MonkeyPatch.context() as m:
            m.setattr(circuits, "apply_gate", _refuse)  # the staged path only
            got = circuit.run(start).amplitudes
        np.testing.assert_allclose(got, dense(circuit), rtol=0, atol=1e-12)
        assert got.tobytes() == one_by_one(circuit).tobytes()

        if num_sites < 3:  # every pair of two sites is a ring pair
            return
        a = data.draw(st.integers(0, num_sites - 1))
        ring_pair = (a, (a + 1) % num_sites)
        b = data.draw(st.integers(0, num_sites - 1).filter(lambda b: b not in ring_pair))
        at = data.draw(st.integers(0, len(gates)))
        gates.insert(at, Gate2Q(random_unitary_4x4(rng), (a, b)))  # reversed or distant
        circuit = Circuit(num_sites, tuple(gates))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(circuits, "_apply_stages", _refuse)  # gate by gate only
            got = circuit.run(start).amplitudes
        np.testing.assert_allclose(got, dense(circuit), rtol=0, atol=1e-12)
        assert got.tobytes() == one_by_one(circuit).tobytes()

    def test_singlet_preparation_holds_two_states_above_its_input(self):
        # gate by gate, each lone CX held three states of 16 * 2^L bytes at once
        num_sites = 14
        start = new_basis_state(num_sites, "0" * num_sites)
        prep = prepare_singlet_product(num_sites)
        prep.run(start)  # warm every cache outside the traced build
        tracemalloc.start()
        try:
            prep.run(start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (16 << num_sites)

    def test_ring_build_holds_two_states_above_its_input(self):
        # the wrap link by moveaxis held four states of 16 * 2^L bytes at once
        num_sites = 14
        start = prepare_singlet_product(num_sites).run()
        evolution = evolution_circuit(0.3, num_sites, "pbc", fused=True)
        evolution.run(start)  # warm every cache outside the traced build
        tracemalloc.start()
        try:
            evolution.run(start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (16 << num_sites)


class TestLayering:
    def test_empty_circuit(self):
        assert layer_count(Circuit(4, ())) == 0

    def test_neel_prep_single_layer(self):
        assert layer_count(prepare_neel(8)) == 1

    def test_open_shallower_than_periodic(self):
        t = 0.4
        assert layer_count(evolution_circuit(t, 8, "obc")) < layer_count(
            evolution_circuit(t, 8, "pbc")
        )

    def test_layers_partition_and_disjoint(self):
        circ = quench_circuit(0.4, 8, "singlet", "pbc")
        grouped = layers(circ)
        flat = [g for layer in grouped for g in layer]
        assert len(flat) == len(circ.gates)
        for layer in grouped:
            seen: set[int] = set()
            for g in layer:
                assert not (seen & set(g.qubits))
                seen |= set(g.qubits)


class TestTextDump:
    def test_format(self):
        text = circuit_to_text(quench_circuit(0.25, 4, "singlet", "pbc"))
        lines = text.strip().splitlines()
        assert lines[0] == "X 1"
        for line in lines:
            fields = line.split()
            assert fields[0] in {"X", "H", "S", "SDG", "CX", "RZ"}
            assert all(1 <= int(q) <= 4 for q in fields[1:2])
        rz_lines = [l for l in lines if l.startswith("RZ")]
        assert rz_lines and float(rz_lines[0].split()[-1]) == pytest.approx(0.5)

    def test_empty(self):
        assert circuit_to_text(Circuit(2, ())) == ""

    def test_rz_convention(self):
        # Rz(theta) = diag(e^{-i theta/2}, e^{+i theta/2})
        mat = rz_gate(0, 0.8).matrix
        np.testing.assert_allclose(
            mat, np.diag([np.exp(-0.4j), np.exp(0.4j)]), atol=1e-12
        )
