"""Preparation and evolution circuits against kron/expm references."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import ref_evolved_vector, ref_singlet_vector
from sshquench.circuits import (
    Circuit,
    circuit_to_text,
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
from sshquench.state import (
    apply_gate,
    new_basis_state,
    overlap,
    probabilities,
    qubit_bits,
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
        evolved = evolution_circuit(0.0, 4, "pbc").apply(initial)
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

    @settings(max_examples=20, deadline=None)
    @given(
        t1=st.floats(0.0, 1.5, allow_nan=False),
        t2=st.floats(0.0, 1.5, allow_nan=False),
    )
    def test_group_property(self, t1, t2):
        initial = prepare_neel(6).run()
        once = evolution_circuit(t1 + t2, 6, "pbc").apply(initial)
        twice = evolution_circuit(t2, 6, "pbc").apply(
            evolution_circuit(t1, 6, "pbc").apply(initial)
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
