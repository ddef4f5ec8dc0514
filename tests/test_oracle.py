"""Free-fermion oracle: Wannier states, correlation blocks, entropy."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshquench.circuits import quench_circuit
from sshquench.oracle import (
    WannierState,
    closed_form_entropy,
    correlation_matrix_from_wanniers,
    correlation_submatrix,
    entropy_period,
    renyi_from_correlation,
    wannier_neel,
    wannier_singlet,
)
from sshquench.state import purity


class TestWannier:
    def test_neel_weights(self):
        assert wannier_neel(3, 0.0).weight(("A", 3)) == pytest.approx(1.0)
        w = wannier_neel(3, np.pi / 8)
        assert w.weight(("A", 3)) == pytest.approx(0.5, abs=1e-12)
        assert w.weight(("B", 2)) == pytest.approx(0.5, abs=1e-12)
        assert wannier_neel(3, np.pi / 4).weight(("B", 2)) == pytest.approx(1.0)

    def test_singlet_weights(self):
        w0 = wannier_singlet(2, 0.0)
        assert w0.weight(("A", 2)) == pytest.approx(0.5)
        assert w0.weight(("B", 2)) == pytest.approx(0.5)
        w = wannier_singlet(2, np.pi / 4)
        assert w.weight(("A", 3)) == pytest.approx(0.5, abs=1e-12)
        assert w.weight(("B", 1)) == pytest.approx(0.5, abs=1e-12)
        assert w.weight(("A", 2)) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(0, 4, allow_nan=False), cell=st.integers(-3, 6))
    def test_normalized_for_all_times(self, t, cell):
        for build in (wannier_neel, wannier_singlet):
            total = sum(abs(c) ** 2 for c in build(cell, t).coefficients.values())
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_across_cells(self):
        t = 0.61
        for build in (wannier_neel, wannier_singlet):
            states = [build(m, t) for m in range(4)]
            for i, a in enumerate(states):
                for j, b in enumerate(states):
                    want = 1.0 if i == j else 0.0
                    assert abs(a.overlap(b)) == pytest.approx(want, abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            WannierState(0, 0.0, {("A", 0): 0.5})


class TestCorrelationBlocks:
    def test_neel_boundary_eigenvalue(self):
        for t in np.linspace(0, 1.5, 11):
            block = correlation_submatrix("neel", t)
            assert block.shape == (1, 1)
            assert block[0, 0].real == pytest.approx(np.sin(2 * t) ** 2, abs=1e-12)

    def test_interior_wannier_contributes_nothing(self):
        t = 0.44
        w = wannier_neel(1, t)
        full = correlation_matrix_from_wanniers([w], [("B", 0), ("A", 1)])
        c, s = np.cos(2 * t), np.sin(2 * t)
        want = np.array(
            [[s * s, -1j * s * c], [1j * s * c, c * c]]
        )
        np.testing.assert_allclose(full, want, atol=1e-12)
        eigs = np.linalg.eigvalsh(full)
        np.testing.assert_allclose(sorted(eigs), [0.0, 1.0], atol=1e-12)
        assert renyi_from_correlation(eigs) == pytest.approx(0.0, abs=1e-12)

    def test_singlet_block_entries_and_spectrum(self):
        for t in np.linspace(0.05, 1.5, 9):
            block = correlation_submatrix("singlet", t)
            c, s = np.cos(2 * t), np.sin(2 * t)
            want = 0.5 * np.array(
                [
                    [s * s, -1j * s * c, 1j * s * c],
                    [1j * s * c, c * c, -c * c],
                    [-1j * s * c, -c * c, 1.0],
                ]
            )
            np.testing.assert_allclose(block, want, atol=1e-12)
            eigs = np.linalg.eigvalsh(block)
            want_eigs = sorted([0.0, (1 - c) / 2, (1 + c) / 2])
            np.testing.assert_allclose(eigs, want_eigs, atol=1e-10)

    def test_singlet_block_at_quarter_period(self):
        eigs = np.linalg.eigvalsh(correlation_submatrix("singlet", np.pi / 4))
        np.testing.assert_allclose(sorted(eigs), [0.0, 0.5, 0.5], atol=1e-10)


class TestRenyiFromCorrelation:
    def test_pinned_eigenvalues_give_zero(self):
        assert renyi_from_correlation([0.0, 1.0]) == 0.0

    def test_half_eigenvalue_one_bit(self):
        assert renyi_from_correlation([0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_additivity(self):
        assert renyi_from_correlation([0.5, 0.5]) == pytest.approx(2.0, abs=1e-12)

    def test_clamp_within_tolerance(self):
        assert renyi_from_correlation([1.0 + 1e-9, -1e-9]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            renyi_from_correlation([1.1])

    def test_general_order_against_direct_formula(self):
        xs = [0.3, 0.9]
        want = -sum(np.log2((1 - x) ** 2 + x**2) for x in xs)
        assert renyi_from_correlation(xs) == pytest.approx(want, abs=1e-12)


class TestClosedForms:
    def test_neel_peak_two_bits(self):
        assert closed_form_entropy("neel", np.pi / 8, "pbc") == pytest.approx(2.0)

    def test_singlet_peak_four_bits(self):
        assert closed_form_entropy("singlet", np.pi / 4, "pbc") == pytest.approx(4.0)

    def test_open_chain_halves(self):
        for t in np.linspace(0, 1.5, 7):
            for initial in ("neel", "singlet"):
                assert closed_form_entropy(initial, t, "obc") == pytest.approx(
                    closed_form_entropy(initial, t, "pbc") / 2, abs=1e-12
                )

    def test_doubling_identity_between_quenches(self):
        # singlet curve at t equals twice the neel curve at t/2
        for t in np.linspace(0, np.pi, 100):
            assert closed_form_entropy("singlet", t, "pbc") == pytest.approx(
                2 * closed_form_entropy("neel", t / 2, "pbc"), abs=1e-12
            )

    def test_two_cell_ring_collapses_to_neel_form(self):
        for t in np.linspace(0, 1.5, 11):
            assert closed_form_entropy(
                "singlet", t, "pbc", num_cells=1
            ) == pytest.approx(closed_form_entropy("neel", t, "pbc"), abs=1e-14)

    def test_correlation_route_matches_closed_form(self):
        for t in np.linspace(0, np.pi, 50):
            neel = renyi_from_correlation(
                np.linalg.eigvalsh(correlation_submatrix("neel", t))
            )
            assert neel == pytest.approx(
                closed_form_entropy("neel", t, "obc"), abs=1e-10
            )
            singlet = renyi_from_correlation(
                np.linalg.eigvalsh(correlation_submatrix("singlet", t))
            )
            assert singlet == pytest.approx(
                closed_form_entropy("singlet", t, "obc"), abs=1e-10
            )

    def test_periods(self):
        assert entropy_period("neel") == pytest.approx(np.pi / 4)
        assert entropy_period("singlet") == pytest.approx(np.pi / 2)
        for initial in ("neel", "singlet"):
            period = entropy_period(initial)
            for t in np.linspace(0, 1.0, 9):
                assert closed_form_entropy(initial, t, "pbc") == pytest.approx(
                    closed_form_entropy(initial, t + period, "pbc"), abs=1e-10
                )


class TestSimulatorAgainstOracle:
    @pytest.mark.parametrize("initial", ["neel", "singlet"])
    @pytest.mark.parametrize("boundary", ["pbc", "obc"])
    def test_small_chain_purity_matches(self, initial, boundary):
        num_sites = 4
        for t in np.linspace(0, np.pi / 2, 9):
            state = quench_circuit(t, num_sites, initial, boundary).run()
            got = purity(state, tuple(range(num_sites // 2)))
            want = 2.0 ** (
                -closed_form_entropy(initial, t, boundary, num_cells=num_sites // 4)
            )
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("initial", ["neel", "singlet"])
    def test_open_half_chain_purity_matches(self, initial):
        num_sites = 8
        for t in np.linspace(0, np.pi / 2, 9):
            state = quench_circuit(t, num_sites, initial, "obc").run()
            got = purity(state, tuple(range(num_sites // 2)))
            want = 2.0 ** (-closed_form_entropy(initial, t, "obc", num_cells=2))
            assert got == pytest.approx(want, abs=1e-9)
