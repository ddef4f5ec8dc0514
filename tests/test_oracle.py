"""Free-fermion oracle: orbitals, correlation blocks, entropy."""
import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshquench.circuits import (
    evolution_circuit,
    prepare_neel,
    prepare_singlet_product,
    quench_circuit,
)
from sshquench.observables import exact_twist
from sshquench.oracle import (
    closed_form_entropy,
    correlation_submatrix,
    entropy_period,
    orbitals,
    renyi_from_correlation,
)
from sshquench.randmeas import renyi2
from sshquench.state import probabilities, purity

CASES = [(i, b) for i in ("neel", "singlet") for b in ("pbc", "obc")]
TIMES = (0.0, 0.3, 0.77, 1.2)
PREPARE = {"neel": prepare_neel, "singlet": prepare_singlet_product}


def _fused_state(initial, boundary, num_sites, t):
    """The quenched state as the runner builds it: fused link blocks on the preparation."""
    start = PREPARE[initial](num_sites).run()
    return evolution_circuit(t, num_sites, boundary, fused=True).run(start)


@lru_cache(maxsize=None)
def _sectors(num_sites):
    """Every half-filling set S of occupied qubits, and the basis index whose 0-bits are S."""
    occupied = np.array(list(itertools.combinations(range(num_sites), num_sites // 2)))
    index = ((1 << num_sites) - 1) ^ (1 << (num_sites - 1 - occupied)).sum(axis=1)
    return occupied, index


def _amplitude_errors(phi, state):
    """max | |det Phi_S|^2 - P(S) | over the sector, and the weight outside it."""
    occupied, index = _sectors(state.num_qubits)
    probs = probabilities(state)
    dets = np.abs(np.linalg.det(phi[occupied])) ** 2
    return np.abs(dets - probs[index]).max(), 1.0 - probs[index].sum()


def _entropy_from_rows(phi, rows):
    block = phi[list(rows)]
    return renyi_from_correlation(np.linalg.eigvalsh(block @ block.conj().T))


class TestWannier:
    """The columns of Phi(t) are the time-evolved Wannier states of the cells."""

    def test_neel_weights(self):
        # column 3 of the L = 8 ring crosses the wrap link (7, 0)
        def weights(t):
            return np.abs(orbitals("neel", "pbc", 8, t)[:, 3]) ** 2

        assert weights(0.0)[7] == pytest.approx(1.0)
        w = weights(np.pi / 8)
        assert w[7] == pytest.approx(0.5, abs=1e-12)
        assert w[0] == pytest.approx(0.5, abs=1e-12)
        assert weights(np.pi / 4)[0] == pytest.approx(1.0)

    def test_singlet_weights(self):
        def weights(t):
            return np.abs(orbitals("singlet", "obc", 8, t)[:, 2]) ** 2

        w0 = weights(0.0)
        assert w0[4] == pytest.approx(0.5)
        assert w0[5] == pytest.approx(0.5)
        w = weights(np.pi / 4)
        assert w[6] == pytest.approx(0.5, abs=1e-12)
        assert w[3] == pytest.approx(0.5, abs=1e-12)
        assert w[4] == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(0, 4, allow_nan=False), cells=st.integers(1, 8))
    def test_normalized_for_all_times(self, t, cells):
        for initial, boundary in CASES:
            phi = orbitals(initial, boundary, 2 * cells, t)
            np.testing.assert_allclose(phi.conj().T @ phi, np.eye(cells), atol=1e-12)

    def test_orthonormal_across_cells(self):
        t = 0.61
        for num_sites in range(2, 17, 2):
            for initial, boundary in CASES:
                phi = orbitals(initial, boundary, num_sites, t)
                assert phi.shape == (num_sites, num_sites // 2)
                np.testing.assert_allclose(
                    phi.conj().T @ phi, np.eye(num_sites // 2), atol=1e-12
                )

    def test_unknown_initial_rejected(self):
        with pytest.raises(ValueError):
            orbitals("ferro", "pbc", 4, 0.0)


class TestOrbitalsAgainstDenseEngine:
    @pytest.mark.parametrize("num_sites", range(4, 17, 2))
    def test_sector_probabilities_are_determinants(self, num_sites):
        for (initial, boundary), t in itertools.product(CASES, TIMES):
            phi = orbitals(initial, boundary, num_sites, t)
            state = _fused_state(initial, boundary, num_sites, t)
            worst, outside = _amplitude_errors(phi, state)
            assert worst <= 1e-12, (initial, boundary, t)
            assert outside <= 1e-12, (initial, boundary, t)

    @pytest.mark.parametrize("num_sites", [4, 8])
    def test_wrap_sign_decides_the_ring_amplitudes(self, num_sites):
        """The open chain plus the wrap link turned with the other sign misses;
        beyond L = 8 the miss falls below 1e-10 (5.3e-11 at L = 12)."""
        t = 0.77
        state = _fused_state("singlet", "pbc", num_sites, t)
        assert _amplitude_errors(orbitals("singlet", "pbc", num_sites, t), state)[0] <= 1e-12
        c, s = math.cos(2 * t), math.sin(2 * t)
        hop = 1j * s * (-1) ** (num_sites // 2 - 1)  # the opposite of the right sign
        flipped = orbitals("singlet", "obc", num_sites, t)
        wrap = [num_sites - 1, 0]
        flipped[wrap] = np.array([[c, hop], [hop, c]]) @ flipped[wrap]
        assert _amplitude_errors(flipped, state)[0] > 1e-8

    @pytest.mark.parametrize("num_sites", range(4, 13, 2))
    def test_every_ring_contiguous_block(self, num_sites):
        for (initial, boundary), t in itertools.product(CASES, TIMES):
            phi = orbitals(initial, boundary, num_sites, t)
            state = _fused_state(initial, boundary, num_sites, t)
            for size in range(1, num_sites):
                for first in range(num_sites):
                    block = [(first + k) % num_sites for k in range(size)]
                    got = _entropy_from_rows(phi, block)
                    want = renyi2(purity(state, block))
                    assert got == pytest.approx(want, abs=1e-12), (initial, boundary, t, block)

    @pytest.mark.parametrize("num_sites", range(4, 17, 2))
    def test_twists_are_resta_determinants(self, num_sites):
        sites = np.arange(1, num_sites + 1)
        for (initial, boundary), t in itertools.product(CASES, TIMES):
            phi = orbitals(initial, boundary, num_sites, t)
            state = _fused_state(initial, boundary, num_sites, t)
            resta = {
                q: np.linalg.det(
                    phi.conj().T @ (np.exp(2j * np.pi * q * sites / num_sites)[:, None] * phi)
                )
                for q in (1, 2)
            }
            for q in (1, 2):
                got = exact_twist(state, q, "particle").z
                assert abs(got - resta[q]) <= 1e-12, (initial, boundary, t, q)
            spin = np.exp(-0.5j * np.pi * (num_sites + 1)) * resta[1]
            assert abs(exact_twist(state, 1, "spin").z - spin) <= 1e-12

    @pytest.mark.parametrize("num_sites", [4, 8, 12, 16, 32, 64])
    def test_half_chain_closed_form_beyond_the_dense_engine(self, num_sites):
        for (initial, boundary), t in itertools.product(CASES, np.linspace(0, 1.5, 16)):
            phi = orbitals(initial, boundary, num_sites, t)
            got = _entropy_from_rows(phi, range(num_sites // 2))
            want = closed_form_entropy(initial, t, boundary, num_cells=num_sites // 4)
            assert got == pytest.approx(want, abs=1e-10), (initial, boundary, t)


class TestCorrelationBlocks:
    def test_neel_boundary_eigenvalue(self):
        for t in np.linspace(0, 1.5, 11):
            block = correlation_submatrix("neel", t)
            assert block.shape == (1, 1)
            assert block[0, 0].real == pytest.approx(np.sin(2 * t) ** 2, abs=1e-12)

    def test_interior_wannier_contributes_nothing(self):
        t = 0.44
        column = orbitals("neel", "obc", 8, t)[np.ix_([2, 1], [0])]
        full = column @ column.conj().T
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
        # +0.0, not -0.0, which would also pass ``== 0.0``
        assert math.copysign(1.0, renyi_from_correlation([0.0, 1.0])) == 1.0
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

    @pytest.mark.parametrize("initial", ["neel", "singlet"])
    @pytest.mark.parametrize("boundary", ["pbc", "obc"])
    def test_zero_is_positive_zero(self, initial, boundary):
        for num_cells in (None, 1, 2):
            value = closed_form_entropy(initial, 0.0, boundary, num_cells=num_cells)
            assert math.copysign(1.0, value) == 1.0

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
