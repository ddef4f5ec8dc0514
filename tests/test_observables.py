"""Twist order parameter, particle twist, Berry phase, postselection."""
import numpy as np
import pytest

from sshquench.circuits import prepare_neel, prepare_singlet_product, quench_circuit
from sshquench.noise import flip_outcomes
from sshquench.observables import (
    berry_phase,
    exact_twist,
    gauge_reference,
    particle_twist_amplitude,
    postselect_half_filling,
    principal_angle,
    twist_order_parameter,
)
from sshquench.state import (
    bits_to_index,
    counts_from_outcomes,
    probabilities,
    sample_outcomes,
)


def _neel_counts(num_sites, shots=10):
    return {bits_to_index("10" * (num_sites // 2)): shots}


def _neel_spin_twist_formula(t, num_sites, q=1):
    """Product form of the spin twist along the Neel quench (independent route)."""
    c2, s2 = np.cos(2 * t) ** 2, np.sin(2 * t) ** 2
    factor = c2 * np.exp(-1j * np.pi * q / num_sites) + s2 * np.exp(
        1j * np.pi * q / num_sites
    )
    return -((factor) ** (num_sites // 2))


def _neel_particle_twist_formula(t, num_sites, q=2):
    c2, s2 = np.cos(2 * t) ** 2, np.sin(2 * t) ** 2
    return (c2 + s2 * np.exp(2j * np.pi * q / num_sites)) ** (num_sites // 2)


class TestSpinTwist:
    @pytest.mark.parametrize("num_sites", [4, 8])
    def test_neel_string_phase(self, num_sites):
        res = twist_order_parameter(_neel_counts(num_sites), num_sites, q=1)
        assert res.z == pytest.approx(1j, abs=1e-12)
        assert res.magnitude == pytest.approx(1.0, abs=1e-12)

    def test_singlet_product_peak_value(self):
        state = prepare_singlet_product(8).run()
        res = exact_twist(state, q=1, kind="spin")
        assert res.z == pytest.approx(np.cos(np.pi / 8) ** 4, abs=1e-12)

    def test_matches_product_formula_along_quench(self):
        num_sites = 8
        for t in np.linspace(0.0, np.pi / 2, 13):
            state = quench_circuit(t, num_sites, "neel", "pbc").run()
            got = exact_twist(state, q=1, kind="spin").z
            assert got == pytest.approx(
                _neel_spin_twist_formula(t, num_sites), abs=1e-12
            )

    def test_estimator_consistency_with_exact_distribution(self):
        state = quench_circuit(0.37, 6, "neel", "pbc").run()
        dist = probabilities(state)
        weights = {i: p for i, p in enumerate(dist) if p > 0}
        direct = twist_order_parameter(weights, 6, q=1).z
        assert direct == pytest.approx(exact_twist(state, q=1, kind="spin").z, abs=1e-12)

    def test_singlet_twist_stays_real(self):
        for t in np.linspace(0, np.pi / 2, 11):
            state = quench_circuit(t, 8, "singlet", "pbc").run()
            assert abs(exact_twist(state, q=1, kind="spin").z.imag) < 1e-9

    def test_periodicity(self):
        for initial, period in (("neel", np.pi / 4), ("singlet", np.pi / 2)):
            for t in np.linspace(0.0, 0.6, 5):
                a = exact_twist(
                    quench_circuit(t, 8, initial, "pbc").run(), q=1, kind="spin"
                ).z
                b = exact_twist(
                    quench_circuit(t + period, 8, initial, "pbc").run(),
                    q=1,
                    kind="spin",
                ).z
                # the entropy period reproduces Re z; the full complex value
                # recurs after the state period pi/2
                assert b.real == pytest.approx(a.real, abs=1e-9)
                c = exact_twist(
                    quench_circuit(t + np.pi / 2, 8, initial, "pbc").run(),
                    q=1,
                    kind="spin",
                ).z
                assert c == pytest.approx(a, abs=1e-9)

    def test_magnitude_bounded_by_one(self):
        rng = np.random.default_rng(4)
        counts = {int(k): int(v) for k, v in zip(rng.integers(0, 16, 8), rng.integers(1, 50, 8))}
        assert twist_order_parameter(counts, 4).magnitude <= 1 + 1e-10

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            twist_order_parameter({}, 4)


class TestParticleTwist:
    def test_neel_string_q2(self):
        res = particle_twist_amplitude(_neel_counts(8), 8, q=2)
        assert res.z == pytest.approx(1.0 + 0j, abs=1e-12)
        assert berry_phase(res).gamma == pytest.approx(0.0, abs=1e-12)

    def test_matches_product_formula_along_quench(self):
        num_sites = 8
        for t in np.linspace(0.0, np.pi / 2, 13):
            state = quench_circuit(t, num_sites, "neel", "pbc").run()
            got = exact_twist(state, q=2, kind="particle").z
            assert got == pytest.approx(
                _neel_particle_twist_formula(t, num_sites), abs=1e-12
            )


class TestBerryPhase:
    def test_principal_branch(self):
        assert principal_angle(np.pi) == pytest.approx(np.pi)
        assert principal_angle(-np.pi) == pytest.approx(np.pi)
        assert principal_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
        res = particle_twist_amplitude(_neel_counts(8), 8, q=2)
        assert berry_phase(res).gamma == pytest.approx(0.0, abs=1e-12)

    def test_angles_of_reference_points(self):
        from sshquench.observables import TwistResult

        for z, want in ((1, 0.0), (-1, np.pi), (1j, np.pi / 2)):
            res = TwistResult(complex(z))
            assert berry_phase(res).gamma == pytest.approx(want)

    def test_sign_change_across_neel_resonance(self):
        t_star = np.pi / 8
        ref = gauge_reference(prepare_neel(8).run())
        assert ref == pytest.approx(0.0, abs=1e-12)
        before = berry_phase(
            exact_twist(
                quench_circuit(t_star - 0.01, 8, "neel", "pbc").run(),
                q=2,
                kind="particle",
            ),
            ref,
        )
        after = berry_phase(
            exact_twist(
                quench_circuit(t_star + 0.01, 8, "neel", "pbc").run(),
                q=2,
                kind="particle",
            ),
            ref,
        )
        assert before.gamma > 2.5
        assert after.gamma < -2.5
        assert before.gamma == pytest.approx(-after.gamma, abs=1e-9)

    def test_singlet_phase_vanishes_relative_to_initial_state(self):
        initial = prepare_singlet_product(8).run()
        ref = gauge_reference(initial)
        assert ref == pytest.approx(np.pi)  # dimer pattern carries a pi twist
        for t in np.linspace(0.0, np.pi / 2, 11):
            state = quench_circuit(t, 8, "singlet", "pbc").run()
            point = berry_phase(exact_twist(state, q=2, kind="particle"), ref)
            assert point.reliable
            assert point.gamma == pytest.approx(0.0, abs=1e-9)

    def test_unreliable_when_amplitude_vanishes(self):
        counts = {i: 1 for i in range(16)}  # uniform: all phases cancel
        res = particle_twist_amplitude(counts, 4, q=2)
        point = berry_phase(res)
        assert not point.reliable
        assert point.magnitude < 1e-3


class TestPostselection:
    def test_weight_filter(self):
        counts = {
            bits_to_index("0101"): 10,
            bits_to_index("0011"): 5,
            bits_to_index("0001"): 7,
        }
        kept = postselect_half_filling(counts, 4)
        assert kept == {bits_to_index("0101"): 10, bits_to_index("0011"): 5}

    def test_noiseless_data_unchanged(self):
        state = quench_circuit(0.3, 6, "neel", "pbc").run()
        counts = counts_from_outcomes(
            sample_outcomes(probabilities(state), 500, np.random.default_rng(12))
        )
        assert postselect_half_filling(counts, 6) == counts

    def test_all_rejected_gives_empty(self):
        assert postselect_half_filling({bits_to_index("0001"): 3}, 4) == {}

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            postselect_half_filling({0: 1}, 3)

    def test_improves_twist_under_readout_noise(self):
        # 2% flips: postselected spin twist tracks the exact curve closer
        # than the raw one in L2 distance over the grid
        num_sites, shots, flip = 8, 4096, 0.02
        rng = np.random.default_rng(2024)
        raw_err, post_err = 0.0, 0.0
        for t in np.linspace(0.0, np.pi / 2, 9):
            state = quench_circuit(t, num_sites, "neel", "pbc").run()
            exact = exact_twist(state, q=1, kind="spin").z
            outcomes = sample_outcomes(probabilities(state), shots, rng)
            outcomes = flip_outcomes(outcomes, num_sites, flip, rng)
            counts = counts_from_outcomes(outcomes)
            raw = twist_order_parameter(counts, num_sites).z
            post = twist_order_parameter(
                postselect_half_filling(counts, num_sites), num_sites
            ).z
            raw_err += abs(raw - exact) ** 2
            post_err += abs(post - exact) ** 2
        assert np.sqrt(post_err) < np.sqrt(raw_err)
