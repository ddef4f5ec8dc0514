"""Twist order parameter, particle twist, Berry phase, postselection."""
import tracemalloc

import numpy as np
import pytest

from conftest import count_dict, qubit_bits, random_state_vector
from sshquench.circuits import prepare_neel, prepare_singlet_product, quench_circuit
from sshquench.noise import flip_outcomes
from sshquench.observables import (
    berry_phase,
    distribution_twist,
    exact_twist,
    gauge_reference,
    particle_twist_amplitude,
    postselect_half_filling,
    principal_angle,
    twist_order_parameter,
)
from sshquench.state import (
    QuantumState,
    bits_to_index,
    counts_from_outcomes,
    probabilities,
    sample_outcomes,
)


def _direct_factors(keys, num_sites, q, kind):
    """exp(i phase) of each index by the module's formula, one angle per index."""
    weighted = sum(j * ((keys >> (num_sites - j)) & 1) for j in range(1, num_sites + 1))
    return _factors_of_weights(weighted, num_sites, q, kind)


def _factors_of_weights(weighted, num_sites, q, kind):
    """exp(i phase) of each W = sum_j j s_j by the module's formula."""
    total = num_sites * (num_sites + 1) // 2
    if kind == "spin":
        phases = (np.pi * q / num_sites) * (total - 2.0 * weighted)
    else:
        phases = (2.0 * np.pi * q / num_sites) * (total - 1.0 * weighted)
    return np.exp(1j * phases)


def _bits(z: complex) -> bytes:
    return np.complex128(z).tobytes()


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


class TestPhaseTable:
    """The cached phase factors give the bits of the per-index formula."""

    @pytest.mark.parametrize("num_sites", range(4, 17))
    @pytest.mark.parametrize("q, kind", [(1, "spin"), (2, "particle")])
    def test_estimators_equal_the_direct_formula_bitwise(self, num_sites, q, kind):
        rng = np.random.default_rng(num_sites)
        state = QuantumState(num_sites, random_state_vector(num_sites, rng))
        probs = probabilities(state)
        keys = np.arange(1 << num_sites)
        weighted = sum(j * bit for j, bit in enumerate(qubit_bits(keys, num_sites), start=1))
        num_weights = num_sites * (num_sites + 1) // 2 + 1
        histogram = np.bincount(weighted, weights=probs, minlength=num_weights)
        want = histogram @ _factors_of_weights(np.arange(num_weights), num_sites, q, kind)
        got = exact_twist(state, q, kind).z
        assert _bits(got) == _bits(want)
        assert abs(got - np.sum(probs * _direct_factors(keys, num_sites, q, kind))) <= 1e-12

        counts = rng.multinomial(4096, probs)
        seen = np.flatnonzero(counts)
        vals = counts[seen].astype(float)
        want = np.sum(vals * _direct_factors(seen, num_sites, q, kind)) / vals.sum()
        estimator = twist_order_parameter if kind == "spin" else particle_twist_amplitude
        assert _bits(estimator(count_dict(counts), num_sites, q).z) == _bits(want)


    def test_distribution_twist_holds_less_than_one_complex_vector(self):
        # the per-index sum built two complex vectors of 16 * 2^L bytes
        num_sites = 16
        rng = np.random.default_rng(16)
        dist = probabilities(QuantumState(num_sites, random_state_vector(num_sites, rng)))
        distribution_twist(dist, q=1, kind="spin")  # warm the cached tables
        tracemalloc.start()
        try:
            distribution_twist(dist, q=1, kind="spin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << num_sites


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
        counts = count_dict(
            counts_from_outcomes(
                sample_outcomes(probabilities(state), 500, np.random.default_rng(12)), 6
            )
        )
        assert postselect_half_filling(counts, 6) == counts

    def test_all_rejected_gives_empty(self):
        assert postselect_half_filling({bits_to_index("0001"): 3}, 4) == {}

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            postselect_half_filling({0: 1}, 3)

    @pytest.mark.parametrize("counts", [{19: 1, 3: 2}, {-13: 1}, {16: 4}])
    def test_keys_outside_register_rejected_like_twist(self, counts):
        # 19 = 0b10011 and -13 pass a weight-2 test on their low four bits
        for estimator in (postselect_half_filling, twist_order_parameter):
            with pytest.raises(ValueError, match="bitstring outside the register"):
                estimator(counts, 4)

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
            counts = count_dict(counts_from_outcomes(outcomes, num_sites))
            raw = twist_order_parameter(counts, num_sites).z
            post = twist_order_parameter(
                postselect_half_filling(counts, num_sites), num_sites
            ).z
            raw_err += abs(raw - exact) ** 2
            post_err += abs(post - exact) ** 2
        assert np.sqrt(post_err) < np.sqrt(raw_err)
