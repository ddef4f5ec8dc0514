"""Noise channels, error-rate estimation, mitigation algebra, shift alignment."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshquench.noise import (
    NoiseSpec,
    apply_depolarizing,
    effective_p_tot,
    estimate_p_tot_from_full_purity,
    flip_outcomes,
    forward_noisy_purity,
    mitigate_purity,
    shift_align,
)


class TestNoiseSpec:
    def test_ranges_enforced(self):
        with pytest.raises(ValueError):
            NoiseSpec(p_layer=1.2)
        with pytest.raises(ValueError):
            NoiseSpec(readout_flip=0.6)


class TestEffectivePTot:
    def test_reference_points(self):
        assert effective_p_tot(0.0, 17) == 0.0
        assert effective_p_tot(0.2, 1) == pytest.approx(0.2)
        assert effective_p_tot(0.01, 40) == pytest.approx(1 - 0.99**40, abs=1e-15)

    def test_monotone_in_layers(self):
        values = [effective_p_tot(0.02, n) for n in range(0, 50, 5)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestDepolarizing:
    def test_zero_rate_identity(self):
        dist = np.array([0.2, 0.8])
        np.testing.assert_array_equal(apply_depolarizing(dist, 0.0), dist)

    def test_full_rate_uniform(self):
        dist = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(apply_depolarizing(dist, 1.0), np.full(4, 0.25))

    def test_convex_mixture(self):
        np.testing.assert_allclose(
            apply_depolarizing(np.array([1.0, 0.0]), 0.5), [0.75, 0.25]
        )

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.floats(0, 1, allow_nan=False),
        seed=st.integers(0, 2**31),
        n=st.integers(1, 5),
    )
    def test_normalization_preserved(self, p, seed, n):
        rng = np.random.default_rng(seed)
        dist = rng.random(1 << n)
        dist /= dist.sum()
        assert apply_depolarizing(dist, p).sum() == pytest.approx(1.0, abs=1e-12)


class TestReadoutFlips:
    def test_zero_rate_identity(self):
        outcomes = np.array([0b1011, 0, 0b1111], dtype=np.int64)
        out = flip_outcomes(outcomes, 4, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, outcomes)

    def test_half_rate_randomizes_each_bit(self):
        rng = np.random.default_rng(5)
        out = flip_outcomes(np.zeros(20_000, dtype=np.int64), 4, 0.5, rng)
        for bit in range(4):
            ones = np.mean((out >> bit) & 1)
            assert abs(ones - 0.5) < 3 * np.sqrt(0.25 / out.size)

    def test_mean_hamming_distance(self):
        num_sites, q, n = 8, 0.02, 100_000
        rng = np.random.default_rng(17)
        start = np.full(n, 0b10101010, dtype=np.int64)
        out = flip_outcomes(start, num_sites, q, rng)
        flips = np.array([bin(x).count("1") for x in (out ^ start)])
        sigma = np.sqrt(num_sites * q * (1 - q) / n)
        assert abs(flips.mean() - num_sites * q) < 3 * sigma

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            flip_outcomes(np.array([0]), 2, 0.7, np.random.default_rng(0))


class TestErrorRateEstimation:
    def test_clean_purity_gives_zero(self):
        est = estimate_p_tot_from_full_purity(1.0, 8)
        assert est.value == pytest.approx(0.0, abs=1e-10)
        assert not est.clamped

    def test_maximally_mixed_gives_one(self):
        est = estimate_p_tot_from_full_purity(2.0**-8, 8)
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_bisection_round_trip(self):
        for p in (0.05, 0.3, 0.77):
            forward = forward_noisy_purity(1.0, p, 8)
            est = estimate_p_tot_from_full_purity(forward, 8)
            assert est.value == pytest.approx(p, abs=1e-10)
            assert not est.clamped

    def test_forward_map_strictly_decreasing(self):
        grid = np.linspace(0, 1, 101)
        values = [forward_noisy_purity(1.0, p, 6) for p in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_out_of_range_clamped_and_flagged(self):
        high = estimate_p_tot_from_full_purity(1.3, 4)
        assert high.clamped and high.value == pytest.approx(0.0, abs=1e-10)
        low = estimate_p_tot_from_full_purity(0.0, 4)
        assert low.clamped and low.value == pytest.approx(1.0, abs=1e-10)
        # a fully depolarized estimate still goes through mitigation, flagged
        assert mitigate_purity(0.3, low.value, 2).clamped


class TestMitigation:
    def test_zero_rate_identity(self):
        assert mitigate_purity(0.37, 0.0, 4).value == pytest.approx(0.37, abs=1e-15)

    def test_round_trip_reference_point(self):
        noisy = forward_noisy_purity(0.25, 0.2, 4)
        assert mitigate_purity(noisy, 0.2, 4).value == pytest.approx(0.25, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        exact=st.floats(0.0, 1.0, allow_nan=False),
        p=st.floats(0.0, 0.9, allow_nan=False),
        n=st.integers(1, 10),
    )
    def test_round_trip_sweep(self, exact, p, n):
        lo = 2.0**-n
        exact = lo + (1.0 - lo) * exact  # legal purity range
        got = mitigate_purity(forward_noisy_purity(exact, p, n), p, n)
        assert got.value == pytest.approx(exact, abs=1e-10)
        assert not got.clamped

    def test_full_rate_rejected(self):
        with pytest.raises(ValueError):
            mitigate_purity(0.5, 1.0, 4)

    def test_statistical_overshoot_clamped(self):
        got = mitigate_purity(1.2, 0.0, 2)
        assert got.clamped and got.value == 1.0
        got = mitigate_purity(0.0, 0.3, 2)
        assert got.clamped and got.value == 0.25


class TestPostselectionUnderDepolarizing:
    def test_kept_fraction_matches_closed_form(self):
        # depolarizing only: the half-filled sector keeps the exact component
        # plus the uniform admixture's binomial weight C(L, L/2) / 2^L
        from math import comb

        from sshquench.circuits import quench_circuit
        from sshquench.observables import postselect_half_filling
        from sshquench.state import counts_from_outcomes, probabilities, sample_outcomes

        num_sites, p_tot, shots = 4, 0.4, 40_000
        state = quench_circuit(0.37, num_sites, "neel", "pbc").run()
        dist = apply_depolarizing(probabilities(state), p_tot)
        rng = np.random.default_rng(99)
        counts = counts_from_outcomes(sample_outcomes(dist, shots, rng))
        kept = sum(postselect_half_filling(counts, num_sites).values())
        expect = (1 - p_tot) + p_tot * comb(num_sites, num_sites // 2) / 2**num_sites
        sigma = np.sqrt(expect * (1 - expect) / shots)
        assert abs(kept / shots - expect) < 3 * sigma


class TestShiftAlign:
    def test_zero_mode_already_aligned(self):
        series = np.array([0.0, 1.0, 0.5])
        aligned, offset = shift_align(series, "zero_at_t0")
        assert offset == 0.0
        np.testing.assert_array_equal(aligned, series)

    def test_zero_mode_removes_offset(self):
        series = np.array([0.4, 1.4, 0.9])
        aligned, offset = shift_align(series, "zero_at_t0")
        assert offset == pytest.approx(0.4)
        np.testing.assert_allclose(aligned, [0.0, 1.0, 0.5], atol=1e-15)

    def test_valley_mode_zeroes_minima_mean(self):
        t = np.linspace(0, np.pi, 61)
        series = -2 * np.log2(1 - np.sin(4 * t) ** 2 / 2) + 0.3
        rng = np.random.default_rng(3)
        series += rng.normal(0, 1e-3, series.size)
        aligned, offset = shift_align(series, "valley_to_zero")
        minima = [
            i
            for i in range(series.size)
            if (i == 0 or not series[i - 1] < series[i])
            and (i == series.size - 1 or not series[i + 1] < series[i])
            and series[i] <= np.median(series)
        ]
        assert abs(np.mean(aligned[minima])) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            shift_align(np.array([]), "zero_at_t0")
        with pytest.raises(ValueError):
            shift_align(np.array([1.0]), "sideways")
        with pytest.raises(ValueError):
            shift_align(np.array([np.nan, np.nan]), "valley_to_zero")
