"""Haar sampling, shot collection, and the purity estimator."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hamming_distance, random_state_vector
from sshquench.circuits import h_gate, cx_gate, quench_circuit
from sshquench import randmeas
from sshquench.experiment import _measure, run_experiment, run_randomized_measurements
from sshquench.noise import apply_depolarizing
from sshquench.randmeas import (
    ShotTable,
    _kernel_transform,
    child_generator,
    estimate_purity,
    hamming_pair_sum,
    marginal_counts,
    purity_from_subset_distribution,
    purity_statistic,
    renyi2,
    rotate_state,
    sample_haar_unitary,
)
from sshquench.state import (
    Gate1Q,
    QuantumState,
    apply_gate,
    counts_from_outcomes,
    new_basis_state,
    probabilities,
    purity,
    sample_outcomes,
    sample_shots,
)


def _bell_state():
    return apply_gate(apply_gate(new_basis_state(2, "00"), h_gate(0)), cx_gate(0, 1))


def _kernel_staged_reference(vec: np.ndarray, num_qubits: int) -> np.ndarray:
    """The kernel's earlier stage, six numpy calls per axis, kept as a reference."""
    out = np.asarray(vec, dtype=float).reshape(-1)
    for _ in range(num_qubits):
        a, b = out.reshape(2, -1)
        out = np.empty((a.size, 2))
        np.subtract(a, 0.5 * b, out=out[:, 0])
        np.add(-0.5 * a, b, out=out[:, 1])
        out = out.reshape(-1)
    return out


def _qr_haar_reference(rng: np.random.Generator) -> np.ndarray:
    """QR of a complex Gaussian matrix with R's diagonal made positive."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


class TestHaarSampling:
    def test_matches_qr_construction_and_stream(self):
        rng, ref = np.random.default_rng(2024), np.random.default_rng(2024)
        for _ in range(2000):
            np.testing.assert_allclose(
                sample_haar_unitary(rng), _qr_haar_reference(ref), rtol=0, atol=1e-12
            )
        # both consumed the same eight normals per draw
        assert rng.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(rng.standard_normal(4), ref.standard_normal(4))

    def test_unitarity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            u = sample_haar_unitary(rng)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_second_and_fourth_moments(self):
        rng = np.random.default_rng(42)
        p = np.array([abs(sample_haar_unitary(rng)[0, 0]) ** 2 for _ in range(10_000)])
        assert np.mean(p) == pytest.approx(1 / 2, abs=0.02)
        assert np.mean(p**2) == pytest.approx(1 / 3, abs=0.02)

    def test_left_invariance_of_moments(self):
        # distribution unchanged under left multiplication by a fixed unitary
        rng = np.random.default_rng(7)
        fixed = sample_haar_unitary(np.random.default_rng(1000))
        rotated = np.array(
            [
                abs((fixed @ sample_haar_unitary(rng))[0, 0]) ** 2
                for _ in range(10_000)
            ]
        )
        assert np.mean(rotated) == pytest.approx(1 / 2, abs=0.02)
        assert np.mean(rotated**2) == pytest.approx(1 / 3, abs=0.02)
        # |u00|^2 of a 2x2 CUE matrix is uniform on [0, 1]
        hist, _ = np.histogram(rotated, bins=10, range=(0, 1))
        assert np.all(np.abs(hist - 1000) < 5 * np.sqrt(1000))


class TestShotCollection:
    def test_single_unitary_single_shot(self):
        tables = run_randomized_measurements(
            new_basis_state(2, "01"), 1, 1, np.random.default_rng(3)
        )
        assert len(tables) == 1
        assert tables[0].counts.shape == (4,)
        assert tables[0].counts.sum() == 1
        assert len(tables[0].unitaries) == 2

    def test_fixed_seed_reproducible(self):
        state = _bell_state()
        a = run_randomized_measurements(state, 5, 64, np.random.default_rng(11))
        b = run_randomized_measurements(state, 5, 64, np.random.default_rng(11))
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.counts, tb.counts)
            for ua, ub in zip(ta.unitaries, tb.unitaries):
                np.testing.assert_array_equal(ua, ub)

    def test_counts_validated(self):
        with pytest.raises(ValueError, match="counts sum to 3, expected 10"):
            ShotTable(1, 2, 10, np.array([3, 0, 0, 0]))
        # an index outside the two-qubit register needs a longer vector
        with pytest.raises(ValueError, match="length 2\\*\\*2"):
            ShotTable(1, 2, 1, np.array([0, 0, 0, 0, 0, 0, 0, 1]))

    @pytest.mark.parametrize(
        "num_shots, counts, match",
        [
            (3, np.array([1, 1, 1]), "length 2\\*\\*2"),
            (4, np.array([[1, 1], [1, 1]]), "length 2\\*\\*2"),
            (1, {3: 1}, "length 2\\*\\*2"),
            (4, np.array([1.0, 1.0, 1.0, 1.0]), "nonnegative integers, got float64"),
            (4, np.array([True, True, True, True]), "nonnegative integers, got bool"),
            (10, np.array([12, -2, 0, 0]), "nonnegative integers, got int64"),
        ],
    )
    def test_counts_rejected(self, num_shots, counts, match):
        with pytest.raises(ValueError, match=match):
            ShotTable(1, 2, num_shots, counts)

    def test_counts_stored_read_only(self):
        vec = np.array([1, 0, 2, 1], dtype=np.int32)
        table = ShotTable(1, 2, 4, vec)
        assert table.counts.tolist() == [1, 0, 2, 1]
        with pytest.raises(ValueError, match="read-only"):
            table.counts[0] = 4
        assert vec.flags.writeable  # the caller's array is left as it was

    def test_only_the_library_builds_tables(self, tmp_path, monkeypatch):
        built = []
        validate = ShotTable.__post_init__

        def counted(table):
            built.append(table.unitary_index)
            validate(table)

        monkeypatch.setattr(ShotTable, "__post_init__", counted)
        conf = tmp_path / "l4.conf"
        conf.write_text(
            "L = 4\ninitial = neel\ntimes = 0, 0.3\nquantities = entropy\n"
            "n_unitaries = 3\nn_shots = 16\np_layer = 0.01\nsave_shots = true\n"
        )
        run_experiment(conf, tmp_path / "out", quiet=True)
        assert built == []  # the runner keeps its rounds' count vectors
        tables = run_randomized_measurements(_bell_state(), 3, 16, np.random.default_rng(2))
        assert built == [1, 2, 3]
        for tb in tables:
            assert tb.counts.sum() == 16 and not tb.counts.flags.writeable

    def test_child_generator_keyed_independence(self):
        a = child_generator(123, 0, 4, 7).random(4)
        b = child_generator(123, 0, 4, 7).random(4)
        c = child_generator(123, 0, 4, 8).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestKernel:
    def test_pair_sum_against_double_loop(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 4):
            w = rng.standard_normal(1 << n)
            brute = sum(
                (-2.0) ** (-hamming_distance(s, sp)) * w[s] * w[sp]
                for s in range(1 << n)
                for sp in range(1 << n)
            )
            assert hamming_pair_sum(w) == pytest.approx(brute, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**31))
    def test_transform_bitwise_equal_to_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 5000, size=1 << n)
        reals = rng.random(1 << n) * 1e6 + 0.1  # non-dyadic: rounding shows
        for vec in (counts, reals):
            want = _kernel_staged_reference(vec, n)
            got = _kernel_transform(vec, n)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", range(13))
    def test_stage_product_bitwise_equal_to_staged_form(self, n):
        rng = np.random.default_rng(100 + n)
        size, shots = 1 << n, 4096
        counts = rng.multinomial(shots, np.full(size, 1.0 / size))
        probs = rng.dirichlet(np.ones(size))  # non-dyadic: rounding shows
        spike = np.zeros(size, dtype=np.int64)
        spike[rng.integers(size)] = shots
        for vec in (counts, probs, np.zeros(size), spike):
            want = _kernel_staged_reference(vec, n)
            assert np.array_equal(_kernel_transform(vec, n), want)
        scale = float(size)
        quad = float(probs @ _kernel_staged_reference(probs, n))
        assert purity_from_subset_distribution(probs) == scale * quad
        for vec in (counts, spike):
            w = vec.astype(float)
            quad = float(w @ _kernel_staged_reference(w, n))
            assert purity_statistic(vec, shots, "plugin") == scale * quad / shots**2
            assert purity_statistic(vec, shots, "unbiased") == (
                scale * (quad - shots) / (shots * (shots - 1))
            )

    @pytest.mark.parametrize(
        "fn",
        [
            hamming_pair_sum,
            purity_from_subset_distribution,
            lambda v: purity_statistic(v, 4, "plugin"),
        ],
        ids=["pair_sum", "distribution", "statistic"],
    )
    @pytest.mark.parametrize("shape", [0, 3, 6, (2, 2)])
    def test_length_not_power_of_two_rejected(self, fn, shape):
        with pytest.raises(ValueError, match="power of two"):
            fn(np.zeros(shape))

    @pytest.mark.parametrize(
        "num_shots, variant, message",
        [
            (4, "median", "variant must be"),
            (1, "unbiased", "at least 2 shots"),
            (0, "plugin", "num_shots must be"),
        ],
    )
    def test_statistic_arguments_checked_before_transform(
        self, num_shots, variant, message
    ):
        # the vector is malformed too: the argument error must come first
        with pytest.raises(ValueError, match=message):
            purity_statistic(np.zeros(3), num_shots, variant)

    def test_marginalization(self):
        counts = np.zeros(8, dtype=np.int64)
        counts[[0b101, 0b100, 0b011]] = [3, 2, 2]
        # subset (0, 2): bits of sites 1 and 3
        vec = marginal_counts(counts, (0, 2))
        # 101 -> (1,1)=3 ; 100 -> (1,0)=2 ; 011 -> (0,1)=2
        np.testing.assert_array_equal(vec, [0, 2, 2, 3])
        # subset (1, 0): site 2 is now the MSB
        # 101 -> (0,1)=3 ; 100 -> (0,1)=2 ; 011 -> (1,0)=2
        np.testing.assert_array_equal(marginal_counts(counts, (1, 0)), [0, 5, 2, 0])
        assert marginal_counts(counts, (0, 1, 2)) is counts
        np.testing.assert_array_equal(
            marginal_counts(counts, (2, 1, 0)), counts[[0, 4, 2, 6, 1, 5, 3, 7]]
        )
        # a table's read-only vector, as estimate_purity passes it
        table = ShotTable(1, 3, 7, counts)
        assert marginal_counts(table.counts, (0, 1, 2)) is table.counts
        np.testing.assert_array_equal(marginal_counts(table.counts, (0, 2)), vec)
        for bad in ((), (0, 0), (3,)):
            with pytest.raises(ValueError):
                marginal_counts(counts, bad)
        with pytest.raises(ValueError, match="power of two"):
            marginal_counts(counts[:6], (0,))

    def test_statistic_variants_disagree_by_coincidence_term(self):
        counts = np.array([3, 1, 2, 4])
        n = int(counts.sum())
        plug = purity_statistic(counts, n, "plugin")
        unb = purity_statistic(counts, n, "unbiased")
        scale = 4.0
        want_unb = (plug * n * n - scale * n) / (n * (n - 1))
        assert unb == pytest.approx(want_unb, rel=1e-12)


def _gate_by_gate(state, unitaries):
    for q, u in enumerate(unitaries):
        state = apply_gate(state, Gate1Q(u, q))
    return state


class TestBlockRotation:
    @pytest.fixture
    def no_gate_loop(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the block rotation applied a gate")

        monkeypatch.setattr(randmeas, "apply_gate", refuse)

    @pytest.mark.parametrize("num_qubits", [12, 13, 14, 16])
    def test_matches_gate_by_gate(self, num_qubits, no_gate_loop):
        # 13 and 14 end on a shorter block than the other stages
        rng = np.random.default_rng(num_qubits)
        states = [QuantumState(num_qubits, random_state_vector(num_qubits, rng))]
        if num_qubits % 2 == 0:
            states.append(quench_circuit(0.3, num_qubits, "singlet", "pbc").run())
        for state in states:
            us = [sample_haar_unitary(rng) for _ in range(num_qubits)]
            want = _gate_by_gate(state, us).amplitudes
            got = rotate_state(state, us).amplitudes
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_checks_count_and_each_unitary(self, no_gate_loop):
        rng = np.random.default_rng(5)
        state = QuantumState(12, random_state_vector(12, rng))
        us = [sample_haar_unitary(rng) for _ in range(12)]
        for wrong in (us[:-1], us + us[:1]):
            with pytest.raises(ValueError, match="one unitary per qubit"):
                rotate_state(state, wrong)
        for q, bad, match in ((0, np.diag([1.0, 2.0]), "not unitary"),
                              (11, [[np.nan, 0], [0, 1]], "not unitary"),
                              (6, np.eye(3), "2x2")):
            with pytest.raises(ValueError, match=match):
                rotate_state(state, us[:q] + [bad] + us[q + 1:])

    @pytest.mark.parametrize("num_qubits", [8, 12])
    def test_callers_unitaries_stay_writeable(self, num_qubits):
        # gate by gate below 12 qubits, in blocks from 12
        rng = np.random.default_rng(num_qubits)
        state = QuantumState(num_qubits, random_state_vector(num_qubits, rng))
        us = [sample_haar_unitary(rng) for _ in range(num_qubits)]
        rotate_state(state, us)
        assert all(u.flags.writeable for u in us)

    def test_entropy_run_same_bytes_for_one_and_two_threads(self, tmp_path, no_gate_loop):
        conf = tmp_path / "l12.conf"
        conf.write_text(
            "L = 12\ninitial = singlet\nboundary = pbc\ntimes = 0.2, 0.5\n"
            "quantities = entropy\nn_unitaries = 4\nn_shots = 256\n"
            "p_layer = 0.005\nmitigate = on\nseed = 12\n"
        )
        runs = [run_experiment(conf, tmp_path / f"threads{n}", threads=n, quiet=True)
                for n in (1, 2)]
        assert (runs[0] / "entropy.csv").read_bytes() == (runs[1] / "entropy.csv").read_bytes()


class TestPurityEstimation:
    def test_bell_marginal_is_exactly_half_per_round(self):
        # the 1-qubit marginal of a Bell pair is I/2 for every rotation
        state = _bell_state()
        rng = np.random.default_rng(8)
        for _ in range(25):
            u = sample_haar_unitary(rng)
            rotated = rotate_state(state, (u, sample_haar_unitary(rng)))
            dist = probabilities(rotated).reshape(2, 2).sum(axis=1)
            assert purity_from_subset_distribution(dist) == pytest.approx(
                0.5, abs=1e-12
            )

    def test_full_system_product_state_mean(self):
        # per-round statistics scatter but their ensemble mean is Tr[rho^2] = 1
        state = new_basis_state(2, "00")
        state = apply_gate(state, h_gate(0))
        rng = np.random.default_rng(123)
        rounds = []
        for _ in range(400):
            us = (sample_haar_unitary(rng), sample_haar_unitary(rng))
            dist = probabilities(rotate_state(state, us))
            rounds.append(purity_from_subset_distribution(dist))
        rounds = np.array(rounds)
        se = rounds.std(ddof=1) / np.sqrt(rounds.size)
        assert abs(rounds.mean() - 1.0) < 3 * se

    @pytest.mark.parametrize("subset", [(0,), (0, 1)])
    def test_unbiased_at_distribution_level(self, subset):
        # exact per-round probabilities: the round average matches the
        # reduced-density-matrix purity within its own standard error
        rng = np.random.default_rng(31)
        state = QuantumState(3, random_state_vector(3, rng))
        want = purity(state, subset)
        rounds = []
        for _ in range(300):
            us = tuple(sample_haar_unitary(rng) for _ in range(3))
            dist = probabilities(rotate_state(state, us))
            marg = dist.reshape([2] * 3)
            rest = tuple(q for q in range(3) if q not in subset)
            marg = marg.sum(axis=rest).reshape(-1)
            rounds.append(purity_from_subset_distribution(marg))
        rounds = np.array(rounds)
        se = rounds.std(ddof=1) / np.sqrt(rounds.size)
        assert abs(rounds.mean() - want) < 3 * se

    def test_shot_estimators_bias(self):
        # for one fixed rotation: the unbiased statistic reproduces the
        # infinite-shot value, the plug-in carries the known (2^N - x)/N bias
        rng = np.random.default_rng(77)
        state = QuantumState(2, random_state_vector(2, rng))
        us = (sample_haar_unitary(rng), sample_haar_unitary(rng))
        dist = probabilities(rotate_state(state, us))
        exact_stat = purity_from_subset_distribution(dist)
        num_shots = 128
        unb, plug = [], []
        for _ in range(600):
            vec = sample_shots(dist, num_shots, rng)
            unb.append(purity_statistic(vec, num_shots, "unbiased"))
            plug.append(purity_statistic(vec, num_shots, "plugin"))
        unb, plug = np.array(unb), np.array(plug)
        se = unb.std(ddof=1) / np.sqrt(unb.size)
        assert abs(unb.mean() - exact_stat) < 3 * se
        want_plugin = exact_stat * (num_shots - 1) / num_shots + 4.0 / num_shots
        se_p = plug.std(ddof=1) / np.sqrt(plug.size)
        assert abs(plug.mean() - want_plugin) < 3 * se_p

    def test_estimate_purity_end_to_end(self):
        # product state, full system: estimate within 3 sigma of 1
        state = quench_circuit(0.0, 4, "neel", "pbc").run()
        tables = run_randomized_measurements(state, 60, 512, np.random.default_rng(9))
        est = estimate_purity(tables, (0, 1, 2, 3))
        assert abs(est.value - 1.0) < 3 * est.sigma + 1e-9

    def test_estimate_purity_input_validation(self):
        with pytest.raises(ValueError):
            estimate_purity([], (0,))
        table = ShotTable(1, 2, 4, np.array([4, 0, 0, 0]))
        with pytest.raises(ValueError):
            estimate_purity([table], (0, 5))
        with pytest.raises(ValueError):
            estimate_purity([table, ShotTable(2, 2, 8, np.array([8, 0, 0, 0]))], (0,))


class TestRenyi2:
    def test_reference_points(self):
        assert renyi2(1.0) == 0.0
        assert renyi2(0.25) == pytest.approx(2.0)
        assert renyi2(1.0 / 16.0) == pytest.approx(4.0)

    def test_nonpositive_flagged_as_missing(self):
        assert np.isnan(renyi2(0.0))
        assert np.isnan(renyi2(-0.3))
