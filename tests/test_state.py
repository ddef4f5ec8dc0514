"""Statevector engine: basis handling, gate kernels, sampling, reductions."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (
    embed_two_site,
    haar_pair_product,
    hamming_distance,
    random_state_vector,
    ref_reduced_density,
)
from sshquench import state as state_module
from sshquench.circuits import _CX, coupling_block_matrix, cx_gate, h_gate, quench_circuit
from sshquench.randmeas import sample_haar_unitary
from sshquench.state import (
    CapacityError,
    Gate1Q,
    Gate2Q,
    MATMUL_LEADING,
    MATMUL_ROWS,
    UNITARY_ATOL,
    QuantumState,
    _IDENTITY_4,
    _kron_form,
    _unitarity_defect_2x2,
    apply_gate,
    bits_to_index,
    counts_from_outcomes,
    index_to_bits,
    new_basis_state,
    probabilities,
    purity,
    reduced_density_matrix,
    sample_outcomes,
    sample_shots,
)

BELL = None  # built in fixture-less helper below


def _bell_state() -> QuantumState:
    state = new_basis_state(2, "00")
    state = apply_gate(state, h_gate(0))
    return apply_gate(state, cx_gate(0, 1))


def _random_unitary_2x2(theta, phi, lam) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [np.exp(1j * phi) * c, np.exp(1j * lam) * s],
            [-np.exp(-1j * lam) * s, np.exp(-1j * phi) * c],
        ]
    )


def _random_unitary_4x4(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _moveaxis_two_qubit(matrix, vec, pair, num_qubits) -> np.ndarray:
    """The pair's axes moved to the front, the 4x4 product, and moved back."""
    psi = np.moveaxis(vec.reshape([2] * num_qubits), pair, (0, 1)).reshape(4, -1)
    out = (matrix @ psi).reshape([2, 2] + [2] * (num_qubits - 2))
    return np.ascontiguousarray(np.moveaxis(out, (0, 1), pair)).reshape(-1)


def _unitarity_defect_reference(m: np.ndarray) -> float:
    """max |M^dagger M - I| by a numpy product, the check's earlier form."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.abs(m.conj().T @ m - np.eye(len(m))).max())


class TestBasisStates:
    def test_single_qubit_zero(self):
        state = new_basis_state(1, "0")
        np.testing.assert_allclose(state.amplitudes, [1, 0])

    def test_msb_convention(self):
        state = new_basis_state(2, "10")
        assert np.argmax(np.abs(state.amplitudes)) == 2

    def test_neel_string(self):
        state = new_basis_state(4, "1010")
        assert np.argmax(np.abs(state.amplitudes)) == bits_to_index("1010")
        assert index_to_bits(10, 4) == "1010"

    def test_capacity_bounds(self):
        with pytest.raises(CapacityError):
            new_basis_state(0, "")
        with pytest.raises(CapacityError):
            new_basis_state(25, "0" * 25)

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            new_basis_state(2, "102")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_amplitudes_rejected(self, bad):
        with pytest.raises(ValueError, match="norm"):
            QuantumState(2, [bad, 0, 0, 0])


class TestGates:
    def test_hadamard(self):
        state = apply_gate(new_basis_state(1, "0"), h_gate(0))
        np.testing.assert_allclose(state.amplitudes, [1, 1] / np.sqrt(2), atol=1e-12)

    def test_cnot_makes_bell(self):
        bell = _bell_state()
        np.testing.assert_allclose(
            bell.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12
        )

    def test_zz_evolution_phase_on_01(self):
        # exp(-i t ZZ)|01> = exp(+i t)|01>, ZZ eigenvalue -1
        t = 0.37
        zz = np.kron(np.diag([1, -1]), np.diag([1, -1])).astype(complex)
        gate = Gate2Q(expm(-1j * t * zz), (0, 1), name="UZZ")
        state = apply_gate(new_basis_state(2, "01"), gate)
        np.testing.assert_allclose(state.amplitudes[1], np.exp(1j * t), atol=1e-12)

    def test_two_qubit_gate_any_pair_matches_kron(self):
        rng = np.random.default_rng(7)
        vec = random_state_vector(4, rng)
        state = QuantumState(4, vec)
        u = _random_unitary_2x2(0.3, 1.1, -0.4)
        v = _random_unitary_2x2(1.2, -0.2, 0.9)
        mat = np.kron(u, v)
        got = apply_gate(state, Gate2Q(mat, (3, 1)))
        # reference: permute qubits (3, 1) to the front, apply, permute back
        psi = vec.reshape([2] * 4)
        psi = np.moveaxis(psi, (3, 1), (0, 1)).reshape(4, -1)
        psi = (mat @ psi).reshape([2, 2, 2, 2])
        want = np.moveaxis(psi, (0, 1), (3, 1)).reshape(-1)
        np.testing.assert_allclose(got.amplitudes, want, atol=1e-12)

    @pytest.mark.parametrize("num_qubits", [1, 2, 5, 8, 12])
    def test_one_qubit_gate_every_qubit_matches_kron(self, num_qubits):
        # qubits with more than MATMUL_LEADING leading indices and rows
        # shorter than MATMUL_ROWS take the kron form (5-7 of L = 8, 7-11
        # of L = 12), every other one matmul
        rng = np.random.default_rng(num_qubits)
        vec = random_state_vector(num_qubits, rng)
        state = QuantumState(num_qubits, vec)
        u = _random_unitary_2x2(0.7, -1.3, 0.4)
        forms = set()
        for q in range(num_qubits):
            rows = 1 << (num_qubits - q - 1)
            forms.add((1 << q) <= MATMUL_LEADING or rows >= MATMUL_ROWS)
            got = apply_gate(state, Gate1Q(u, q))
            if num_qubits <= 8:
                op = np.kron(np.kron(np.eye(1 << q), u), np.eye(rows))
                want = op @ vec
            else:  # the full operator would take 256 MB: u on the qubit's axis
                want = np.einsum("ij,ajb->aib", u, vec.reshape(1 << q, 2, rows))
            np.testing.assert_allclose(got.amplitudes, want.reshape(-1), atol=1e-12)
        assert forms == ({True, False} if num_qubits >= 8 else {True})

    @pytest.mark.parametrize("num_qubits", [4, 6, 8, 12, 16])
    def test_adjacent_two_qubit_gate_keeps_the_moveaxis_bits(self, num_qubits, monkeypatch):
        # every pair (a, a+1) gives the bits of the moveaxis form, through
        # matmul for a = 0 or factor rows 4R of at least 2 * MATMUL_ROWS and
        # the kron form otherwise; matmul on rows of 1 or 2 would move bits
        # at L = 4 and 6
        kron_calls = []

        def counted_kron(u, psi):
            kron_calls.append(psi.shape)
            return _kron_form(u, psi)

        monkeypatch.setattr(state_module, "_kron_form", counted_kron)
        rng = np.random.default_rng(num_qubits)
        vec = random_state_vector(num_qubits, rng)
        state = QuantumState(num_qubits, vec)
        matrices = (coupling_block_matrix(0.37), _CX, _random_unitary_4x4(rng))
        for a in range(num_qubits - 1):
            for m in matrices:
                got = apply_gate(state, Gate2Q(m, (a, a + 1)))
                want = _moveaxis_two_qubit(m, vec, (a, a + 1), num_qubits)
                assert np.array_equal(got.amplitudes, want)
        kron_pairs = sum(4 << (num_qubits - a - 2) < 2 * MATMUL_ROWS
                         for a in range(1, num_qubits - 1))
        assert 0 < kron_pairs < num_qubits - 1
        assert len(kron_calls) == len(matrices) * kron_pairs

    @pytest.mark.parametrize("pair", [(1, 0), (3, 2), (5, 4), (5, 0), (0, 5), (4, 1)])
    def test_reversed_wrap_and_distant_pairs_match_kron(self, pair):
        num_qubits = 6
        rng = np.random.default_rng(sum(pair))
        vec = random_state_vector(num_qubits, rng)
        m = _random_unitary_4x4(rng)
        got = apply_gate(QuantumState(num_qubits, vec), Gate2Q(m, pair))
        # |i j><k l| on (pair[0], pair[1]) with weight m[(i, j), (k, l)]
        unit = np.eye(2)
        op = sum(
            m[2 * i + j, 2 * k + l]
            * embed_two_site(np.outer(unit[i], unit[k]), np.outer(unit[j], unit[l]), *pair,
                             num_qubits)
            for i in (0, 1) for j in (0, 1) for k in (0, 1) for l in (0, 1)
        )
        np.testing.assert_allclose(got.amplitudes, op @ vec, atol=1e-12)

    def test_nonunitary_rejected(self):
        with pytest.raises(ValueError):
            Gate1Q(np.array([[1, 0], [0, 2]]), 0)

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            Gate2Q(np.eye(4), (1, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_matrix_rejected(self, bad):
        # the ValueError is the only signal: no numpy warning precedes it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="unitary"):
                Gate1Q([[bad, 0], [0, 1]], 0)
            with pytest.raises(ValueError, match="unitary"):
                Gate2Q(np.diag([bad, 1, 1, 1]), (0, 1))

    def test_unitarity_identities_read_only(self):
        np.testing.assert_array_equal(_IDENTITY_4, np.eye(4))
        with pytest.raises(ValueError):
            _IDENTITY_4[0, 0] = 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_nonfinite_entry_rejected_without_warning(self, bad, entry):
        m = _random_unitary_2x2(0.7, -1.3, 0.4)
        m[entry] = bad
        # a nan entry must read as a nan deviation, whatever its position
        match = "deviation nan" if np.isnan(bad) else "not unitary"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                Gate1Q(m, 0)

    @pytest.mark.parametrize("ratio", [0.5, 0.9, 1.1, 2.0])
    def test_scalar_check_agrees_with_numpy_defect(self, ratio):
        # Haar unitaries made non-unitary by a known amount, on the diagonal
        # of M^dagger M (a column scaled) and off it (a column sheared)
        rng = np.random.default_rng(31)
        eps = ratio * UNITARY_ATOL
        for _ in range(200):
            u = sample_haar_unitary(rng)
            scaled = u * np.array([1.0, np.sqrt(1.0 + eps)])
            sheared = u @ np.array([[1.0, eps * np.exp(1j * rng.uniform(0, 2 * np.pi))],
                                    [0.0, 1.0]])
            for m in (scaled, sheared):
                want = _unitarity_defect_reference(m)
                assert want == pytest.approx(eps, rel=0.01)
                assert _unitarity_defect_2x2(m) == pytest.approx(want, abs=1e-15)
                if ratio < 1.0:
                    np.testing.assert_array_equal(Gate1Q(m, 0).matrix, m)
                else:
                    with pytest.raises(ValueError, match="not unitary"):
                        Gate1Q(m, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        theta=st.floats(0, np.pi, allow_nan=False),
        phi=st.floats(-np.pi, np.pi, allow_nan=False),
        lam=st.floats(-np.pi, np.pi, allow_nan=False),
        qubit=st.integers(0, 2),
        seed=st.integers(0, 2**31),
    )
    def test_norm_preserved_and_inverse_restores(self, theta, phi, lam, qubit, seed):
        rng = np.random.default_rng(seed)
        state = QuantumState(3, random_state_vector(3, rng))
        u = _random_unitary_2x2(theta, phi, lam)
        forward = apply_gate(state, Gate1Q(u, qubit))
        assert abs(np.sum(np.abs(forward.amplitudes) ** 2) - 1.0) < 1e-10
        back = apply_gate(forward, Gate1Q(u.conj().T, qubit))
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-10)


class TestProbabilitiesAndSampling:
    def test_basis_distribution(self):
        dist = probabilities(new_basis_state(2, "01"))
        np.testing.assert_allclose(dist, [0, 1, 0, 0])

    def test_bell_distribution(self):
        np.testing.assert_allclose(
            probabilities(_bell_state()), [0.5, 0, 0, 0.5], atol=1e-12
        )

    def test_singlet_distribution(self):
        state = quench_circuit(0.0, 2, "singlet", "obc").run()
        np.testing.assert_allclose(
            probabilities(state), [0, 0.5, 0.5, 0], atol=1e-12
        )

    def test_deterministic_distribution_all_on_one(self):
        rng = np.random.default_rng(1)
        counts = sample_shots(np.array([0.0, 1.0, 0.0, 0.0]), 100, rng)
        assert counts.dtype == np.int64
        assert counts.tolist() == [0, 100, 0, 0]

    def test_uniform_counts_within_binomial_bound(self):
        rng = np.random.default_rng(12345)
        n = 4096
        counts = sample_shots(np.full(4, 0.25), n, rng)
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert counts.shape == (4,)
        for value in counts:
            assert abs(value - n / 4) < 5 * sigma
        assert counts.sum() == n

    def test_same_seed_same_counts(self):
        dist = np.array([0.1, 0.2, 0.3, 0.4])
        a = sample_shots(dist, 500, np.random.default_rng(99))
        b = sample_shots(dist, 500, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_outcomes_ascending_and_counted_back(self):
        # expanding the drawn counts in index order and counting them again
        # gives the same vector, from the same generator draws
        dist = np.array([0.0, 0.1, 0.2, 0.0, 0.3, 0.0, 0.4, 0.0])
        counts = sample_shots(dist, 500, np.random.default_rng(5))
        outcomes = sample_outcomes(dist, 500, np.random.default_rng(5))
        assert outcomes.tolist() == sorted(outcomes.tolist())
        np.testing.assert_array_equal(counts_from_outcomes(outcomes, 3), counts)
        recount = counts_from_outcomes(np.array([2, 2, 0]), 3)
        assert recount.tolist() == [1, 0, 2, 0, 0, 0, 0, 0]

    def test_invalid_distribution_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_shots(np.array([0.5, 0.4]), 10, rng)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_distribution_rejected(self, bad):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="sum to 1"):
            sample_shots(np.array([bad, 0.5, 0.5, 0.0]), 10, rng)


class TestReductions:
    def test_product_state_purity_one(self):
        state = new_basis_state(4, "1010")
        for subset in [(0,), (1, 2), (0, 3)]:
            assert purity(state, subset) == pytest.approx(1.0, abs=1e-12)

    def test_bell_single_qubit_maximally_mixed(self):
        rho = reduced_density_matrix(_bell_state(), (0,))
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)
        assert purity(_bell_state(), (0,)) == pytest.approx(0.5, abs=1e-12)

    def test_neel_quench_peak_purity(self):
        # half-chain purity 1/4 (two units of entropy) at the first peak
        state = quench_circuit(np.pi / 8, 4, "neel", "pbc").run()
        assert purity(state, (0, 1)) == pytest.approx(0.25, abs=1e-10)

    def test_density_matrix_properties(self):
        rng = np.random.default_rng(5)
        state = QuantumState(4, random_state_vector(4, rng))
        rho = reduced_density_matrix(state, (1, 3))
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert min(np.linalg.eigvalsh(rho)) > -1e-12

    def test_matches_reference_reduction(self):
        rng = np.random.default_rng(21)
        vec = random_state_vector(5, rng)
        state = QuantumState(5, vec)
        subset = (0, 2, 4)
        np.testing.assert_allclose(
            reduced_density_matrix(state, subset),
            ref_reduced_density(vec, subset, 5),
            atol=1e-12,
        )

    def test_purity_complement_symmetry(self):
        rng = np.random.default_rng(3)
        state = QuantumState(5, random_state_vector(5, rng))
        assert purity(state, (0, 1)) == pytest.approx(
            purity(state, (2, 3, 4)), abs=1e-12
        )

    def test_subset_capacity(self):
        state = new_basis_state(14, "0" * 14)
        with pytest.raises(CapacityError):
            reduced_density_matrix(state, tuple(range(13)))

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            reduced_density_matrix(new_basis_state(2, "00"), ())


class TestEstimatorIdentity:
    """The Hamming-kernel pair sum with exactly Haar-averaged probability
    products reproduces the reduced-density-matrix purity."""

    @pytest.mark.parametrize("subset", [(0,), (0, 1), (1, 2), (0, 1, 2)])
    def test_kernel_inverts_local_twirl(self, subset):
        rng = np.random.default_rng(17)
        vec = random_state_vector(3, rng)
        state = QuantumState(3, vec)
        rho = reduced_density_matrix(state, subset)
        n = len(subset)
        total = 0.0
        for s in range(1 << n):
            for sp in range(1 << n):
                pair = haar_pair_product(rho, s, sp, n)
                total += (-2.0) ** (-hamming_distance(s, sp)) * pair
        total *= 1 << n
        assert total == pytest.approx(purity(state, subset), abs=1e-8)
