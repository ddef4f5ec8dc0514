"""Shared reference implementations for the test suite.

Everything here is deliberately independent of the package internals:
operators are built as full kron-product matrices, a two-qubit gate acts
through ``np.moveaxis``, index bits are read by shifts, evolution uses
scipy.linalg.expm, and the randomized-measurement pair expectation is
evaluated by exact Haar integration (two-copy twirl). These serve as the
oracles that the fast implementations are checked against.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.linalg import expm

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def kron_chain(ops) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def qubit_bits(keys: np.ndarray, num_qubits: int):
    """Bit of each qubit, in qubit order, in every index (qubit 0 the MSB).

    Yields one int64 array per qubit, each of the shape of ``keys``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    for q in range(num_qubits):
        yield (keys >> (num_qubits - 1 - q)) & 1


def moveaxis_two_qubit(matrix, vec, pair, num_qubits) -> np.ndarray:
    """``matrix`` on the ordered ``pair``: its axes moved to the front, the 4x4
    product, and moved back."""
    psi = np.moveaxis(vec.reshape([2] * num_qubits), pair, (0, 1)).reshape(4, -1)
    out = (matrix @ psi).reshape([2, 2] + [2] * (num_qubits - 2))
    return np.ascontiguousarray(np.moveaxis(out, (0, 1), pair)).reshape(-1)


def embed_two_site(op1, op2, a: int, b: int, num_sites: int) -> np.ndarray:
    ops = [EYE2] * num_sites
    ops[a] = op1
    ops[b] = op2
    return kron_chain(ops)


def dense_operator(matrix, qubits, num_sites: int) -> np.ndarray:
    """The 2^L x 2^L operator of a 2x2 or 4x4 ``matrix`` on ``qubits``, in
    that order; a 4x4 one as the sum over its entries m[(i, j), (k, l)] of
    |i><k| on the first qubit times |j><l| on the second."""
    if len(qubits) == 1:
        ops = [EYE2] * num_sites
        ops[qubits[0]] = matrix
        return kron_chain(ops)
    return sum(
        matrix[2 * i + j, 2 * k + l]
        * embed_two_site(np.outer(EYE2[i], EYE2[k]), np.outer(EYE2[j], EYE2[l]), *qubits,
                         num_sites)
        for i in (0, 1) for j in (0, 1) for k in (0, 1) for l in (0, 1)
    )


def ref_hamiltonian(num_sites: int, pbc: bool) -> np.ndarray:
    """Fully dimerized chain, couplings (0, 1): XX + YY on the intercell links."""
    dim = 1 << num_sites
    ham = np.zeros((dim, dim), dtype=complex)
    links = [(a, a + 1) for a in range(1, num_sites - 1, 2)]
    if pbc:
        links.append((num_sites - 1, 0))
    for a, b in links:
        ham += embed_two_site(PAULI_X, PAULI_X, a, b, num_sites)
        ham += embed_two_site(PAULI_Y, PAULI_Y, a, b, num_sites)
    return ham


def ref_neel_vector(num_sites: int) -> np.ndarray:
    bits = "".join("1" if q % 2 == 0 else "0" for q in range(num_sites))
    vec = np.zeros(1 << num_sites, dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def ref_singlet_vector(num_sites: int) -> np.ndarray:
    pair = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)
    vec = np.array([1.0 + 0j])
    for _ in range(num_sites // 2):
        vec = np.kron(vec, pair)
    return vec


def ref_evolved_vector(num_sites: int, pbc: bool, initial: str, t: float) -> np.ndarray:
    vec = ref_neel_vector(num_sites) if initial == "neel" else ref_singlet_vector(num_sites)
    return expm(-1j * t * ref_hamiltonian(num_sites, pbc)) @ vec


def ref_purity(vec: np.ndarray, subset, num_sites: int) -> float:
    psi = vec.reshape([2] * num_sites)
    keep = list(subset)
    rest = [q for q in range(num_sites) if q not in set(keep)]
    mat = np.transpose(psi, keep + rest).reshape(1 << len(keep), -1)
    rho = mat @ mat.conj().T
    return float(np.real(np.trace(rho @ rho)))


def ref_reduced_density(vec: np.ndarray, subset, num_sites: int) -> np.ndarray:
    psi = vec.reshape([2] * num_sites)
    keep = list(subset)
    rest = [q for q in range(num_sites) if q not in set(keep)]
    mat = np.transpose(psi, keep + rest).reshape(1 << len(keep), -1)
    return mat @ mat.conj().T


def partial_trace(rho: np.ndarray, keep, num_qubits: int) -> np.ndarray:
    keep = list(keep)
    rest = [q for q in range(num_qubits) if q not in set(keep)]
    perm = keep + rest
    tensor = rho.reshape([2] * (2 * num_qubits))
    tensor = np.transpose(tensor, perm + [num_qubits + p for p in perm])
    k, r = len(keep), len(rest)
    tensor = tensor.reshape(1 << k, 1 << r, 1 << k, 1 << r)
    return np.einsum("arbr->ab", tensor)


def haar_pair_product(rho_subset: np.ndarray, s: int, sp: int, n: int) -> float:
    """Exact E[P(s) P(s')] under independent single-qubit Haar rotations.

    Per qubit the two-copy twirl gives E[<a|uXu'|a><b|uYu'|b>] =
    c1 TrX TrY + c2 Tr[XY] with c1 = (2 - d)/6, c2 = (2d - 1)/6, d = [a == b].
    Expanding the product over qubits turns the expectation into a sum of
    subset purities of rho.
    """
    c1 = np.empty(n)
    c2 = np.empty(n)
    for j in range(n):
        a = (s >> (n - 1 - j)) & 1
        b = (sp >> (n - 1 - j)) & 1
        d = 1.0 if a == b else 0.0
        c1[j] = (2.0 - d) / 6.0
        c2[j] = (2.0 * d - 1.0) / 6.0
    total = 0.0
    qubits = list(range(n))
    for size in range(n + 1):
        for swap_set in combinations(qubits, size):
            coeff = 1.0
            for j in qubits:
                coeff *= c2[j] if j in swap_set else c1[j]
            if size == 0:
                swap_purity = 1.0  # (Tr rho)^2
            else:
                rho_k = partial_trace(rho_subset, list(swap_set), n)
                swap_purity = float(np.real(np.trace(rho_k @ rho_k)))
            total += coeff * swap_purity
    return total


def count_dict(counts: np.ndarray) -> dict[int, int]:
    """{index: count} of the outcomes seen, the observables' input form."""
    return {int(k): int(counts[k]) for k in np.flatnonzero(counts)}


def hamming_distance(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def random_unitary_4x4(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 4x4 unitary: QR of a complex Gaussian matrix, phases fixed."""
    q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state_vector(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return vec / np.linalg.norm(vec)
