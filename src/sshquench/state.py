"""Dense statevector engine for small spin chains.

Bit convention used by every module in this package: chain site 1 is qubit 0
and occupies the MOST significant bit of an amplitude index. The two-qubit
bitstring "10" is therefore index 2, and the Neel pattern "1010" on four
qubits is index 10. ``qubit_bits`` (reading bits out of indices) and
``pack_bits`` (its inverse) are the one place this order is written down;
every estimator that reads measured bitstrings goes through them.

Gates are applied with strided kernels over the amplitude vector; no
2^L x 2^L operator matrix is ever materialized. States are treated as
immutable values: ``apply_gate`` returns a fresh state, so a state may be
shared freely between threads for read-only queries (probabilities, reduced
density matrices) while mutation is expressed as replacement.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

MAX_QUBITS = 24          # dense amplitude vector memory bound
MAX_DENSE_SUBSET = 12    # dense reduced-density-matrix bound

NORM_ATOL = 1e-10
UNITARY_ATOL = 1e-12


class CapacityError(ValueError):
    """Requested size exceeds what the dense representation supports."""


def _as_unitary(matrix, dim: int) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
    defect = np.max(np.abs(m.conj().T @ m - np.eye(dim)))
    if defect > UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary (deviation {defect:.2e})")
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class Gate1Q:
    """Single-qubit gate: 2x2 unitary acting on ``qubit`` (0-based)."""

    matrix: np.ndarray
    qubit: int
    name: str = "U1"
    param: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_unitary(self.matrix, 2))
        if self.qubit < 0:
            raise ValueError("qubit index must be nonnegative")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)


@dataclass(frozen=True, eq=False)
class Gate2Q:
    """Two-qubit gate: 4x4 unitary acting on the ordered pair ``qubits``.

    The matrix is written in the basis |q0 q1> = |00>, |01>, |10>, |11>
    where q0 is the first listed qubit.
    """

    matrix: np.ndarray
    qubits: tuple[int, int]
    name: str = "U2"
    param: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_unitary(self.matrix, 4))
        a, b = self.qubits
        if a == b:
            raise ValueError("two-qubit gate needs distinct targets")
        if a < 0 or b < 0:
            raise ValueError("qubit indices must be nonnegative")


Gate = Union[Gate1Q, Gate2Q]


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Normalized amplitude vector over ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise CapacityError(
                f"num_qubits must be in [1, {MAX_QUBITS}], got {self.num_qubits}"
            )
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError("amplitude vector length must be 2**num_qubits")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.2e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


def bits_to_index(bits: str) -> int:
    """Index of a bitstring, site 1 (leftmost character) as the MSB."""
    return int(bits, 2)


def index_to_bits(index: int, num_qubits: int) -> str:
    return format(index, f"0{num_qubits}b")


def qubit_bits(
    keys: np.ndarray, num_qubits: int, qubits: Iterable[int] | None = None
) -> Iterator[np.ndarray]:
    """Bit of each listed qubit (default: all, in order) in every index.

    Yields one int64 array per qubit, each of the shape of ``keys``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    for q in range(num_qubits) if qubits is None else qubits:
        bit = keys >> (num_qubits - 1 - q)
        bit &= 1
        yield bit


def pack_bits(bits: Iterable[np.ndarray]) -> np.ndarray:
    """Inverse of ``qubit_bits``: indices whose first listed bit is the MSB."""
    index = np.int64(0)
    for bit in bits:
        index = (index << 1) | bit
    return index


def new_basis_state(num_qubits: int, bits: str) -> QuantumState:
    """Computational basis state for the given bitstring."""
    if len(bits) != num_qubits or set(bits) - {"0", "1"}:
        raise ValueError(f"bits must be {num_qubits} characters of 0/1, got {bits!r}")
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise CapacityError(f"num_qubits must be in [1, {MAX_QUBITS}]")
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[bits_to_index(bits)] = 1.0
    return QuantumState(num_qubits, amps)


def apply_gate(state: QuantumState, gate: Gate) -> QuantumState:
    """Apply a 1- or 2-qubit gate, returning a new state."""
    n = state.num_qubits
    if isinstance(gate, Gate1Q):
        q = gate.qubit
        if q >= n:
            raise ValueError(f"qubit {q} out of range for {n} qubits")
        psi = state.amplitudes.reshape(1 << q, 2, -1)
        u = gate.matrix
        out = np.empty_like(psi)
        out[:, 0, :] = u[0, 0] * psi[:, 0, :] + u[0, 1] * psi[:, 1, :]
        out[:, 1, :] = u[1, 0] * psi[:, 0, :] + u[1, 1] * psi[:, 1, :]
        return QuantumState(n, out.reshape(-1))
    a, b = gate.qubits
    if a >= n or b >= n:
        raise ValueError(f"qubits {gate.qubits} out of range for {n} qubits")
    psi = state.amplitudes.reshape([2] * n)
    psi = np.moveaxis(psi, (a, b), (0, 1)).reshape(4, -1)
    out = gate.matrix @ psi
    out = np.moveaxis(out.reshape([2, 2] + [2] * (n - 2)), (0, 1), (a, b))
    return QuantumState(n, np.ascontiguousarray(out).reshape(-1))


def probabilities(state: QuantumState) -> np.ndarray:
    """Measurement distribution over basis indices; sums to 1 within 1e-10."""
    return np.abs(state.amplitudes) ** 2


def sample_shots(
    distribution: np.ndarray, num_shots: int, rng: np.random.Generator
) -> dict[int, int]:
    """Multinomial sample of ``num_shots`` outcomes, as {index: count}.

    Deterministic for a fixed generator state.
    """
    if num_shots < 1:
        raise ValueError("num_shots must be >= 1")
    p = np.asarray(distribution, dtype=float)
    if abs(p.sum() - 1.0) > NORM_ATOL or np.any(p < -NORM_ATOL):
        raise ValueError("distribution entries must be nonnegative and sum to 1")
    counts = rng.multinomial(num_shots, np.clip(p, 0.0, None) / p.sum())
    hit = np.nonzero(counts)[0]
    return {int(i): int(counts[i]) for i in hit}


def sample_outcomes(
    distribution: np.ndarray, num_shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-shot outcome indices (order carries no information beyond counts).

    Useful when a per-shot transformation, e.g. readout bit flips, has to be
    applied before counting.
    """
    counts = sample_shots(distribution, num_shots, rng)
    keys = np.fromiter(counts.keys(), dtype=np.int64)
    reps = np.fromiter(counts.values(), dtype=np.int64)
    return np.repeat(keys, reps)


def counts_from_outcomes(outcomes: np.ndarray) -> dict[int, int]:
    keys, reps = np.unique(np.asarray(outcomes, dtype=np.int64), return_counts=True)
    return {int(k): int(c) for k, c in zip(keys, reps)}


def _subset_split(state: QuantumState, subset: Sequence[int]) -> np.ndarray:
    """Reshape amplitudes to (2^|subset|, 2^|rest|), subset axes first."""
    n = state.num_qubits
    sub = list(subset)
    rest = [q for q in range(n) if q not in set(sub)]
    psi = state.amplitudes.reshape([2] * n)
    return np.transpose(psi, sub + rest).reshape(1 << len(sub), -1)


def _validated_subset(num_qubits: int, subset: Iterable[int]) -> tuple[int, ...]:
    sub = tuple(subset)
    if not sub:
        raise ValueError("subset must be nonempty")
    if len(set(sub)) != len(sub):
        raise ValueError("subset contains duplicate qubits")
    if min(sub) < 0 or max(sub) >= num_qubits:
        raise ValueError(f"subset {sub} out of range for {num_qubits} qubits")
    return sub


def reduced_density_matrix(state: QuantumState, subset: Iterable[int]) -> np.ndarray:
    """Dense reduced density matrix of the given qubits (at most 12)."""
    sub = _validated_subset(state.num_qubits, subset)
    if len(sub) > MAX_DENSE_SUBSET:
        raise CapacityError(
            f"dense reduced density matrix limited to {MAX_DENSE_SUBSET} qubits"
        )
    m = _subset_split(state, sub)
    return m @ m.conj().T


def purity(state: QuantumState, subset: Iterable[int]) -> float:
    """Tr[rho_I^2] of the reduced state on ``subset``.

    For a pure global state the subset and its complement share a Schmidt
    spectrum, so the smaller side is always the one traced out; any subset of
    a supported state is therefore in capacity.
    """
    sub = _validated_subset(state.num_qubits, subset)
    if len(sub) == state.num_qubits:
        norm = float(np.sum(np.abs(state.amplitudes) ** 2))
        return norm * norm
    if len(sub) > state.num_qubits - len(sub):
        sub = tuple(q for q in range(state.num_qubits) if q not in set(sub))
    rho = reduced_density_matrix(state, sub)
    return float(np.sum(np.abs(rho) ** 2))


def overlap(a: QuantumState, b: QuantumState) -> complex:
    if a.num_qubits != b.num_qubits:
        raise ValueError("states act on different qubit counts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))
