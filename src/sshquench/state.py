"""Dense statevector engine for small spin chains.

Bit convention used by every module in this package: chain site 1 is qubit 0
and occupies the MOST significant bit of an amplitude index. The two-qubit
bitstring "10" is therefore index 2, and the Neel pattern "1010" on four
qubits is index 10 (``bits_to_index``, ``index_to_bits``); a count vector
reshaped to (2,)*L has qubit q on axis q in the same order.

Gates act on views of the amplitude vector; no 2^L x 2^L operator matrix
is ever materialized. A one-qubit gate, or a two-qubit gate on a ring pair
(a, (a+1) mod L) with the wrap link (L-1, 0) included, runs as a cycled
stage (``_apply_stages``). With the axes read as the ring from a lead
qubit, one transpose moves the axes ahead of the stage's first qubit to the
back, and the stage's (2^k, rest) view, transposed, times the transposed
2^k x 2^k matrix writes its k qubits out as the trailing axes. A run of
stages, such as a ring-local circuit or a block rotation, tracks the lead
qubit and transposes back once at the end; two 2^L arrays are alive at a
time. Any other pair, reversed or distant, moves its two axes to the front
and multiplies the (4, 2^(L-2)) view by its 4x4 matrix; on a ring pair that
moveaxis form gives the same bits as the stage (checked at even L = 2..16).

Gate1Q checks unitarity in Python scalars, which for a 2x2 matrix costs
less than a numpy product; Gate2Q keeps the numpy check.

States are treated as immutable values: ``apply_gate`` returns a fresh
state, so a state may be shared freely between threads for read-only
queries (probabilities, reduced density matrices) while mutation is
expressed as replacement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

MAX_QUBITS = 24          # dense amplitude vector memory bound
MAX_DENSE_SUBSET = 12    # dense reduced-density-matrix bound

NORM_ATOL = 1e-10
UNITARY_ATOL = 1e-12


class CapacityError(ValueError):
    """Requested size exceeds what the dense representation supports."""


# read-only identity of the two-qubit gates' unitarity check
_IDENTITY_4 = np.eye(4)
_IDENTITY_4.setflags(write=False)


def _unitarity_defect_2x2(m: np.ndarray) -> float:
    """max |M^dagger M - I| over the three distinct entries, in Python scalars.

    Python float arithmetic neither warns nor raises on inf or nan. The
    off-diagonal entry reads all eight real parts, so a nan anywhere makes it
    nan, and it goes first in ``max``, which keeps its first argument when
    every comparison with it is false.
    """
    (a, b), (c, d) = m.tolist()
    ac, cc = a.conjugate(), c.conjugate()
    off = ac * b + cc * d
    return max(
        math.sqrt((off * off.conjugate()).real),
        abs((ac * a + cc * c).real - 1.0),
        abs((b.conjugate() * b + d.conjugate() * d).real - 1.0),
    )


def _as_unitary(matrix, dim: int) -> np.ndarray:
    m = np.array(matrix, dtype=complex)  # a copy: the caller's array stays writeable
    if m.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
    if dim == 2:
        defect = _unitarity_defect_2x2(m)
    else:
        # no numpy warning ahead of the error below
        with np.errstate(invalid="ignore", over="ignore"):
            defect = np.abs(m.conj().T @ m - _IDENTITY_4).max()
    if not defect <= UNITARY_ATOL:  # also rejects nan and inf entries
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
    """Normalized amplitude vector over ``num_qubits`` qubits.

    Holds a read-only view of a complex ``amplitudes`` array, not a copy, so
    a caller that keeps writing to that buffer must pass a copy.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise CapacityError(
                f"num_qubits must be in [1, {MAX_QUBITS}], got {self.num_qubits}"
            )
        amps = np.asarray(self.amplitudes, dtype=complex).view()
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError("amplitude vector length must be 2**num_qubits")
        norm = np.vdot(amps, amps).real
        if not abs(norm - 1.0) <= NORM_ATOL:  # also rejects nan and inf
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.2e}")
        amps.setflags(write=False)  # the view only: the caller's array stays writeable
        object.__setattr__(self, "amplitudes", amps)


def bits_to_index(bits: str) -> int:
    """Index of a bitstring, site 1 (leftmost character) as the MSB."""
    return int(bits, 2)


def index_to_bits(index: int, num_qubits: int) -> str:
    return format(index, f"0{num_qubits}b")


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
    n, qubits = state.num_qubits, gate.qubits
    if max(qubits) >= n:
        raise ValueError(f"qubits {qubits} out of range for {n} qubits")
    if len(qubits) == 1 or qubits[1] == (qubits[0] + 1) % n:  # ring-local: one stage
        return _apply_stages(state, ((qubits[0], gate.matrix.T),))
    a, b = qubits
    psi = state.amplitudes.reshape([2] * n)
    psi = np.moveaxis(psi, (a, b), (0, 1)).reshape(4, -1)
    out = gate.matrix @ psi
    out = np.moveaxis(out.reshape([2, 2] + [2] * (n - 2)), (0, 1), (a, b))
    return QuantumState(n, np.ascontiguousarray(out).reshape(-1))


def _cycle(psi: np.ndarray, k: int) -> np.ndarray:
    """The leading ``k`` qubit axes of ``psi`` moved behind the others: one transpose."""
    return psi.reshape(1 << k, -1).T.reshape(-1) if k else psi


def _apply_stages(
    state: QuantumState, stages: Iterable[tuple[int, np.ndarray]]
) -> QuantumState:
    """Cycled stages in the order given. A stage (first, m) applies the
    transposed 2^k x 2^k matrix ``m`` to the ring-consecutive qubits
    first, ..., first+k-1 (mod L); the caller checks ``m``."""
    n, psi, lead = state.num_qubits, state.amplitudes, 0  # axes: the ring from ``lead``
    for first, m in stages:
        psi = _cycle(psi, (first - lead) % n)
        psi = (psi.reshape(len(m), -1).T @ m).reshape(-1)
        lead = (first + len(m).bit_length() - 1) % n
    return QuantumState(n, _cycle(psi, (n - lead) % n))


def probabilities(state: QuantumState) -> np.ndarray:
    """Measurement distribution over basis indices; sums to 1 within 1e-10."""
    return np.abs(state.amplitudes) ** 2


def sample_shots(
    distribution: np.ndarray, num_shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Multinomial sample of ``num_shots`` outcomes: one int64 count per index.

    Deterministic for a fixed generator state.
    """
    if num_shots < 1:
        raise ValueError("num_shots must be >= 1")
    p = np.asarray(distribution, dtype=float)
    total = p.sum()
    if not abs(total - 1.0) <= NORM_ATOL or np.any(p < -NORM_ATOL):
        raise ValueError("distribution entries must be nonnegative and sum to 1")
    return rng.multinomial(num_shots, np.clip(p, 0.0, None) / total)


def sample_outcomes(
    distribution: np.ndarray, num_shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-shot outcome indices in ascending order.

    Useful when a per-shot transformation, e.g. readout bit flips, has to be
    applied before counting.
    """
    counts = sample_shots(distribution, num_shots, rng)
    return np.repeat(np.arange(counts.size, dtype=np.int64), counts)


def counts_from_outcomes(outcomes: np.ndarray, num_qubits: int) -> np.ndarray:
    """Count vector of length 2^num_qubits over outcome indices."""
    return np.bincount(np.asarray(outcomes, dtype=np.int64), minlength=1 << num_qubits)


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
    rest = [q for q in range(state.num_qubits) if q not in sub]  # subset axes first
    m = np.transpose(state.amplitudes.reshape([2] * state.num_qubits), list(sub) + rest)
    m = m.reshape(1 << len(sub), -1)
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
