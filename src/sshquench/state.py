"""Dense statevector engine for small spin chains.

Bit convention used by every module in this package: chain site 1 is qubit 0
and occupies the MOST significant bit of an amplitude index. The two-qubit
bitstring "10" is therefore index 2, and the Neel pattern "1010" on four
qubits is index 10. ``qubit_bits`` (reading bits out of indices) and
``pack_bits`` (its inverse) write this order down for index arrays; a count
vector reshaped to (2,)*L has qubit q on axis q in the same order.

Gates act on views of the amplitude vector; no 2^L x 2^L operator matrix
is ever materialized. A gate on qubit q, or on the adjacent pair (q, q+1),
views the vector as (2^q, d, R) with d = 2 or 4 and takes one of two forms:
  - one ``np.matmul`` of the d x d matrix, broadcast over the leading axis,
    when that axis is short (2^q <= MATMUL_LEADING for one qubit, q = 0 for
    a pair) or the rows are long (dR >= 2 MATMUL_ROWS);
  - otherwise the kron form: the (2^q, dR) view times kron(u, I_R).T, one
    BLAS product whose (dR, dR) factor is at most 32 x 32.
Matmul makes one small product per leading index, which costs more than
one product over all of them once there are many and each is short. The
rule picks the faster form in timings on every qubit and pair at L = 8, 12
and 16 (``scripts/bench_stages.py``; ``BENCH_12.json`` and, for pairs with
R = 16, 0.50 ms by matmul against 0.94 ms by kron, ``BENCH_15.json``). An
elementwise form, whose 2^L-sized temporaries cost 3-6x the kron product on
the last qubits of L = 16, is not used. For one qubit the forms differ in
the last bit of an amplitude at most; for a pair each keeps the bits of the
moveaxis form (checked at L = 4..18), which matmul on rows R <= 2 would
not. Any other pair, the wrap link (L-1, 0) and reversed pairs included,
moves its two axes to the front and multiplies the (4, 2^(L-2)) view by
its 4x4 matrix.

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
from functools import lru_cache
from typing import Iterable, Iterator, Union

import numpy as np

MAX_QUBITS = 24          # dense amplitude vector memory bound
MAX_DENSE_SUBSET = 12    # dense reduced-density-matrix bound

NORM_ATOL = 1e-10
UNITARY_ATOL = 1e-12
MATMUL_LEADING = 16      # gate forms: see the module docstring
MATMUL_ROWS = 32


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
    m = np.asarray(matrix, dtype=complex)
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
        norm = np.vdot(amps, amps).real
        if not abs(norm - 1.0) <= NORM_ATOL:  # also rejects nan and inf
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


def qubit_bits(keys: np.ndarray, num_qubits: int) -> Iterator[np.ndarray]:
    """Bit of each qubit, in qubit order, in every index.

    Yields one int64 array per qubit, each of the shape of ``keys``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    for q in range(num_qubits):
        bit = keys >> (num_qubits - 1 - q)
        bit &= 1
        yield bit


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of ``qubit_bits`` for 0/1 bits along the last axis, the first as
    the MSB. One exact product: each partial sum is an integer below 2^53."""
    weights = 2.0 ** np.arange(bits.shape[-1] - 1, -1, -1)
    return (bits.astype(float) @ weights).astype(np.int64)


def new_basis_state(num_qubits: int, bits: str) -> QuantumState:
    """Computational basis state for the given bitstring."""
    if len(bits) != num_qubits or set(bits) - {"0", "1"}:
        raise ValueError(f"bits must be {num_qubits} characters of 0/1, got {bits!r}")
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise CapacityError(f"num_qubits must be in [1, {MAX_QUBITS}]")
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[bits_to_index(bits)] = 1.0
    return QuantumState(num_qubits, amps)


@lru_cache(maxsize=None)  # apply_gate asks only for the sizes R < MATMUL_ROWS
def _eye(size: int) -> np.ndarray:
    eye = np.eye(size)
    eye.setflags(write=False)
    return eye


def _kron_form(u: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """d x d ``u`` on the middle axis of a (2^q, d, R) view: each length-dR row
    times kron(u, I_R).T, one product whose factor one broadcast multiply builds."""
    size = u.shape[0] * psi.shape[2]
    factor = u.T[:, None, :, None] * _eye(psi.shape[2])[None, :, None, :]
    return psi.reshape(psi.shape[0], -1) @ factor.reshape(size, size)


def apply_gate(state: QuantumState, gate: Gate) -> QuantumState:
    """Apply a 1- or 2-qubit gate, returning a new state."""
    n = state.num_qubits
    one_qubit = isinstance(gate, Gate1Q)
    a, b = (gate.qubit, gate.qubit) if one_qubit else gate.qubits
    if a >= n or b >= n:
        raise ValueError(f"qubits {gate.qubits} out of range for {n} qubits")
    if one_qubit or b == a + 1:
        psi = state.amplitudes.reshape(1 << a, 2 if one_qubit else 4, -1)
        short_lead = MATMUL_LEADING if one_qubit else 1
        if psi.shape[0] <= short_lead or psi.shape[1] * psi.shape[2] >= 2 * MATMUL_ROWS:
            out = np.matmul(gate.matrix, psi)
        else:
            out = _kron_form(gate.matrix, psi)
        return QuantumState(n, out.reshape(-1))
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
