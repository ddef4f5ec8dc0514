"""Randomized measurements: local Haar unitaries, shot tables, purity.

Protocol per random-unitary round: rotate the state by a product of
independently Haar-sampled single-qubit unitaries, measure in the
computational basis, and keep the outcome counts. The round itself, shared
by the runner and ``run_randomized_measurements``, lives in ``experiment``;
this module holds its parts and the estimators. Subsystem purity is then
recovered from the Hamming-distance pair kernel

    Tr[rho_I^2] = 2^{N_I} * avg_U sum_{s,s'} (-2)^(-D[s,s']) P(s) P(s')

where the average runs over the unitary rounds and P are the subsystem
outcome probabilities of one round. Two finite-shot estimators are provided:
the plug-in form substitutes empirical frequencies directly, which is biased
by O(1/num_shots); the unbiased form rescales by num_shots/(num_shots - 1)
and subtracts the same-shot coincidence term, making each round an exact
U-statistic. The pair kernel factorizes per qubit, so the quadratic form is
evaluated in O(N_I 2^{N_I}) without materializing a 4^{N_I} kernel.

Counts: a round keeps the integer vector of length 2^L that the multinomial
draw returns (``ShotTable.counts``); a subsystem marginal is a reshape, a sum
over the other qubits and a transpose into the listed order.

Seeding: every stochastic task derives its generator through
``child_generator(master_seed, *key)``, a counter-based spawn of
``numpy.random.SeedSequence``. Work items keyed by (stream, time index,
unitary index) are therefore reproducible regardless of execution order or
worker count.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .state import Gate1Q, QuantumState, _validated_subset, apply_gate


def child_generator(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the work item identified by ``key``."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def sample_haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """2x2 unitary from the circular unitary ensemble.

    QR orthonormalization of a complex Gaussian matrix with the R diagonal
    phase fixed, the standard Haar construction.
    """
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


@dataclass(frozen=True, eq=False)
class ShotTable:
    """Counts collected for one random-unitary round.

    ``unitaries`` records the sampled 2x2 matrices (empty for identity-basis
    tables, which use ``unitary_index`` 0 by convention).
    """

    unitary_index: int
    num_qubits: int
    num_shots: int
    counts: np.ndarray  # one count per basis index, stored read-only
    unitaries: tuple[np.ndarray, ...] = field(default=(), repr=False)

    def __post_init__(self):
        counts = np.asarray(self.counts).view()
        if counts.shape != (1 << self.num_qubits,):
            raise ValueError(f"counts must be a vector of length 2**{self.num_qubits}")
        if not np.issubdtype(counts.dtype, np.integer) or counts.min() < 0:
            raise ValueError(f"counts must be nonnegative integers, got {counts.dtype}")
        total = int(counts.sum())
        if total != self.num_shots:
            raise ValueError(f"counts sum to {total}, expected {self.num_shots}")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


def rotate_state(state: QuantumState, unitaries: Sequence[np.ndarray]) -> QuantumState:
    """Apply one single-qubit unitary per qubit."""
    if len(unitaries) != state.num_qubits:
        raise ValueError("need exactly one unitary per qubit")
    for q, u in enumerate(unitaries):
        state = apply_gate(state, Gate1Q(u, q, name="RAND"))
    return state


def _kernel_transform(vec: np.ndarray, num_qubits: int) -> np.ndarray:
    """Apply the per-qubit pair kernel along every axis of ``vec``."""
    out = np.asarray(vec, dtype=float)
    for q in range(num_qubits):
        v = out.reshape(1 << q, 2, -1)
        out = np.empty_like(v)
        out[:, 0, :] = v[:, 0, :] - 0.5 * v[:, 1, :]
        out[:, 1, :] = -0.5 * v[:, 0, :] + v[:, 1, :]
        out = out.reshape(-1)
    return out


def hamming_pair_sum(weights: np.ndarray) -> float:
    """sum_{s,s'} (-2)^(-D[s,s']) w_s w_s' over all index pairs."""
    w = np.asarray(weights, dtype=float)
    n = int(w.size).bit_length() - 1
    if w.size != (1 << n):
        raise ValueError("weight vector length must be a power of two")
    return float(w @ _kernel_transform(w, n))


def marginal_counts(table: ShotTable, subset: Sequence[int]) -> np.ndarray:
    """Count vector over the listed qubits, the first listed one as the MSB."""
    n = table.num_qubits
    sub = _validated_subset(n, subset)
    if sub == tuple(range(n)):
        return table.counts  # the full chain in register order
    rest = tuple(q for q in range(n) if q not in sub)
    kept = table.counts.reshape((2,) * n).sum(axis=rest)  # axes in ascending order
    return kept.transpose([sorted(sub).index(q) for q in sub]).reshape(-1)


def purity_statistic(count_vector: np.ndarray, num_shots: int, variant: str) -> float:
    """Per-round purity statistic from a subset count vector."""
    n_i = int(count_vector.size).bit_length() - 1
    quad = hamming_pair_sum(count_vector.astype(float))
    scale = float(1 << n_i)
    if variant == "plugin":
        return scale * quad / (num_shots * num_shots)
    if variant == "unbiased":
        if num_shots < 2:
            raise ValueError("unbiased variant needs at least 2 shots")
        return scale * (quad - num_shots) / (num_shots * (num_shots - 1))
    raise ValueError(f"variant must be 'plugin' or 'unbiased', got {variant!r}")


def purity_from_subset_distribution(distribution: np.ndarray) -> float:
    """Infinite-shot statistic of a single round, from exact subset probabilities."""
    d = np.asarray(distribution, dtype=float)
    n_i = int(d.size).bit_length() - 1
    return float(1 << n_i) * hamming_pair_sum(d)


@dataclass(frozen=True)
class PurityEstimate:
    """Ensemble-averaged purity; ``value`` may leave [0, 1] statistically."""

    value: float
    sigma: float  # standard error of the round average; nan for one round


def round_average(stats: Sequence[float]) -> PurityEstimate:
    """Mean of per-round statistics and its standard error (nan for one round)."""
    stats = np.asarray(stats, dtype=float)
    sigma = (
        float(np.std(stats, ddof=1) / np.sqrt(len(stats)))
        if len(stats) > 1
        else float("nan")
    )
    return PurityEstimate(float(np.mean(stats)), sigma)


def estimate_purity(
    tables: Iterable[ShotTable], subset: Sequence[int], variant: str = "unbiased"
) -> PurityEstimate:
    """Average the per-round Hamming-kernel statistic over all tables."""
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one shot table")
    n = tables[0].num_qubits
    shots = tables[0].num_shots
    sub = _validated_subset(n, subset)
    for tb in tables:
        if tb.num_qubits != n or tb.num_shots != shots:
            raise ValueError("tables disagree on qubit count or shot budget")
    return round_average(
        [purity_statistic(marginal_counts(tb, sub), shots, variant) for tb in tables]
    )


def renyi2(purity_value: float) -> float:
    """Second-order Renyi entropy in bits; nan for a nonpositive estimate.

    Statistical purity estimates can cross zero, so a nonpositive input is
    reported as a missing data point rather than raised.
    """
    if not purity_value > 0.0:
        return float("nan")
    return float(-np.log2(purity_value))
