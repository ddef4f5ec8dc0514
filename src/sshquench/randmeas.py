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

Kernel axis order: the transform visits the qubit axes 0, 1, ..., N_I - 1,
and each stage reads the axis it transforms as two contiguous halves and
writes it out as the trailing axis. The visiting order matters: the stages
commute in exact arithmetic but not in floating point. Integer count
vectors are transformed exactly in any order, but the non-dyadic
probabilities that ``purity_from_subset_distribution`` takes change in
their last bits when the axes are walked in another order.

Kernel stage: one BLAS product, the (2^(N_I-1), 2) matrix of the two halves'
entries times [[1, -1/2], [-1/2, 1]]. It gives the same bits as computing
a - b/2 and b - a/2 elementwise: multiplying a normal number by 1 or by 1/2
is exact, so either way each output is the one rounding of the exact
a - b/2, with or without a fused multiply-add. Only subnormal inputs, which
no count or probability here comes near, could tell the two apart.

Rotation: from 12 qubits, ``rotate_state`` turns the amplitudes in blocks
of 4 qubits, the last shorter where 4 does not divide L: each block's factor
is the kron of its checked unitaries' transposes (broadcast, not
``np.kron``), and the blocks run in order as the cycled stages of
``state._apply_stages``. Consecutive blocks need no transpose between them,
and one norm check ends the round. Blocks of 4 beat blocks of 1 and 2 at
L = 12-16 (``BENCH_16.json``). Below 12 qubits each qubit takes one
``apply_gate``, as ``benchmark/test_bench.py`` counts those gates at L = 8.

Counts: a round keeps the integer vector of length 2^L that the multinomial
draw returns, which ``ShotTable`` wraps only for the library and for shot
files; a subsystem marginal is a reshape, a sum over the other qubits and a
transpose into the listed order.

Seeding: every stochastic task derives its generator through
``child_generator(master_seed, *key)``, a counter-based spawn of
``numpy.random.SeedSequence``. Work items keyed by (stream, time index,
unitary index) are therefore reproducible regardless of execution order or
worker count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .state import (
    Gate1Q, QuantumState, _apply_stages, _as_unitary, _validated_subset, apply_gate,
)


def child_generator(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the work item identified by ``key``."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def sample_haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """2x2 unitary from the circular unitary ensemble.

    Draws a complex Gaussian matrix Z, real parts then imaginary parts, as
    one ``standard_normal((2, 2, 2))`` call: the same eight numbers in the
    same order as two ``(2, 2)`` calls. Gram-Schmidt on Z's columns gives
    the Q of Z = QR with R's diagonal positive. The first column is Z's
    first column normalized. The second is Z's second column projected onto
    the orthogonal complement of the first, which in two dimensions is the
    line through (-conj(q10), conj(q00)), and normalized.

    Why this is Haar: that factorization is unique, and for any fixed
    unitary V the matrix VZ has the law of Z and factors as (VQ)R, so VQ has
    the law of Q (Mezzadri, Notices AMS 54, 592 (2007)). The result agrees
    with a LAPACK QR of the same Z to about 1e-14 and is unitary to about
    1e-15, without the cost of the LAPACK call.
    """
    real, imag = rng.standard_normal((2, 2, 2)).tolist()
    z00, z01 = complex(real[0][0], imag[0][0]), complex(real[0][1], imag[0][1])
    z10, z11 = complex(real[1][0], imag[1][0]), complex(real[1][1], imag[1][1])
    norm = math.sqrt(abs(z00) ** 2 + abs(z10) ** 2)
    q00, q10 = z00 / norm, z10 / norm
    overlap = q00 * z11 - q10 * z01  # <(-conj(q10), conj(q00)), Z's second column>
    phase = overlap / abs(overlap)
    return np.array(
        [[q00, -q10.conjugate() * phase], [q10, q00.conjugate() * phase]]
    )


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
    """One checked single-qubit unitary per qubit: from 12 qubits in cycled
    blocks of 4 on the raw amplitudes, below that one ``apply_gate`` each,
    which ``benchmark/test_bench.py`` counts at L = 8 (module docstring)."""
    if len(unitaries) != state.num_qubits:
        raise ValueError("need exactly one unitary per qubit")
    if state.num_qubits >= 12:
        return _rotate_in_blocks(state, unitaries)
    for q, u in enumerate(unitaries):
        state = apply_gate(state, Gate1Q(u, q, name="RAND"))
    return state


def _rotate_in_blocks(state: QuantumState, unitaries) -> QuantumState:
    """Cycled stages of 4 qubits, the last shorter if 4 does not divide L."""
    mats = [_as_unitary(u, 2).T for u in unitaries]
    stages = []
    for start in range(0, state.num_qubits, 4):
        factor = mats[start]
        for m in mats[start + 1:start + 4]:  # kron(factor, m), broadcast
            factor = (factor[:, None, :, None] * m[None, :, None, :]).reshape(2 * len(factor), -1)
        stages.append((start, factor))
    return _apply_stages(state, stages)


# one kernel stage: the row [a, b] of an axis' two halves becomes [a - b/2, b - a/2]
_KERNEL_STAGE = np.array([[1.0, -0.5], [-0.5, 1.0]])
_KERNEL_STAGE.setflags(write=False)


def _kernel_transform(vec: np.ndarray, num_qubits: int) -> np.ndarray:
    """Apply the per-qubit pair kernel along every axis of ``vec``.

    Each stage transforms the leading axis, reading it as two contiguous
    halves, and writes the result as the trailing axis; after ``num_qubits``
    stages every axis is back in place.
    """
    out = np.asarray(vec, dtype=float).reshape(-1)
    for _ in range(num_qubits):
        out = (out.reshape(2, -1).T @ _KERNEL_STAGE).reshape(-1)
    return out


def _index_qubits(vec: np.ndarray) -> int:
    """n for a vector of length 2**n; ValueError for any other shape."""
    n = int(vec.size).bit_length() - 1
    if vec.ndim != 1 or n < 0 or vec.size != (1 << n):
        raise ValueError(
            "weights must be a vector whose length is a power of two, "
            f"got shape {vec.shape}"
        )
    return n


def hamming_pair_sum(weights: np.ndarray) -> float:
    """sum_{s,s'} (-2)^(-D[s,s']) w_s w_s' over all index pairs."""
    w = np.asarray(weights, dtype=float)
    return float(w @ _kernel_transform(w, _index_qubits(w)))


def marginal_counts(counts: np.ndarray, subset: Sequence[int]) -> np.ndarray:
    """Marginal of a 2^n count vector on the listed qubits, the first listed one as MSB."""
    n = _index_qubits(counts)
    sub = _validated_subset(n, subset)
    if sub == tuple(range(n)):
        return counts  # the full chain in register order
    rest = tuple(q for q in range(n) if q not in sub)
    kept = counts.reshape((2,) * n).sum(axis=rest)  # axes in ascending order
    return kept.transpose([sorted(sub).index(q) for q in sub]).reshape(-1)


def purity_statistic(count_vector: np.ndarray, num_shots: int, variant: str) -> float:
    """Per-round purity statistic from a subset count vector."""
    if variant not in ("plugin", "unbiased"):
        raise ValueError(f"variant must be 'plugin' or 'unbiased', got {variant!r}")
    if num_shots < 1:
        raise ValueError("num_shots must be >= 1")
    if variant == "unbiased" and num_shots < 2:
        raise ValueError("unbiased variant needs at least 2 shots")
    scale = float(1 << _index_qubits(count_vector))
    quad = hamming_pair_sum(count_vector.astype(float))
    if variant == "plugin":
        return scale * quad / (num_shots * num_shots)
    return scale * (quad - num_shots) / (num_shots * (num_shots - 1))


def purity_from_subset_distribution(distribution: np.ndarray) -> float:
    """Infinite-shot statistic of a single round, from exact subset probabilities."""
    d = np.asarray(distribution, dtype=float)
    return float(1 << _index_qubits(d)) * hamming_pair_sum(d)


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
        [purity_statistic(marginal_counts(tb.counts, sub), shots, variant) for tb in tables]
    )


def renyi2(purity_value: float) -> float:
    """Second-order Renyi entropy in bits; nan for a nonpositive estimate.

    Statistical purity estimates can cross zero, so a nonpositive input is
    reported as a missing data point rather than raised.
    """
    if not purity_value > 0.0:
        return float("nan")
    return float(-np.log2(purity_value))
