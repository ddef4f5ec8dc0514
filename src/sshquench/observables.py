"""Twist-operator observables evaluated from bitstrings.

The slow twist exp(i (2 pi / L) sum_j j S_j^z) and its particle-number
counterpart exp(i (2 pi / L) sum_j j n_j) are diagonal in the computational
basis, so their expectation values need nothing beyond measured bitstring
probabilities:

    spin twist      z^(q) = sum_s P(s) exp(i (pi q / L) sum_j j (1 - 2 s_j))
    particle twist  z^(q) = sum_s P(s) exp(i (2 pi q / L) sum_j j (1 - s_j))

with sites j = 1..L and s_j the measured bit (spin up = 0 carries one
particle). The Berry phase of the dynamical state is the argument of the
particle twist at q = 2 for half filling, reported relative to the exact
initial-state argument so that a quench that never moves the twist phase
reads exactly zero; see ``berry_phase`` and ``gauge_reference``. The
estimators read exp(i phase) from a table over the L(L+1)/2 + 1 values of
W = sum_j j s_j, each entry the same ``np.exp`` of the same angle. An exact
twist depends on the distribution only through the weight of each W
(Resta, PRL 80, 1800 (1998)): ``w_histogram`` sums it in one ``np.bincount``
over the 2^L indices, and each (q, kind) is then one dot product of that
histogram with the table (``histogram_twist``), so a time point's spin and
particle twists share one pass over the distribution.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi

import numpy as np

from .state import QuantumState, probabilities

BERRY_RELIABLE_MAGNITUDE = 1e-3  # below this the argument is noise-dominated


@lru_cache(maxsize=8)
def _bit_sums(num_sites: int) -> np.ndarray:
    """Rows W = sum_j j s_j (sites j = 1..L) and H = sum_j s_j at every basis index,
    by doubling: sites L, ..., 1 are prepended in turn as the most significant
    bit, whose upper half of the indices adds j to W and 1 to H."""
    sums = np.zeros((2, 1), dtype=np.int16)  # W <= 300 at the 24-qubit cap
    for j in range(num_sites, 0, -1):
        sums = np.concatenate([sums, sums + np.array([[j], [1]], dtype=np.int16)], axis=1)
    sums.setflags(write=False)
    return sums


def _phase_angles(weighted: np.ndarray, num_sites: int, q: int, kind: str) -> np.ndarray:
    total = num_sites * (num_sites + 1) // 2  # sum of all site numbers
    if kind == "spin":
        return (pi * q / num_sites) * (total - 2.0 * weighted)
    if kind == "particle":
        return (2.0 * pi * q / num_sites) * (total - 1.0 * weighted)
    raise ValueError(f"kind must be 'spin' or 'particle', got {kind!r}")


@lru_cache(maxsize=16)
def _phase_factors(num_sites: int, q: int, kind: str) -> np.ndarray:
    """exp(i phase) at every W = 0..L(L+1)/2, W as in ``_bit_sums``."""
    weighted = np.arange(num_sites * (num_sites + 1) // 2 + 1, dtype=np.int64)
    factors = np.exp(1j * _phase_angles(weighted, num_sites, q, kind))
    factors.setflags(write=False)
    return factors


@dataclass(frozen=True)
class TwistResult:
    """Complex twist amplitude, |z| <= 1."""

    z: complex

    def __post_init__(self):
        if abs(self.z) > 1.0 + 1e-10:
            raise ValueError(f"|z| = {abs(self.z)} exceeds 1")

    @property
    def magnitude(self) -> float:
        return abs(self.z)

    @property
    def angle(self) -> float:
        """Principal argument in (-pi, pi] with Arg(-1) = +pi."""
        return float(np.angle(self.z))


def _count_arrays(counts: dict[int, int], num_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices and counts of a nonempty counts dict, indices in the register."""
    if not counts:
        raise ValueError("empty counts")
    keys = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    vals = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    if keys.min() < 0 or keys.max() >= (1 << num_sites):
        raise ValueError("bitstring outside the register")
    return keys, vals


def _twist_from_counts(
    counts: dict[int, int], num_sites: int, q: int, kind: str
) -> TwistResult:
    keys, vals = _count_arrays(counts, num_sites)
    factors = _phase_factors(num_sites, q, kind)[_bit_sums(num_sites)[0, keys]]
    return TwistResult(complex(np.sum(vals * factors) / vals.sum()))


def twist_order_parameter(
    counts: dict[int, int], num_sites: int, q: int = 1
) -> TwistResult:
    """Spin twist amplitude from measured counts."""
    return _twist_from_counts(counts, num_sites, q, "spin")


def particle_twist_amplitude(
    counts: dict[int, int], num_sites: int, q: int = 2
) -> TwistResult:
    """Particle-number twist amplitude from the same measured bitstrings.

    q = 2 is the half-filling choice; other q are accepted and apply the
    phase q-fold.
    """
    return _twist_from_counts(counts, num_sites, q, "particle")


def w_histogram(distribution: np.ndarray) -> np.ndarray:
    """Weight of each W = 0..L(L+1)/2 in a distribution over the 2^L basis indices."""
    n = distribution.size.bit_length() - 1
    return np.bincount(_bit_sums(n)[0], weights=distribution, minlength=n * (n + 1) // 2 + 1)


def histogram_twist(
    histogram: np.ndarray, num_sites: int, q: int = 1, kind: str = "spin"
) -> TwistResult:
    """Twist amplitude of the distribution whose ``w_histogram`` this is."""
    return TwistResult(complex(histogram @ _phase_factors(num_sites, q, kind)))


def distribution_twist(distribution: np.ndarray, q: int = 1, kind: str = "spin") -> TwistResult:
    """Infinite-shot limit of the bitstring estimators on a measurement distribution."""
    n = distribution.size.bit_length() - 1
    return histogram_twist(w_histogram(distribution), n, q, kind)


def exact_twist(
    state: QuantumState, q: int = 1, kind: str = "spin"
) -> TwistResult:
    """Infinite-shot limit of the bitstring estimators on an exact state."""
    return distribution_twist(probabilities(state), q, kind)


def postselect_half_filling(counts: dict[int, int], num_sites: int) -> dict[int, int]:
    """Keep only bitstrings with Hamming weight L/2.

    The quench conserves total magnetization, so on noiseless data this is a
    no-op; under readout noise it discards symmetry-violating shots. May
    return an empty dict when every shot is rejected.
    """
    if num_sites % 2:
        raise ValueError("half filling needs an even chain length")
    keys, _vals = _count_arrays(counts, num_sites)
    kept = keys[_bit_sums(num_sites)[1, keys] == num_sites // 2]
    return {k: counts[k] for k in kept.tolist()}


@dataclass(frozen=True)
class BerryPoint:
    """Principal-branch phase angle with a reliability verdict."""

    gamma: float
    reliable: bool
    magnitude: float


def principal_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi] with -pi mapped to +pi."""
    a = float(np.remainder(theta + pi, 2.0 * pi) - pi)
    return pi if a == -pi else a


def berry_phase(result: TwistResult, reference_angle: float = 0.0) -> BerryPoint:
    """Phase angle of a twist amplitude, relative to ``reference_angle``.

    Points with |z| below ``BERRY_RELIABLE_MAGNITUDE`` are emitted with a
    quality flag rather than dropped; their angle is noise-dominated.
    """
    gamma = principal_angle(result.angle - reference_angle)
    reliable = result.magnitude >= BERRY_RELIABLE_MAGNITUDE
    return BerryPoint(gamma, reliable, result.magnitude)


def gauge_reference(initial_state: QuantumState) -> float:
    """Twist-phase origin: the exact particle-twist argument of the initial state.

    At half filling on a finite ring the initial product states already carry
    a quantized twist argument (0 or pi depending on the pattern); measuring
    phases relative to it makes a phase-preserving quench read exactly zero.
    """
    return exact_twist(initial_state, q=2, kind="particle").angle
