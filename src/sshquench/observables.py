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
reads exactly zero; see ``berry_phase`` and ``gauge_reference``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi

import numpy as np

from .state import QuantumState, probabilities, qubit_bits

BERRY_RELIABLE_MAGNITUDE = 1e-3  # below this the argument is noise-dominated


@lru_cache(maxsize=8)
def _weighted_occupation_table(num_sites: int) -> np.ndarray:
    """W[index] = sum_j j s_j over sites j = 1..L, for every basis index."""
    w = _weighted_occupation_of(np.arange(1 << num_sites, dtype=np.int64), num_sites)
    w.setflags(write=False)
    return w


def _weighted_occupation_of(keys: np.ndarray, num_sites: int) -> np.ndarray:
    return sum(j * s for j, s in enumerate(qubit_bits(keys, num_sites), start=1))


def _phase_angles(weighted: np.ndarray, num_sites: int, q: int, kind: str) -> np.ndarray:
    total = num_sites * (num_sites + 1) // 2  # sum of all site numbers
    if kind == "spin":
        return (pi * q / num_sites) * (total - 2.0 * weighted)
    if kind == "particle":
        return (2.0 * pi * q / num_sites) * (total - 1.0 * weighted)
    raise ValueError(f"kind must be 'spin' or 'particle', got {kind!r}")


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


def _twist_from_counts(
    counts: dict[int, int], num_sites: int, q: int, kind: str
) -> TwistResult:
    if not counts:
        raise ValueError("empty counts")
    keys = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    vals = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    if keys.size and (keys.min() < 0 or keys.max() >= (1 << num_sites)):
        raise ValueError("bitstring outside the register")
    weighted = _weighted_occupation_of(keys, num_sites)
    phases = _phase_angles(weighted, num_sites, q, kind)
    return TwistResult(complex(np.sum(vals * np.exp(1j * phases)) / vals.sum()))


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


def exact_twist(
    state: QuantumState, q: int = 1, kind: str = "spin"
) -> TwistResult:
    """Infinite-shot limit of the bitstring estimators on an exact state."""
    n = state.num_qubits
    weighted = _weighted_occupation_table(n)
    phases = _phase_angles(weighted, n, q, kind)
    return TwistResult(complex(np.sum(probabilities(state) * np.exp(1j * phases))))


def postselect_half_filling(counts: dict[int, int], num_sites: int) -> dict[int, int]:
    """Keep only bitstrings with Hamming weight L/2.

    The quench conserves total magnetization, so on noiseless data this is a
    no-op; under readout noise it discards symmetry-violating shots. May
    return an empty dict when every shot is rejected.
    """
    if num_sites % 2:
        raise ValueError("half filling needs an even chain length")
    half = num_sites // 2
    if not counts:
        raise ValueError("empty counts")
    keys = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    kept = keys[sum(qubit_bits(keys, num_sites)) == half]
    return {int(k): counts[int(k)] for k in kept}


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
