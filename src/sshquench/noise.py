"""Configurable noise channels and the matching mitigation schemes.

The hardware stand-in is a global depolarizing ansatz: after a circuit of n
layers with per-layer error probability p_layer, the state is taken to be

    rho = (1 - p_tot) rho_exact + p_tot / 2^L * identity,
    p_tot = 1 - (1 - p_layer)^n.

Because the maximally mixed state is invariant under any measurement basis
rotation, this channel acts on measured distributions simply as mixing with
the uniform distribution, which is how it is injected here; no density-matrix
propagation is needed. Under the ansatz the subsystem purities of the noisy
and exact states obey

    Tr[rho_I^2] = (1-p)^2 Tr[rho_I,exact^2] + p(1-p)/2^(N_I - 1) + p^2/2^N_I

which is inverted for mitigation, with p estimated per time point from the
measured full-system purity (exact full purity is 1 for a pure state).
Readout noise, independent per-bit flips, exercises symmetry postselection.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .state import pack_bits


@dataclass(frozen=True)
class NoiseSpec:
    """Noise configuration: per-layer depolarizing and readout flip rates."""

    p_layer: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_layer <= 1.0:
            raise ValueError(f"p_layer must be in [0, 1], got {self.p_layer}")
        if not 0.0 <= self.readout_flip <= 0.5:
            raise ValueError(
                f"readout_flip must be in [0, 0.5], got {self.readout_flip}"
            )


def effective_p_tot(p_layer: float, num_layers: int) -> float:
    """Total error probability of ``num_layers`` depolarizing layers."""
    if not 0.0 <= p_layer <= 1.0:
        raise ValueError(f"p_layer must be in [0, 1], got {p_layer}")
    if num_layers < 0:
        raise ValueError("num_layers must be nonnegative")
    return 1.0 - (1.0 - p_layer) ** num_layers


def apply_depolarizing(distribution: np.ndarray, p_tot: float) -> np.ndarray:
    """Mix a measurement distribution with the uniform one."""
    if not 0.0 <= p_tot <= 1.0:
        raise ValueError(f"p_tot must be in [0, 1], got {p_tot}")
    d = np.asarray(distribution, dtype=float)
    return (1.0 - p_tot) * d + p_tot / d.size


def flip_outcomes(
    outcomes: np.ndarray, num_qubits: int, flip_prob: float, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized readout flips over an array of outcome indices."""
    if not 0.0 <= flip_prob <= 0.5:
        raise ValueError(f"flip_prob must be in [0, 0.5], got {flip_prob}")
    out = np.asarray(outcomes, dtype=np.int64)
    if flip_prob == 0.0 or out.size == 0:
        return out.copy()
    flips = rng.random((out.size, num_qubits)) < flip_prob
    return out ^ pack_bits(flips.T)


def forward_noisy_purity(exact_purity: float, p_tot: float, subsystem_size: int) -> float:
    """Subsystem purity of the depolarized state given the exact purity."""
    n = subsystem_size
    return (
        (1.0 - p_tot) ** 2 * exact_purity
        + p_tot * (1.0 - p_tot) / (1 << (n - 1))
        + p_tot * p_tot / (1 << n)
    )


@dataclass(frozen=True)
class MitigationValue:
    """A mitigated number plus whether it had to be clamped into range."""

    value: float
    clamped: bool


def estimate_p_tot_from_full_purity(
    measured_purity: float, num_qubits: int
) -> MitigationValue:
    """Invert the full-system purity relation for the error rate.

    With exact full purity 1 the relation reads P = (1 - p)^2 (1 - 2^-L) + 2^-L,
    strictly decreasing on [0, 1] from 1 down to 2^-L, so
    p = 1 - sqrt((P - 2^-L) / (1 - 2^-L)). Measurements outside that range
    are clamped to the nearest endpoint and flagged.
    """
    lo_purity = forward_noisy_purity(1.0, 1.0, num_qubits)  # 2^-L
    clamped = not (lo_purity - 1e-12 <= measured_purity <= 1.0 + 1e-12)
    target = min(1.0, max(lo_purity, measured_purity))
    p = 1.0 - sqrt((target - lo_purity) / (1.0 - lo_purity))
    # p = 1 (full purity at or below 2^-L) leaves nothing to invert and
    # mitigate_purity rejects it; the largest float below 1 lets that point
    # through, where its mitigated value is clamped and flagged.
    return MitigationValue(min(p, float(np.nextafter(1.0, 0.0))), clamped)


def mitigate_purity(
    noisy_purity: float, p_tot: float, subsystem_size: int
) -> MitigationValue:
    """Solve the purity relation for the exact subsystem purity.

    The algebraic inverse can land outside [2^-N_I, 1] for statistically
    noisy inputs; such values are clamped and flagged.
    """
    if not 0.0 <= p_tot < 1.0:
        raise ValueError(f"p_tot must be in [0, 1), got {p_tot}")
    n = subsystem_size
    raw = (
        noisy_purity
        - p_tot * (1.0 - p_tot) / (1 << (n - 1))
        - p_tot * p_tot / (1 << n)
    ) / (1.0 - p_tot) ** 2
    lo = 1.0 / (1 << n)
    clamped = not (lo - 1e-12 <= raw <= 1.0 + 1e-12)
    return MitigationValue(min(1.0, max(lo, raw)), clamped)


def shift_align(values: np.ndarray, mode: str) -> tuple[np.ndarray, float]:
    """Subtract a constant offset from a time series.

    ``zero_at_t0`` pins the first point to zero; ``valley_to_zero`` averages
    the detected valley minima (local minima lying below the series median,
    endpoints included) and subtracts that average. Returns the aligned
    series and the offset that was removed.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("series must be nonempty")
    if mode == "zero_at_t0":
        offset = float(v[0])
    elif mode == "valley_to_zero":
        finite = v[np.isfinite(v)]
        if finite.size == 0:
            raise ValueError("series has no finite values")
        med = float(np.median(finite))
        minima = [
            i
            for i in range(v.size)
            if np.isfinite(v[i])
            and (i == 0 or not v[i - 1] < v[i])
            and (i == v.size - 1 or not v[i + 1] < v[i])
            and v[i] <= med
        ]
        if not minima:
            raise ValueError("no valley minima detected below the series median")
        offset = float(np.mean(v[minima]))
    else:
        raise ValueError(f"mode must be 'zero_at_t0' or 'valley_to_zero', got {mode!r}")
    return v - offset, offset
