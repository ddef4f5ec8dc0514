"""Exact free-fermion reference values for the flat-band quenches.

The dimerized XX chain maps to free fermions with Bloch vector
d_k = (2J + 2J' cos k, 2J' sin k, 0) and bands E = +-|d_k|. In the fully
dimerized limit the bands are flat, |d_k| = 2, and the post-quench state is a
product of single-particle Wannier states whose spread across unit cells
fixes the entanglement of any cell-aligned bipartition. Subsystem correlation
matrices built from the boundary-crossing Wannier states give the Renyi
entropy through their eigenvalue spectrum, and collapse to closed-form
entropy curves used as the oracle throughout the test suite.

Everything here is a pure function of its value arguments and serves only
the quench the paper runs: the topological flat-band point (J, J') = (0, 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, log2, sin, sqrt
from typing import Mapping, Sequence

import numpy as np

FLAT_BAND_VELOCITY = 2.0  # |d_k| at the flat-band point

XI_CLAMP_ATOL = 1e-8  # tolerated eigenvalue excursion outside [0, 1]

Site = tuple[str, int]  # (sublattice "A" | "B", cell index)


@dataclass(frozen=True)
class WannierState:
    """Single-particle state localized around ``cell`` at time ``time``.

    ``coefficients`` maps (sublattice, cell) to a complex amplitude; the map
    is normalized to unit weight.
    """

    cell: int
    time: float
    coefficients: Mapping[Site, complex]

    def __post_init__(self):
        weight = sum(abs(c) ** 2 for c in self.coefficients.values())
        if abs(weight - 1.0) > 1e-12:
            raise ValueError(f"Wannier weight deviates from 1 by {abs(weight - 1.0):.2e}")

    def weight(self, site: Site) -> float:
        return abs(self.coefficients.get(site, 0.0)) ** 2

    def overlap(self, other: "WannierState") -> complex:
        sites = set(self.coefficients) & set(other.coefficients)
        return sum(
            np.conj(self.coefficients[s]) * other.coefficients[s] for s in sites
        )


def wannier_neel(cell: int, t: float) -> WannierState:
    """Time-evolved Wannier state of the Neel quench: starts as a_cell."""
    c = cos(FLAT_BAND_VELOCITY * t)
    s = sin(FLAT_BAND_VELOCITY * t)
    return WannierState(cell, t, {("A", cell): complex(c), ("B", cell - 1): -1j * s})


def wannier_singlet(cell: int, t: float) -> WannierState:
    """Time-evolved Wannier state of the singlet quench: starts as (a - b)/sqrt(2).

    The rotated weight moves to the two next-nearest cells, reaching them
    completely when |d_k| t = pi/2.
    """
    c = cos(FLAT_BAND_VELOCITY * t) / sqrt(2.0)
    s = sin(FLAT_BAND_VELOCITY * t) / sqrt(2.0)
    coeffs = {
        ("A", cell): complex(c),
        ("B", cell): complex(-c),
        ("A", cell + 1): 1j * s,
        ("B", cell - 1): -1j * s,
    }
    return WannierState(cell, t, coeffs)


def correlation_matrix_from_wanniers(
    states: Sequence[WannierState], sites: Sequence[Site]
) -> np.ndarray:
    """C[i, j] = sum over occupied states of phi(site_i) conj(phi(site_j))."""
    phi = np.array(
        [[w.coefficients.get(s, 0.0) for s in sites] for w in states], dtype=complex
    )
    return phi.T @ phi.conj()


def correlation_submatrix(initial: str, t: float) -> np.ndarray:
    """Correlation block of the subsystem sites adjacent to one cut.

    The cut sits between two unit cells; only Wannier states crossing it
    contribute (a state fully inside either side has eigenvalues {0, 1} and
    adds nothing). The Neel quench yields a 1x1 block with eigenvalue
    sin^2(2t); the singlet quench couples two crossing states through a 3x3
    block with eigenvalues {0, (1 - cos 2t)/2, (1 + cos 2t)/2}.
    """
    if initial == "neel":
        # cut between cells 0 and 1; left side holds only b_0 of w(1)
        return correlation_matrix_from_wanniers([wannier_neel(1, t)], [("B", 0)])
    if initial == "singlet":
        # cut between cells 1 and 2; w(1) and w(2) both cross it
        states = [wannier_singlet(1, t), wannier_singlet(2, t)]
        return correlation_matrix_from_wanniers(
            states, [("B", 0), ("A", 1), ("B", 1)]
        )
    raise ValueError(f"initial must be 'neel' or 'singlet', got {initial!r}")


def renyi_from_correlation(eigenvalues: Sequence[float]) -> float:
    """Second-order Renyi entropy in bits from correlation-matrix eigenvalues.

    S = -sum log2((1 - xi)^2 + xi^2); eigenvalues may stray outside [0, 1] by
    at most 1e-8 and are clamped before evaluation.
    """
    xs = np.asarray(eigenvalues, dtype=float)
    if np.any(xs < -XI_CLAMP_ATOL) or np.any(xs > 1.0 + XI_CLAMP_ATOL):
        raise ValueError("correlation eigenvalues outside [0, 1] beyond tolerance")
    xs = np.clip(xs, 0.0, 1.0)
    return float(-np.sum(np.log2((1.0 - xs) ** 2 + xs**2)))


def closed_form_entropy(
    initial: str,
    t: float,
    boundary: str = "pbc",
    num_cells: int | None = None,
) -> float:
    """Half-chain second-order Renyi entropy of the quench at time ``t``.

    A periodic cut has two boundaries and doubles the open-chain value.
    ``num_cells`` is the cell count of each half; the shortest closed chain
    (one cell per half) is special for the singlet quench, whose two cuts
    then cross the same pair of Wannier states and the curve collapses onto
    the Neel form.
    """
    if boundary not in ("pbc", "obc"):
        raise ValueError(f"boundary must be 'pbc' or 'obc', got {boundary!r}")
    if initial not in ("neel", "singlet"):
        raise ValueError(f"initial must be 'neel' or 'singlet', got {initial!r}")
    v = FLAT_BAND_VELOCITY
    if initial == "neel" or (boundary == "pbc" and num_cells == 1):
        per_boundary = -log2(1.0 - 0.5 * sin(2.0 * v * t) ** 2)
    else:
        per_boundary = -2.0 * log2(1.0 - 0.5 * sin(v * t) ** 2)
    return per_boundary * (2.0 if boundary == "pbc" else 1.0)


def entropy_period(initial: str) -> float:
    """Period of the closed-form entropy curve.

    The state itself recurs (up to a sector-wise phase) only after pi/2; for
    the Neel quench the entropy and the real part of the twist repeat twice
    per state period.
    """
    if initial == "neel":
        return np.pi / 4.0
    if initial == "singlet":
        return np.pi / 2.0
    raise ValueError(f"initial must be 'neel' or 'singlet', got {initial!r}")
