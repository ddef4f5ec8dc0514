"""Exact free-fermion reference values for the flat-band quenches.

The dimerized XX chain maps to free fermions with Bloch vector
d_k = (2J + 2J' cos k, 2J' sin k, 0) and bands E = +-|d_k|. In the fully
dimerized limit the bands are flat, |d_k| = 2, and the post-quench state is a
product of single-particle Wannier states whose spread across unit cells
fixes the entanglement of any cell-aligned bipartition. Subsystem correlation
matrices built from the boundary-crossing Wannier states give the Renyi
entropy through their eigenvalue spectrum, and collapse to closed-form
entropy curves used as the oracle throughout the test suite.

Everything here is a pure function of its value arguments and is restricted
to the two flat-band coupling points (0, 1) and (1, 0); general couplings are
rejected.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, log2, sin, sqrt
from typing import Mapping, Sequence

import numpy as np

FLAT_BAND_VELOCITY = 2.0  # |d_k| at the flat-band points

XI_CLAMP_ATOL = 1e-8  # tolerated eigenvalue excursion outside [0, 1]

Site = tuple[str, int]  # (sublattice "A" | "B", cell index)


def _require_flat_band(couplings: tuple[float, float]) -> tuple[float, float]:
    if couplings not in ((0.0, 1.0), (1.0, 0.0)):
        raise ValueError(
            "closed forms hold only at the flat-band points (0, 1) and (1, 0); "
            f"got couplings {couplings}"
        )
    return couplings


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


def wannier_neel(cell: int, t: float, couplings: tuple[float, float] = (0.0, 1.0)) -> WannierState:
    """Time-evolved Wannier state of the Neel quench: starts as a_cell."""
    _require_flat_band(couplings)
    c = cos(FLAT_BAND_VELOCITY * t)
    s = sin(FLAT_BAND_VELOCITY * t)
    if couplings == (1.0, 0.0):
        coeffs = {("A", cell): complex(c), ("B", cell): -1j * s}
    else:
        coeffs = {("A", cell): complex(c), ("B", cell - 1): -1j * s}
    return WannierState(cell, t, coeffs)


def wannier_singlet(cell: int, t: float, couplings: tuple[float, float] = (0.0, 1.0)) -> WannierState:
    """Time-evolved Wannier state of the singlet quench: starts as (a - b)/sqrt(2).

    For the (0, 1) quench the rotated weight moves to the two next-nearest
    cells, reaching them completely when |d_k| t = pi/2.
    """
    _require_flat_band(couplings)
    c = cos(FLAT_BAND_VELOCITY * t) / sqrt(2.0)
    s = sin(FLAT_BAND_VELOCITY * t) / sqrt(2.0)
    if couplings == (1.0, 0.0):
        # (a - b)/sqrt(2) is an eigenmode here; it only picks up a phase
        coeffs = {
            ("A", cell): complex(c, s),
            ("B", cell): -complex(c, s),
        }
    else:
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


def correlation_submatrix(
    initial: str, t: float, couplings: tuple[float, float] = (0.0, 1.0)
) -> np.ndarray:
    """Correlation block of the subsystem sites adjacent to one cut.

    The cut sits between two unit cells; only Wannier states crossing it
    contribute (a state fully inside either side has eigenvalues {0, 1} and
    adds nothing). The Neel quench yields a 1x1 block with eigenvalue
    sin^2(2t); the singlet quench couples two crossing states through a 3x3
    block with eigenvalues {0, (1 - cos 2t)/2, (1 + cos 2t)/2}.
    """
    _require_flat_band(couplings)
    if initial == "neel":
        # cut between cells 0 and 1; left side holds only b_0 of w(1)
        return correlation_matrix_from_wanniers(
            [wannier_neel(1, t, couplings)], [("B", 0)]
        )
    if initial == "singlet":
        # cut between cells 1 and 2; w(1) and w(2) both cross it
        states = [wannier_singlet(1, t, couplings), wannier_singlet(2, t, couplings)]
        return correlation_matrix_from_wanniers(
            states, [("B", 0), ("A", 1), ("B", 1)]
        )
    raise ValueError(f"initial must be 'neel' or 'singlet', got {initial!r}")


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Closed-form eigenvalues of a Hermitian matrix of size at most 3.

    1x1 and 2x2 are immediate; 3x3 uses the trigonometric solution of the
    characteristic cubic. Cross-checked against an iterative eigensolver in
    the test suite.
    """
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    if m.shape != (n, n) or n > 3:
        raise ValueError("closed-form solver handles Hermitian sizes 1..3 only")
    if np.max(np.abs(m - m.conj().T)) > 1e-12:
        raise ValueError("matrix is not Hermitian within 1e-12")
    if n == 1:
        return np.array([m[0, 0].real])
    if n == 2:
        a, d = m[0, 0].real, m[1, 1].real
        mid = 0.5 * (a + d)
        disc = sqrt(max(0.25 * (a - d) ** 2 + abs(m[0, 1]) ** 2, 0.0))
        return np.array([mid - disc, mid + disc])
    q = np.trace(m).real / 3.0
    off = abs(m[0, 1]) ** 2 + abs(m[0, 2]) ** 2 + abs(m[1, 2]) ** 2
    p2 = sum((m[i, i].real - q) ** 2 for i in range(3)) + 2.0 * off
    if p2 <= 0.0:
        return np.array([q, q, q])
    p = sqrt(p2 / 6.0)
    b = (m - q * np.eye(3)) / p
    det_b = (
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    ).real
    r = min(1.0, max(-1.0, det_b / 2.0))
    phi = np.arccos(r) / 3.0
    hi = q + 2.0 * p * np.cos(phi)
    lo = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    mid = 3.0 * q - hi - lo
    # arccos loses precision near clustered roots; the root on the flat branch
    # (farthest from the mean) keeps full accuracy, so deflate through it and
    # resolve the remaining pair from the quadratic factor.
    seed = max((hi, mid, lo), key=lambda lam: abs(lam - q))
    trace = 3.0 * q
    minors = (
        (m[0, 0] * m[1, 1]).real
        - abs(m[0, 1]) ** 2
        + (m[0, 0] * m[2, 2]).real
        - abs(m[0, 2]) ** 2
        + (m[1, 1] * m[2, 2]).real
        - abs(m[1, 2]) ** 2
    )
    lin = seed - trace
    const = minors + seed * lin
    disc = sqrt(max(0.25 * lin * lin - const, 0.0))
    return np.array(sorted([seed, -0.5 * lin - disc, -0.5 * lin + disc]))


def renyi_from_correlation(eigenvalues: Sequence[float], order: float = 2.0) -> float:
    """Renyi entropy in bits from correlation-matrix eigenvalues.

    S = 1/(1 - order) * sum log2((1 - xi)^order + xi^order); eigenvalues may
    stray outside [0, 1] by at most 1e-8 and are clamped before evaluation.
    """
    if order <= 0.0 or order == 1.0:
        raise ValueError("order must be positive and != 1")
    xs = np.asarray(eigenvalues, dtype=float)
    if np.any(xs < -XI_CLAMP_ATOL) or np.any(xs > 1.0 + XI_CLAMP_ATOL):
        raise ValueError("correlation eigenvalues outside [0, 1] beyond tolerance")
    xs = np.clip(xs, 0.0, 1.0)
    terms = (1.0 - xs) ** order + xs**order
    return float(np.sum(np.log2(terms)) / (1.0 - order))


def closed_form_entropy(
    initial: str,
    t: float,
    boundary: str = "pbc",
    num_cells: int | None = None,
    couplings: tuple[float, float] = (0.0, 1.0),
) -> float:
    """Half-chain second-order Renyi entropy of the quench at time ``t``.

    A periodic cut has two boundaries and doubles the open-chain value.
    ``num_cells`` is the cell count of each half; the shortest closed chain
    (one cell per half) is special for the singlet quench, whose two cuts
    then cross the same pair of Wannier states and the curve collapses onto
    the Neel form.
    """
    _require_flat_band(couplings)
    if boundary not in ("pbc", "obc"):
        raise ValueError(f"boundary must be 'pbc' or 'obc', got {boundary!r}")
    if initial not in ("neel", "singlet"):
        raise ValueError(f"initial must be 'neel' or 'singlet', got {initial!r}")
    if couplings == (1.0, 0.0):
        return 0.0  # both initial states are stationary up to intracell rotation
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
