"""Exact free-fermion reference values for the flat-band quenches.

The dimerized XX chain maps to free fermions with Bloch vector
d_k = (2J + 2J' cos k, 2J' sin k, 0) and bands E = +-|d_k|. Both initial
states are Slater determinants of N = L/2 particles (a particle sits where a
qubit reads 0), so the quenched state is fixed by one L x N orbital matrix
Phi(t) whose column m is the time-evolved particle of cell m
(``orbitals``). A half-filling probability is |det Phi_S|^2 over the rows S
of the occupied qubits, a block's correlation matrix is Phi_A Phi_A^dagger
(Peschel, J. Phys. A 36, L205 (2003)), and the particle twist is Resta's
det(Phi^dagger D Phi) (Resta, PRL 80, 1800 (1998)). In the fully dimerized
limit the bands are flat, |d_k| = 2, and the entropy of any cell-aligned cut
collapses to the closed-form curves used as the oracle throughout the test
suite.

Everything here is a pure function of its value arguments and serves only
the quench the paper runs: the topological flat-band point (J, J') = (0, 1).
"""
from __future__ import annotations

from math import cos, log2, sin, sqrt
from typing import Sequence

import numpy as np

from .circuits import evolution_links

FLAT_BAND_VELOCITY = 2.0  # |d_k| at the flat-band point

XI_CLAMP_ATOL = 1e-8  # tolerated eigenvalue excursion outside [0, 1]


def orbitals(initial: str, boundary: str, num_sites: int, t: float) -> np.ndarray:
    """Complex (L, L/2) orbital matrix Phi(t); column m is the particle of cell m.

    At t = 0 the Neel particle sits on qubit 2m + 1 and the singlet's is
    (|2m> - |2m+1>)/sqrt(2). Each intercell link turns its two rows by
    [[cos 2t, -i sin 2t], [-i sin 2t, cos 2t]]; on a ring the wrap link's
    hopping crosses the Jordan-Wigner string of the other N - 1 particles
    and carries the sign (-1)^(N-1).
    """
    links = np.array(evolution_links(num_sites, boundary), dtype=int).reshape(-1, 2)
    cells = np.arange(num_sites // 2)
    phi = np.zeros((num_sites, cells.size), dtype=complex)
    if initial == "neel":
        phi[2 * cells + 1, cells] = 1.0
    elif initial == "singlet":
        phi[2 * cells, cells] = 1.0 / sqrt(2.0)
        phi[2 * cells + 1, cells] = -1.0 / sqrt(2.0)
    else:
        raise ValueError(f"initial must be 'neel' or 'singlet', got {initial!r}")
    hop = np.full((len(links), 1), -1j * sin(FLAT_BAND_VELOCITY * t))
    if boundary == "pbc":
        hop[-1] *= (-1) ** (cells.size - 1)
    c = cos(FLAT_BAND_VELOCITY * t)
    a, b = links.T
    phi[a], phi[b] = c * phi[a] + hop * phi[b], hop * phi[a] + c * phi[b]
    return phi


def correlation_submatrix(initial: str, t: float) -> np.ndarray:
    """Correlation block of the subsystem sites adjacent to one cut.

    The cut sits between two unit cells of an open chain; only orbitals
    crossing it contribute (one fully inside either side has eigenvalues
    {0, 1} and adds nothing). The Neel quench yields a 1x1 block with
    eigenvalue sin^2(2t); the singlet quench couples two crossing orbitals
    through a 3x3 block with eigenvalues {0, (1 - cos 2t)/2, (1 + cos 2t)/2}.
    """
    if initial == "neel":
        # cut between cells 0 and 1; of the orbitals crossing it, only orbital 0
        # reaches the right side, on qubit 2
        rows, cols = [2], [0]
    elif initial == "singlet":
        # cut between cells 1 and 2; orbitals 1 and 2 both cross it and reach
        # qubits 1-3 on the left side
        rows, cols = [1, 2, 3], [1, 2]
    else:
        raise ValueError(f"initial must be 'neel' or 'singlet', got {initial!r}")
    block = orbitals(initial, "obc", 8, t)[np.ix_(rows, cols)]
    return block @ block.conj().T


def renyi_from_correlation(eigenvalues: Sequence[float]) -> float:
    """Second-order Renyi entropy in bits from correlation-matrix eigenvalues.

    S = -sum log2((1 - xi)^2 + xi^2); eigenvalues may stray outside [0, 1] by
    at most 1e-8 and are clamped before evaluation.
    """
    xs = np.asarray(eigenvalues, dtype=float)
    if np.any(xs < -XI_CLAMP_ATOL) or np.any(xs > 1.0 + XI_CLAMP_ATOL):
        raise ValueError("correlation eigenvalues outside [0, 1] beyond tolerance")
    xs = np.clip(xs, 0.0, 1.0)
    return float(-np.sum(np.log2((1.0 - xs) ** 2 + xs**2))) + 0.0  # +0.0, never -0.0


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
    then cross the same pair of orbitals and the curve collapses onto
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
    return per_boundary * (2.0 if boundary == "pbc" else 1.0) + 0.0  # +0.0, never -0.0


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
