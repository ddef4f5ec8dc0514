"""Correctness checks on the files one `sshquench run` wrote.

The checks read only the run directory and use numpy; they never import the
package under test, so a defect in the package cannot hide itself by also
breaking the reference.

Entropy (entropy.csv, manifest.txt)
    Sampled runs: the raw column is compared with the oracle column pushed
    through the global depolarizing channel at the manifest's ``p_tot_true``,
    within ``Z_MAX`` times the run's own ``sigma`` column. The mitigated
    column is compared with the oracle itself, within ``Z_MAX`` times sigma
    propagated through the inverse of that channel. The tolerances come from
    the run, not from digests, so a deliberate change of random-number
    streams does not count as a failure.
    ``--exact-probabilities`` runs: raw must equal the oracle to ``EXACT_ATOL``.

Twist and Berry phase (twist.csv, berry.csv)
    The Neel ring evolves under commuting blocks on the intercell links
    (sites (2,3), (4,5), ..., (L,1)); each link holds one particle that sits
    on its odd site with probability cos^2(2t), so the measured distribution
    is an exact product over links. ``twist_model`` builds it, applies the
    independent per-bit readout flips and the half-filling postselection,
    and gives the expected series. The exact columns and every series of an
    ``--exact-probabilities`` run must match the noiseless model to
    ``EXACT_ATOL``; the postselected series must lie within ``Z_MAX`` shot
    standard errors, at most 1/sqrt(kept shots), of the noisy model.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

Z_MAX = 6.0
EXACT_ATOL = 1e-9


def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def read_manifest(path: Path) -> dict[str, str]:
    """``key = value`` pairs of manifest.txt, commented keys included."""
    out = {}
    for line in path.read_text().splitlines():
        content = line.lstrip("# ")
        if "=" in content:
            key, value = (part.strip() for part in content.split("=", 1))
            out[key] = value
    return out


def noisy_entropy(exact_entropy: float, p_tot: float, subsystem_size: int) -> float:
    """Renyi-2 entropy of a subsystem after global depolarizing at ``p_tot``."""
    exact_purity = 2.0 ** -exact_entropy
    n = subsystem_size
    purity = (
        (1.0 - p_tot) ** 2 * exact_purity
        + p_tot * (1.0 - p_tot) / 2.0 ** (n - 1)
        + p_tot * p_tot / 2.0**n
    )
    return -math.log2(purity)


def check_entropy(run_dir: Path, t_points: int, exact: bool) -> list[str]:
    """Problems found in ``entropy.csv``; empty when the run is correct."""
    rows = read_rows(run_dir / "entropy.csv")
    manifest = read_manifest(run_dir / "manifest.txt")
    problems = []
    if len(rows) != t_points:
        problems.append(f"entropy.csv has {len(rows)} rows, expected {t_points}")
    p_tot = float(manifest["p_tot_true"])
    n_sub = len(manifest["subsystem_qubits_0based"].split(","))
    mitigated_on = manifest["mitigate"] == "on" and not exact
    for row in rows:
        t, raw, mitigated, oracle, sigma = (
            float(row[k]) for k in ("t", "raw", "mitigated", "oracle", "sigma")
        )
        if exact:
            if not abs(raw - oracle) <= EXACT_ATOL:
                problems.append(f"t={t:.6g}: exact raw {raw!r} != oracle {oracle!r}")
            continue
        expected_raw = noisy_entropy(oracle, p_tot, n_sub)
        if not abs(raw - expected_raw) <= Z_MAX * sigma:
            problems.append(
                f"t={t:.6g}: raw {raw:.6g} vs depolarized oracle "
                f"{expected_raw:.6g} beyond {Z_MAX} sigma ({sigma:.3g})"
            )
        if mitigated_on:
            # d(mitigated)/d(raw) of the inverted purity relation, taken at
            # the expected values so that an outlier cannot widen its own bound
            gain = 2.0 ** (oracle - expected_raw) / (1.0 - p_tot) ** 2
            if not abs(mitigated - oracle) <= Z_MAX * sigma * gain:
                problems.append(
                    f"t={t:.6g}: mitigated {mitigated:.6g} vs oracle {oracle:.6g} "
                    f"beyond {Z_MAX} sigma ({sigma * gain:.3g})"
                )
    return problems


@dataclass(frozen=True)
class TwistExpectation:
    """Model values of one time point of the twist stream."""

    z_exact: complex      # spin twist, q = 1, noiseless
    gamma_exact: float    # particle twist argument, q = 2, vs the initial state
    z_post: complex       # spin twist after readout flips and postselection
    gamma_post: float
    z2_post_abs: float    # |particle twist| after flips and postselection
    kept_frac: float      # expected share of shots kept by postselection


def _principal(theta: float) -> float:
    a = math.remainder(theta, 2.0 * math.pi)
    return math.pi if a == -math.pi else a


def _link_distribution(num_sites: int, t: float) -> np.ndarray:
    """Basis-state probabilities of the evolved Neel ring, site 1 as the MSB."""
    idx = np.arange(1 << num_sites)
    bits = (idx[:, None] >> (num_sites - 1 - np.arange(num_sites))) & 1
    stay, hop = math.cos(2.0 * t) ** 2, math.sin(2.0 * t) ** 2
    dist = np.ones(idx.size)
    for a in range(1, num_sites, 2):  # 0-based qubits (a, a+1 mod L)
        b = (a + 1) % num_sites
        start = (bits[:, a] == 0) & (bits[:, b] == 1)
        moved = (bits[:, a] == 1) & (bits[:, b] == 0)
        dist *= np.where(start, stay, np.where(moved, hop, 0.0))
    return dist


def _flip_channel(dist: np.ndarray, num_sites: int, flip: float) -> np.ndarray:
    for q in range(num_sites):
        v = dist.reshape(1 << q, 2, -1)
        dist = np.stack(
            [(1 - flip) * v[:, 0] + flip * v[:, 1], flip * v[:, 0] + (1 - flip) * v[:, 1]],
            axis=1,
        ).reshape(-1)
    return dist


def twist_model(num_sites: int, times, readout_flip: float) -> list[TwistExpectation]:
    """Expected twist and Berry series of the Neel ring (see module docstring)."""
    n = num_sites
    idx = np.arange(1 << n)
    bits = (idx[:, None] >> (n - 1 - np.arange(n))) & 1
    weighted = bits @ np.arange(1, n + 1)  # sum_j j s_j, sites j = 1..L
    total = n * (n + 1) // 2
    spin_phase = np.exp(1j * (math.pi / n) * (total - 2.0 * weighted))
    particle_phase = np.exp(1j * (4.0 * math.pi / n) * (total - 1.0 * weighted))
    half = bits.sum(axis=1) == n // 2

    reference = np.angle(np.sum(_link_distribution(n, 0.0) * particle_phase))
    out = []
    for t in times:
        exact = _link_distribution(n, t)
        noisy = _flip_channel(exact, n, readout_flip)
        kept = noisy * half
        kept_frac = float(kept.sum())
        post = kept / kept_frac
        z2_post = complex(np.sum(post * particle_phase))
        out.append(
            TwistExpectation(
                z_exact=complex(np.sum(exact * spin_phase)),
                gamma_exact=_principal(
                    np.angle(np.sum(exact * particle_phase)) - reference
                ),
                z_post=complex(np.sum(post * spin_phase)),
                gamma_post=_principal(np.angle(z2_post) - reference),
                z2_post_abs=abs(z2_post),
                kept_frac=kept_frac,
            )
        )
    return out


def check_twist(
    run_dir: Path, model: list[TwistExpectation], num_shots: int, exact: bool
) -> list[str]:
    """Problems found in ``twist.csv`` and ``berry.csv``."""
    twist = read_rows(run_dir / "twist.csv")
    berry = read_rows(run_dir / "berry.csv")
    problems = []
    for name, rows in (("twist.csv", twist), ("berry.csv", berry)):
        if len(rows) != len(model):
            problems.append(f"{name} has {len(rows)} rows, expected {len(model)}")
    for tw, br, m in zip(twist, berry, model):
        t = float(tw["t"])

        def z(prefix: str) -> complex:
            return complex(float(tw[f"re_{prefix}"]), float(tw[f"im_{prefix}"]))

        def angle_gap(column: str, ref: float) -> float:
            return abs(_principal(float(br[column]) - ref))

        exact_gaps = [abs(z("exact") - m.z_exact), angle_gap("gamma_exact", m.gamma_exact)]
        if exact:
            exact_gaps += [
                abs(z("raw") - m.z_exact),
                abs(z("post") - m.z_exact),
                angle_gap("gamma_raw", m.gamma_exact),
                angle_gap("gamma_post", m.gamma_exact),
            ]
        if not max(exact_gaps) <= EXACT_ATOL:
            problems.append(f"t={t:.6g}: exact series off the closed form by {max(exact_gaps):.3g}")
        if exact:
            continue
        shot_error = 1.0 / math.sqrt(num_shots * m.kept_frac)
        gap = abs(z("post") - m.z_post)
        if not gap <= Z_MAX * shot_error:
            problems.append(
                f"t={t:.6g}: twist post off the model by {gap:.3g} "
                f"> {Z_MAX} x {shot_error:.3g}"
            )
        gap = angle_gap("gamma_post", m.gamma_post)
        if not gap <= min(math.pi, Z_MAX * shot_error / m.z2_post_abs):
            problems.append(
                f"t={t:.6g}: Berry post off the model by {gap:.3g} rad"
            )
    return problems
