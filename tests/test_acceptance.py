"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 3, 4, 6 and 7 write config text and run it through the experiment
runner, so the entropy and Berry phase they check are the ones
``sshquench run`` writes."""
import csv
import time

import numpy as np

from conftest import count_dict
from sshquench.circuits import (
    evolution_circuit,
    layer_count,
    prepare_singlet_product,
    quench_circuit,
)
from sshquench.config import parse_config_text
from sshquench.experiment import execute, run_experiment
from sshquench.noise import (
    effective_p_tot,
    estimate_p_tot_from_full_purity,
    forward_noisy_purity,
    mitigate_purity,
)
from sshquench.observables import (
    exact_twist,
    principal_angle,
    twist_order_parameter,
    _phase_angles,
    _bit_sums,
)
from sshquench.oracle import (
    closed_form_entropy,
    correlation_submatrix,
    renyi_from_correlation,
)
from sshquench.randmeas import child_generator
from sshquench.state import (
    counts_from_outcomes,
    probabilities,
    purity,
    sample_outcomes,
)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {verdict}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _entropy_config(initial, num_sites, times, num_unitaries, seed, p_layer=0.0):
    """Config text of a ring quench measured on its half chain, 4096 shots."""
    return (
        f"L = {num_sites}\ninitial = {initial}\nboundary = pbc\n"
        f"times = {','.join(repr(float(t)) for t in times)}\n"
        f"n_unitaries = {num_unitaries}\nn_shots = 4096\n"
        f"p_layer = {p_layer!r}\nseed = {seed}\n"
    )


def _run_entropy(out_dir, text):
    """Run config text through the experiment runner; the entropy.csv columns."""
    execute(parse_config_text(text), out_dir, quiet=True)
    with (out_dir / "entropy.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in ("raw", "mitigated")}


def test_criterion_1_oracle_identity_suite():
    start = time.time()
    grid = np.linspace(0.0, np.pi, 200)
    worst = 0.0
    for t in grid:
        for initial in ("neel", "singlet"):
            per_cut = renyi_from_correlation(
                np.linalg.eigvalsh(correlation_submatrix(initial, t))
            )
            worst = max(
                worst,
                abs(per_cut - closed_form_entropy(initial, t, "obc")),
                abs(2 * per_cut - closed_form_entropy(initial, t, "pbc")),
            )
    ident = max(
        abs(
            closed_form_entropy("singlet", t, "pbc")
            - 2.0 * closed_form_entropy("neel", t / 2.0, "pbc")
        )
        for t in np.linspace(0.0, np.pi, 100)
    )
    elapsed = time.time() - start
    ok = worst <= 1e-10 and ident <= 1e-12 and elapsed < 1.0
    _report(
        1,
        "oracle identity suite",
        ok,
        f"max|corr-closed|={worst:.2e} max|doubling|={ident:.2e} {elapsed:.2f}s",
    )


def test_criterion_2_simulator_vs_oracle():
    start = time.time()
    times = np.linspace(0.0, np.pi / 2, 13)
    worst = 0.0
    for num_sites in (4, 8, 12):
        half = tuple(range(num_sites // 2))
        for initial in ("neel", "singlet"):
            for t in times:
                state = quench_circuit(t, num_sites, initial, "pbc").run()
                want = 2.0 ** (
                    -closed_form_entropy(initial, t, "pbc", num_cells=num_sites // 4)
                )
                worst = max(worst, abs(purity(state, half) - want))
    # four bulk qubits of an open 8-chain: two cut boundaries, periodic curve
    for initial in ("neel", "singlet"):
        for t in times:
            state = quench_circuit(t, 8, initial, "obc").run()
            want = 2.0 ** (-closed_form_entropy(initial, t, "pbc", num_cells=2))
            worst = max(worst, abs(purity(state, (2, 3, 4, 5)) - want))
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(2, "simulator vs oracle purity", ok, f"max|dp|={worst:.2e} {elapsed:.1f}s")


def test_criterion_3_randomized_measurement_reproduction(tmp_path):
    start = time.time()
    times = np.linspace(0.0, np.pi / 2, 30)
    oracle = np.array(
        [closed_form_entropy("neel", t, "pbc", num_cells=1) for t in times]
    )
    passing = 0
    stats = []
    for batch_index in range(20):
        est = _run_entropy(
            tmp_path, _entropy_config("neel", 4, times, 100, 1000 + batch_index)
        )["raw"]
        dev = est - oracle
        peak, rms = float(np.max(np.abs(dev))), float(np.sqrt(np.mean(dev**2)))
        stats.append((peak, rms))
        if peak <= 0.25 and rms <= 0.12:
            passing += 1
    elapsed = time.time() - start
    ok = passing >= 18 and elapsed < 300.0
    worst = max(s[0] for s in stats)
    _report(
        3,
        "sampled entropy tracks closed form",
        ok,
        f"seeds passing={passing}/20 worst_max_dev={worst:.3f} {elapsed:.0f}s",
    )


def test_criterion_4_noisy_mitigated_reproduction(tmp_path):
    start = time.time()
    num_sites = 8
    times = np.linspace(0.0, np.pi / 2, 30)
    circuit = prepare_singlet_product(num_sites).then(
        evolution_circuit(0.3, num_sites, "pbc")
    )
    layers = layer_count(circuit)
    p_layer = 1.0 - 0.7 ** (1.0 / layers)  # lands p_tot at 0.3
    p_tot = effective_p_tot(p_layer, layers)
    assert abs(p_tot - 0.3) < 1e-12
    oracle = np.array(
        [closed_form_entropy("singlet", t, "pbc", num_cells=2) for t in times]
    )
    series = _run_entropy(
        tmp_path, _entropy_config("singlet", num_sites, times, 100, 777, p_layer)
    )
    raw_rms = float(np.sqrt(np.nanmean((series["raw"] - oracle) ** 2)))
    mit_rms = float(np.sqrt(np.nanmean((series["mitigated"] - oracle) ** 2)))
    elapsed = time.time() - start
    ok = mit_rms <= 0.2 and raw_rms >= 2.0 * mit_rms
    _report(
        4,
        "depolarizing mitigation recovers the curve",
        ok,
        f"p_tot={p_tot:.3f} mit_rms={mit_rms:.3f} raw_rms={raw_rms:.3f} {elapsed:.0f}s",
    )


def test_criterion_5_twist_order_parameter_peaks():
    start = time.time()
    num_sites = 16
    times = np.linspace(0.0, np.pi / 2, 17)  # includes pi/8, pi/4, endpoints
    peak = np.cos(np.pi / num_sites) ** (num_sites // 2)
    weighted = _bit_sums(num_sites)[0]
    phases = _phase_angles(weighted, num_sites, 1, "spin")
    cos_ph, sin_ph = np.cos(phases), np.sin(phases)

    worst_sigma = 0.0
    series = {}
    for initial in ("neel", "singlet"):
        re_vals = []
        for t_idx, t in enumerate(times):
            state = quench_circuit(t, num_sites, initial, "pbc").run()
            exact = exact_twist(state, q=1, kind="spin").z
            re_vals.append(exact.real)
            dist = probabilities(state)
            rng = child_generator(99, 2 if initial == "neel" else 3, t_idx)
            counts = count_dict(
                counts_from_outcomes(sample_outcomes(dist, 4096, rng), num_sites)
            )
            sampled = twist_order_parameter(counts, num_sites).z
            for comp, got, want in (
                (cos_ph, sampled.real, exact.real),
                (sin_ph, sampled.imag, exact.imag),
            ):
                var = float(dist @ comp**2 - (dist @ comp) ** 2) / 4096
                if var > 0:
                    worst_sigma = max(worst_sigma, abs(got - want) / np.sqrt(var))
                else:
                    assert abs(got - want) < 1e-12
        series[initial] = np.array(re_vals)

    neel_dev = abs(series["neel"][4] + peak)  # t = pi/8
    neel_is_min = series["neel"].argmin() in (4, 12)  # resonances pi/8, 3pi/8
    singlet_dev = abs(series["singlet"].max() - peak)  # recurrence times
    elapsed = time.time() - start
    ok = (
        neel_dev <= 1e-9
        and singlet_dev <= 1e-9
        and neel_is_min
        and worst_sigma <= 3.0
        and elapsed < 60.0
    )
    _report(
        5,
        "twist peaks at the closed-form value",
        ok,
        f"neel_dev={neel_dev:.1e} singlet_dev={singlet_dev:.1e} "
        f"worst_sampled={worst_sigma:.2f}sigma {elapsed:.0f}s",
    )


def test_criterion_6_berry_phase(tmp_path):
    times = np.linspace(0.0, np.pi / 2, 30)
    berry = {}
    for initial in ("neel", "singlet"):
        text = (
            f"L = 8\ninitial = {initial}\nboundary = pbc\n"
            f"times = {','.join(repr(float(t)) for t in times)}\n"
            "quantities = berry\nn_shots = 4096\nreadout_flip = 0.02\nseed = 4321\n"
        )
        out = tmp_path / initial
        execute(parse_config_text(text), out, quiet=True)
        with (out / "berry.csv").open(newline="") as fh:
            berry[initial] = list(csv.DictReader(fh))

    singlet_max = max(abs(float(r["gamma_exact"])) for r in berry["singlet"])

    gamma_exact = np.array([float(r["gamma_exact"]) for r in berry["neel"]])
    sign_changes_ok = True
    for t_star in (np.pi / 8, 3 * np.pi / 8):
        below = np.where(times < t_star)[0][-1]
        above = np.where(times > t_star)[0][0]
        if not (gamma_exact[below] * gamma_exact[above] < 0
                and min(abs(gamma_exact[below]), abs(gamma_exact[above])) > 2.0):
            sign_changes_ok = False

    # 2% readout noise, postselected, against the exact curve
    devs = [
        abs(principal_angle(float(r["gamma_post"]) - float(r["gamma_exact"])))
        for r in berry["neel"]
        if not {"post_unreliable", "post_empty"} & set(r["flags"].split(";"))
    ]
    frac = float(np.mean(np.array(devs) <= 0.15))

    ok = singlet_max <= 1e-9 and sign_changes_ok and frac >= 0.9
    _report(
        6,
        "berry phase structure",
        ok,
        f"singlet_max={singlet_max:.1e} neel_jumps={'ok' if sign_changes_ok else 'bad'} "
        f"noisy_within_0.15={frac:.0%} of {len(devs)} reliable",
    )


def test_criterion_7_estimator_statistics(tmp_path):
    start = time.time()
    t_mid, t_low, t_peak = np.pi / 16, 0.01, np.pi / 8

    def estimates(t, num_unitaries, seeds):
        return np.array(
            [
                _run_entropy(
                    tmp_path, _entropy_config("neel", 4, [t], num_unitaries, seed)
                )["raw"][0]
                for seed in seeds
            ]
        )

    reps = 100
    s100 = estimates(t_mid, 100, range(5000, 5000 + reps))
    s200 = estimates(t_mid, 200, range(9000, 9000 + reps))
    ratio = float(s200.std(ddof=1) / s100.std(ddof=1))
    ratio_ok = abs(ratio - 1 / np.sqrt(2)) <= 0.2 / np.sqrt(2)

    reps2 = 60
    var_low = estimates(t_low, 100, range(3000, 3000 + reps2)).var(ddof=1)
    var_peak = estimates(t_peak, 100, range(7000, 7000 + reps2)).var(ddof=1)
    elapsed = time.time() - start
    ok = ratio_ok and var_low > var_peak
    _report(
        7,
        "estimator statistics scale as expected",
        ok,
        f"sigma_ratio={ratio:.3f} (want 0.707 +-20%) var(S~0)={var_low:.2e} "
        f"var(S~2)={var_peak:.2e} {elapsed:.0f}s",
    )


def test_criterion_8_mitigation_algebra():
    worst_purity = 0.0
    for subsystem_size in (1, 2, 4, 8):
        lo = 2.0**-subsystem_size
        for exact in np.linspace(lo, 1.0, 9):
            for p in np.linspace(0.0, 0.9, 10):
                forward = forward_noisy_purity(exact, p, subsystem_size)
                back = mitigate_purity(forward, p, subsystem_size).value
                worst_purity = max(worst_purity, abs(back - exact))
    worst_p = 0.0
    for num_qubits in (2, 4, 8, 12):
        for p in np.linspace(0.0, 1.0, 11):
            measured = forward_noisy_purity(1.0, p, num_qubits)
            worst_p = max(
                worst_p,
                abs(estimate_p_tot_from_full_purity(measured, num_qubits).value - p),
            )
    ok = worst_purity <= 1e-10 and worst_p <= 1e-10
    _report(
        8,
        "mitigation round trips",
        ok,
        f"max|purity|={worst_purity:.1e} max|p_tot|={worst_p:.1e}",
    )


def test_criterion_9_reproducibility(tmp_path):
    config = tmp_path / "repro.conf"
    config.write_text(
        "L = 4\ninitial = singlet\nboundary = pbc\n"
        "times = 0, 0.2, 0.39269908169872414\n"
        "quantities = entropy,twist,berry\n"
        "n_unitaries = 25\nn_shots = 512\n"
        "p_layer = 0.01\nreadout_flip = 0.01\nseed = 31415\n"
    )
    contents = {}
    for threads in (1, 4, 8):
        out = tmp_path / f"w{threads}"
        run_experiment(config, out_dir=out, threads=threads, quiet=True)
        contents[threads] = {
            name: (out / name).read_bytes()
            for name in ("entropy.csv", "twist.csv", "berry.csv")
        }
    ok = contents[1] == contents[4] == contents[8]
    _report(9, "byte-identical across worker counts", ok, "workers 1/4/8")
