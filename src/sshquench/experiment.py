"""Experiment runner: prepare, evolve, measure, estimate, mitigate, compare.

Executes a parsed configuration over its time grid and writes plot-ready CSV
files next to a re-runnable manifest. The (time point x unitary round) work
grid is scheduled on a bounded thread pool; every work item derives its own
generator from the master seed and the reduction runs in index order, so
outputs are byte-identical for any worker count.

The randomized-measurement round (a Haar unitary per qubit, then the
measurement chain) lives here, and the library's
``run_randomized_measurements`` is that round without noise. It calls its
stages through this module's names, which ``benchmark/bench_trace.py`` wraps
to time them; ``randmeas`` keeps the estimators.

Output files (per enabled quantity):
  <quantity>.csv  entropy, twist, berry; columns in ``TABLE_HEADERS``
  manifest.txt    resolved configuration, re-parseable as a config file,
                  written last
  shots/          optional persisted shot tables, one file per time point

Numbers are written with 12 significant digits; missing values are explicit
``nan`` sentinels accompanied by a flag token where a flags column exists.
"""
from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import (
    evolution_circuit,
    layer_count,
    prepare_neel,
    prepare_singlet_product,
)
from .config import (
    ExperimentConfig,
    default_output_dir,
    format_config,
    parse_config,
    resolve_subsystem,
)
from .noise import (
    apply_depolarizing,
    effective_p_tot,
    estimate_p_tot_from_full_purity,
    flip_outcomes,
    mitigate_purity,
    shift_align,
)
from .observables import (
    berry_phase,
    exact_twist,
    gauge_reference,
    particle_twist_amplitude,
    postselect_half_filling,
    twist_order_parameter,
)
from .oracle import closed_form_entropy
from .randmeas import (
    ShotTable,
    child_generator,
    marginal_counts,
    purity_statistic,
    renyi2,
    rotate_state,
    round_average,
    sample_haar_unitary,
)
from .state import (
    MAX_QUBITS,
    CapacityError,
    QuantumState,
    counts_from_outcomes,
    index_to_bits,
    probabilities,
    purity,
    sample_outcomes,
    sample_shots,
)

ENTROPY_STREAM = 0
TWIST_STREAM = 1

# CSV header of each quantity's table, in the order the tables are written
TABLE_HEADERS = {
    "entropy": ("t", "raw", "mitigated", "oracle", "sigma", "flags"),
    "twist": ("t", "re_raw", "im_raw", "re_post", "im_post", "re_exact", "im_exact"),
    "berry": ("t", "gamma_raw", "gamma_post", "gamma_exact", "flags"),
}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _initial_circuit(config):
    if config.initial == "neel":
        return prepare_neel(config.num_sites)
    return prepare_singlet_product(config.num_sites)


def _oracle_entropy(config, subset, state, t: float) -> float:
    """Closed form where a cell-aligned bipartition applies, exact otherwise."""
    cells_per_half = config.num_sites // 4
    if config.subsystem == "half":
        return closed_form_entropy(
            config.initial, t, config.boundary, num_cells=cells_per_half
        )
    if config.subsystem == "bulk":
        # two boundaries regardless of chain ends: the periodic form
        return closed_form_entropy(config.initial, t, "pbc", num_cells=cells_per_half)
    return renyi2(purity(state, subset))


def _parallel_map(fn, items, threads: int):
    """Bounded parallel map with results gathered in submission order."""
    if threads <= 1 or len(items) <= 1:
        return [fn(*item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, *zip(*items)))


def run_experiment(
    config_path: str | Path,
    out_dir: str | Path | None = None,
    seed: int | None = None,
    threads: int | None = None,
    exact_probabilities: bool | None = None,
    quiet: bool = False,
) -> Path:
    """Run a configured experiment; returns the output directory.

    ``seed``, ``threads`` and ``exact_probabilities`` override the config
    keys of those names and are checked by the same rules.
    """
    given = {"seed": seed, "threads": threads, "exact_probabilities": exact_probabilities}
    overrides = {key: str(v).lower() for key, v in given.items() if v is not None}
    config = parse_config(config_path, overrides)
    out = Path(out_dir) if out_dir is not None else default_output_dir(config_path, config)
    return execute(config, out, quiet=quiet)


def execute(config: ExperimentConfig, out_dir: Path, quiet: bool = False) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # a rerun that fails midway must not leave the last run's manifest
    # vouching for new, partial files
    (out_dir / "manifest.txt").unlink(missing_ok=True)

    subset = resolve_subsystem(config.subsystem, config.num_sites)

    # fused link blocks for the states; the gate-level circuit, whose depth
    # does not depend on t, is built once for the layer counts
    prep = _initial_circuit(config)
    initial_state = prep.run()
    states = [
        prep.then(evolution_circuit(t, config.num_sites, config.boundary, fused=True)).run()
        for t in config.times
    ]
    layers_total = layer_count(
        prep.then(evolution_circuit(config.times[0], config.num_sites, config.boundary))
    )
    p_tot_true = effective_p_tot(config.p_layer, layers_total)

    tables: dict[str, list[tuple]] = {}
    shot_files: dict[str, str] = {}
    if "entropy" in config.quantities:
        tables["entropy"] = _entropy_series(
            config, states, subset, p_tot_true, shot_files, quiet
        )
    if "twist" in config.quantities or "berry" in config.quantities:
        tables["twist"], tables["berry"] = _twist_series(
            config, states, initial_state, p_tot_true, shot_files
        )

    for name, header in TABLE_HEADERS.items():
        if name in config.quantities:
            _write_table(out_dir / f"{name}.csv", header, tables[name])
    if config.save_shots and shot_files:
        shots_dir = out_dir / "shots"
        shots_dir.mkdir(exist_ok=True)
        for name, text in shot_files.items():
            (shots_dir / name).write_text(text)

    comments = [
        f"version = {__version__}",
        f"subsystem_qubits_0based = {','.join(str(q) for q in subset)}",
        f"layers_prep = {layer_count(prep)}",
        f"layers_total = {layers_total}",
        f"p_tot_true = {_fmt(p_tot_true)}",
    ]
    (out_dir / "manifest.txt").write_text(
        "# sshquench run manifest: resolved configuration, re-runnable\n"
        + format_config(config)
        + "".join(f"# {line}\n" for line in comments)
    )
    return out_dir


def _measure(state, num_shots, p_tot, readout_flip, rng, unitaries=()) -> np.ndarray:
    """The one measurement chain: rotate, depolarize, sample, flip, count.

    Without flips the multinomial counts are the result; with them the shots
    are expanded, flipped and counted back. Both draw the same multinomial
    from ``rng`` first.
    """
    dist = probabilities(rotate_state(state, unitaries) if unitaries else state)
    if p_tot > 0.0:
        dist = apply_depolarizing(dist, p_tot)
    if readout_flip > 0.0:
        outcomes = sample_outcomes(dist, num_shots, rng)
        outcomes = flip_outcomes(outcomes, state.num_qubits, readout_flip, rng)
        return counts_from_outcomes(outcomes, state.num_qubits)
    return sample_shots(dist, num_shots, rng)


def _random_round(
    state, unitary_index, num_shots, rng, p_tot=0.0, readout_flip=0.0
) -> ShotTable:
    """One randomized-measurement round: a Haar unitary per qubit, then ``_measure``."""
    unitaries = tuple(sample_haar_unitary(rng) for _ in range(state.num_qubits))
    counts = _measure(state, num_shots, p_tot, readout_flip, rng, unitaries)
    return ShotTable(unitary_index, state.num_qubits, num_shots, counts, unitaries)


def run_randomized_measurements(
    state: QuantumState,
    num_unitaries: int,
    num_shots: int,
    rng: np.random.Generator,
) -> list[ShotTable]:
    """Collect ``num_unitaries`` shot tables; deterministic for a fixed rng.

    The runner's round, noiseless, for rounds 1..num_unitaries, all drawing
    from ``rng`` in turn.
    """
    if num_unitaries < 1:
        raise ValueError("num_unitaries must be >= 1")
    return [
        _random_round(state, u, num_shots, rng) for u in range(1, num_unitaries + 1)
    ]


def _entropy_series(config, states, subset, p_tot_true, shot_files, quiet) -> list[tuple]:
    """Rows of ``entropy.csv``; fills ``shot_files`` when shots are saved."""
    if config.exact_probabilities:
        return [
            (
                t,
                renyi2(purity(state, subset)),
                float("nan"),
                _oracle_entropy(config, subset, state, t),
                0.0,
                ("exact_mode", "no_mitigation"),
            )
            for t, state in zip(config.times, states)
        ]

    mitigate_on = config.mitigation_enabled()
    full = tuple(range(config.num_sites))
    rounds = config.num_unitaries
    tasks = [(t_idx, u) for t_idx in range(len(states)) for u in range(1, rounds + 1)]

    def one_round(t_idx: int, u: int):
        rng = child_generator(config.seed, ENTROPY_STREAM, t_idx, u)
        table = _random_round(
            states[t_idx], u, config.num_shots, rng, p_tot_true, config.readout_flip
        )
        sub_vec = marginal_counts(table, subset)
        x_unbiased = purity_statistic(sub_vec, config.num_shots, "unbiased")
        x_plugin = purity_statistic(sub_vec, config.num_shots, "plugin")
        x_full = float("nan")
        if mitigate_on:
            x_full = purity_statistic(
                marginal_counts(table, full), config.num_shots, config.estimator
            )
        shots = _nonzero(table.counts) if config.save_shots else None
        return x_unbiased, x_plugin, x_full, shots

    results = _parallel_map(one_round, tasks, config.threads)

    rows: list[tuple] = []
    for t_idx, t in enumerate(config.times):
        chunk = results[t_idx * rounds : (t_idx + 1) * rounds]
        unbiased = round_average([r[0] for r in chunk])
        plugin = round_average([r[1] for r in chunk])
        est = unbiased if config.estimator == "unbiased" else plugin
        raw = renyi2(est.value)
        sigma = (
            est.sigma / (est.value * np.log(2.0)) if est.value > 0.0 else float("nan")
        )
        flags: list[str] = []
        if np.isnan(raw):
            flags.append("raw_nonpositive_purity")

        mitigated = float("nan")
        if mitigate_on:
            full_purity = float(np.mean([r[2] for r in chunk]))
            p_fit = estimate_p_tot_from_full_purity(full_purity, config.num_sites)
            if p_fit.clamped:
                flags.append("p_tot_clamped")
            fixed = mitigate_purity(est.value, p_fit.value, len(subset))
            if fixed.clamped:
                flags.append("mitigated_clamped")
            mitigated = renyi2(fixed.value)
        else:
            flags.append("no_mitigation")

        oracle = _oracle_entropy(config, subset, states[t_idx], t)
        rows.append((t, raw, mitigated, oracle, float(sigma), tuple(flags)))
        if config.save_shots:
            shot_files[f"entropy_t{t_idx:04d}.txt"] = _shot_file(
                config, rounds, enumerate((r[3] for r in chunk), start=1)
            )
        if not quiet:
            print(
                f"t={t: .6f}  S_unbiased={renyi2(unbiased.value): .4f}  "
                f"S_plugin={renyi2(plugin.value): .4f}  oracle={oracle: .4f}"
            )

    if config.shift_mode != "none":
        # the mitigated column holds the shifted mitigated series, or the
        # shifted raw series when mitigation is off
        base = np.array([row[2] if mitigate_on else row[1] for row in rows])
        aligned, _offset = shift_align(base, config.shift_mode)
        rows = [
            (t, raw, float(v), oracle, sigma, flags + ("shifted",))
            for (t, raw, _m, oracle, sigma, flags), v in zip(rows, aligned)
        ]
    return rows


def _twist_series(config, states, initial_state, p_tot_true, shot_files):
    """Rows of ``twist.csv`` and ``berry.csv``; fills ``shot_files`` when saved.

    With exact probabilities the raw and postselected columns repeat the
    exact ones.
    """
    reference = gauge_reference(initial_state)
    twist_rows: list[tuple] = []
    berry_rows: list[tuple] = []

    for t_idx, (t, state) in enumerate(zip(config.times, states)):
        z_exact = exact_twist(state, q=1, kind="spin").z
        exact_point = berry_phase(exact_twist(state, q=2, kind="particle"), reference)
        gamma_exact = exact_point.gamma
        flags = [] if exact_point.reliable else ["exact_unreliable"]

        if config.exact_probabilities:
            z_raw = z_post = z_exact
            gamma_raw = gamma_post = gamma_exact
        else:
            rng = child_generator(config.seed, TWIST_STREAM, t_idx)
            keys, vals = _nonzero(
                _measure(state, config.num_shots, p_tot_true, config.readout_flip, rng)
            )
            counts = dict(zip(keys.tolist(), vals.tolist()))  # the observables' input
            kept = postselect_half_filling(counts, config.num_sites)
            z_raw, gamma_raw = _twist_point(counts, config.num_sites, reference, "raw", flags)
            if kept:
                z_post, gamma_post = _twist_point(
                    kept, config.num_sites, reference, "post", flags
                )
            else:
                z_post = complex(float("nan"), float("nan"))
                gamma_post = float("nan")
                flags.append("post_empty")
            if config.save_shots:
                shot_files[f"twist_t{t_idx:04d}.txt"] = _shot_file(
                    config, 1, [(0, (keys, vals))]
                )

        twist_rows.append(
            (t, z_raw.real, z_raw.imag, z_post.real, z_post.imag, z_exact.real, z_exact.imag)
        )
        berry_rows.append((t, gamma_raw, gamma_post, gamma_exact, tuple(flags)))
    return twist_rows, berry_rows


def _twist_point(counts, num_sites: int, reference: float, column: str, flags: list):
    """Spin twist z at q = 1 and Berry angle of the particle twist at q = 2.

    Appends ``<column>_unreliable`` to ``flags`` when the angle is.
    """
    z = twist_order_parameter(counts, num_sites, q=1).z
    point = berry_phase(particle_twist_amplitude(counts, num_sites, q=2), reference)
    if not point.reliable:
        flags.append(f"{column}_unreliable")
    return z, point.gamma


def _nonzero(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indices, counts) of the outcomes seen, indices ascending."""
    keys = np.flatnonzero(counts)
    return keys, counts[keys]


def _shot_file(config, num_unitaries: int, rounds) -> str:
    """Shot-table text: a header, then "u bits count" per (u, ``_nonzero``) round."""
    lines = [
        f"# L={config.num_sites} N_U={num_unitaries} "
        f"N_M={config.num_shots} seed={config.seed}\n"
    ]
    for u, (keys, vals) in rounds:
        lines += [
            f"{u} {index_to_bits(key, config.num_sites)} {count}\n"
            for key, count in zip(keys.tolist(), vals.tolist())
        ]
    return "".join(lines)


def _write_table(path: Path, header, rows) -> None:
    """CSV with numbers at 12 significant digits and flag tuples ';'-joined."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([";".join(x) if isinstance(x, tuple) else _fmt(x) for x in row])


def read_shot_tables(path: str | Path) -> list[ShotTable]:
    """Load the line-oriented shot-table format written by ``save_shots``."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing header line")
    header = dict(
        item.split("=", 1) for item in lines[0].lstrip("# ").split() if "=" in item
    )
    try:
        num_qubits, num_shots = int(header["L"]), int(header["N_M"])
        num_rounds = int(header["N_U"])
    except (KeyError, ValueError):
        raise ValueError(
            f"{path}:1: expected a header with integer L=, N_U= and N_M=, "
            f"got {lines[0]!r}"
        ) from None
    if not (1 <= num_qubits <= MAX_QUBITS and num_rounds >= 1):
        raise ValueError(
            f"{path}:1: expected 1 <= L <= {MAX_QUBITS} and N_U >= 1, got {lines[0]!r}"
        )
    # a dense int64 count vector per round, in all no more than one dense state
    if num_rounds * (8 << num_qubits) > 16 << MAX_QUBITS:
        raise CapacityError(
            f"{path}:1: N_U={num_rounds} rounds of 2^{num_qubits} int64 counts exceed "
            f"the {(16 << MAX_QUBITS) >> 20} MiB of one dense state at L={MAX_QUBITS}"
        )
    grouped: dict[int, np.ndarray] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split()
        if (
            len(fields) != 3
            or not fields[0].isdecimal()
            or len(fields[1]) != num_qubits
            or set(fields[1]) - {"0", "1"}
            or not fields[2].isdecimal()
            or int(fields[2]) < 1
        ):
            raise ValueError(
                f"{path}:{lineno}: expected 'round bits count' with {num_qubits} "
                f"bits of 0/1 and a positive count, got {line!r}"
            )
        u, bits, count = int(fields[0]), fields[1], int(fields[2])
        # rounds 1..N_U; a twist file holds the single identity round 0
        if not (1 <= u <= num_rounds or (u == 0 and num_rounds == 1)):
            raise ValueError(f"{path}:{lineno}: round {u} outside 1..N_U={num_rounds}")
        if u not in grouped:
            grouped[u] = np.zeros(1 << num_qubits, dtype=np.int64)
        if grouped[u][int(bits, 2)]:
            raise ValueError(f"{path}:{lineno}: repeated round {u} bitstring {bits}")
        grouped[u][int(bits, 2)] = count
    if len(grouped) != num_rounds:
        raise ValueError(
            f"{path}:1: header N_U={num_rounds} but rounds {sorted(grouped)} found"
        )
    tables = []
    for u, counts in sorted(grouped.items()):
        total = int(counts.sum())
        if total != num_shots:
            raise ValueError(
                f"{path}:1: header N_M={num_shots} but round {u} counts sum to {total}"
            )
        tables.append(ShotTable(u, num_qubits, num_shots, counts))
    return tables


def _read_csv_columns(path: Path) -> dict[str, list[str]]:
    with path.open() as fh:
        header, *rows = csv.reader(fh)
    return {h: [row[i] for row in rows] for i, h in enumerate(header)}


def _floats(column: list[str]) -> np.ndarray:
    return np.array([float(x) for x in column])


def _series_stats(est: np.ndarray, ref: np.ndarray, circular: bool = False):
    good = np.isfinite(est) & np.isfinite(ref)
    if not np.any(good):
        return float("nan"), float("nan"), 0
    diff = est[good] - ref[good]
    if circular:
        diff = np.angle(np.exp(1j * diff))
    err = np.abs(diff)  # complex series deviate by their modulus
    return (
        float(np.sqrt(np.mean(err**2))),
        float(np.max(err)),
        int(np.sum(good)),
    )


def compare_report(out_dir: str | Path) -> str:
    """Per-series deviation statistics against the oracle columns.

    Returns the summary text and writes it to ``summary.txt`` in the run
    directory. Raises FileNotFoundError when ``manifest.txt``, which a run
    writes last, or every known CSV is missing.
    """
    out_dir = Path(out_dir)
    manifest = out_dir / "manifest.txt"
    if not manifest.is_file():
        raise FileNotFoundError(f"{manifest} not found: not a complete run directory")
    tables = {
        name: _read_csv_columns(out_dir / f"{name}.csv")
        for name in TABLE_HEADERS
        if (out_dir / f"{name}.csv").exists()
    }
    if not tables:
        raise FileNotFoundError(f"no entropy/twist/berry CSV found in {out_dir}")
    lines: list[str] = [f"comparison report for {out_dir}"]

    if "entropy" in tables:
        cols = tables["entropy"]
        for series in ("raw", "mitigated"):
            rms, peak, n = _series_stats(_floats(cols[series]), _floats(cols["oracle"]))
            lines.append(
                f"entropy {series}: rms={_fmt(rms)} max={_fmt(peak)} points={n}"
            )

    if "twist" in tables:
        cols = tables["twist"]
        z = {
            series: _floats(cols[f"re_{series}"]) + 1j * _floats(cols[f"im_{series}"])
            for series in ("raw", "post", "exact")
        }
        for series in ("raw", "post"):
            rms, peak, n = _series_stats(z[series], z["exact"])
            if n:
                lines.append(
                    f"twist {series}: rms={_fmt(rms)} max={_fmt(peak)} points={n}"
                )

    if "berry" in tables:
        cols = tables["berry"]
        flags = [set(f.split(";")) for f in cols["flags"]]
        for series, bad in (
            ("gamma_raw", {"raw_unreliable", "exact_unreliable"}),
            ("gamma_post", {"post_unreliable", "post_empty", "exact_unreliable"}),
        ):
            kept = np.array([not (row & bad) for row in flags], dtype=bool)
            vals = np.where(kept, _floats(cols[series]), np.nan)
            rms, peak, n = _series_stats(vals, _floats(cols["gamma_exact"]), circular=True)
            lines.append(
                f"berry {series}: rms={_fmt(rms)} max={_fmt(peak)} "
                f"points={n} (unreliable rows excluded)"
            )

    text = "\n".join(lines) + "\n"
    (out_dir / "summary.txt").write_text(text)
    return text
