"""Experiment runner: prepare, evolve, measure, estimate, mitigate, compare.

Executes a parsed configuration over its time grid and writes plot-ready CSV
files next to a re-runnable manifest. A run is one pass over the time points
on one bounded thread pool: each point's state is built just before its work
items (its own rows, then its randomized-measurement rounds) and dropped after
them. Every work item derives its own generator from the master seed and the
reduction runs in index order, so outputs are byte-identical for any worker
count. Exact mode is the zero-round, zero-shot case of the same row builders.

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

Each file is written under a temporary name and moved into place; a rerun
removes the earlier outputs that it does not write again. Numbers are written
with 12 significant digits; missing values are explicit ``nan`` sentinels
accompanied by a flag token where a flags column exists.
"""
from __future__ import annotations

import csv
import io
import re
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
    exact_twist,  # noqa: F401 (a name that benchmark/bench_trace.py wraps)
    gauge_reference,
    histogram_twist,
    particle_twist_amplitude,
    postselect_half_filling,
    twist_order_parameter,
    w_histogram,
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


def _parallel_map(fn, items, threads: int):
    """``fn(*item)`` for each item, in submission order, on one pool.

    ``items`` may be lazy: it is drawn only while fewer than ``2 * threads``
    calls are in flight.
    """
    if threads <= 1:
        return [fn(*item) for item in items]
    results, window = [], []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for item in items:
            if len(window) == 2 * threads:
                results.append(window.pop(0).result())
            window.append(pool.submit(fn, *item))
        return results + [future.result() for future in window]


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
    if out_dir.exists() and not out_dir.is_dir():
        raise NotADirectoryError(f"output path {out_dir} exists and is not a directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    # a rerun that fails midway must not leave the last run's manifest
    # vouching for new, partial files
    (out_dir / "manifest.txt").unlink(missing_ok=True)

    subset = resolve_subsystem(config.subsystem, config.num_sites)

    # fused link blocks on the prepared state; the gate-level circuit, whose
    # depth does not depend on t, is built once for the layer counts
    prepare = prepare_neel if config.initial == "neel" else prepare_singlet_product
    prep = prepare(config.num_sites)
    initial_state = prep.run()
    layers_total = layer_count(
        prep.then(evolution_circuit(config.times[0], config.num_sites, config.boundary))
    )
    p_tot_true = effective_p_tot(config.p_layer, layers_total)
    entropy_on = "entropy" in config.quantities
    twist_on = "twist" in config.quantities or "berry" in config.quantities
    reference = gauge_reference(initial_state) if twist_on else 0.0
    rounds = config.num_unitaries if entropy_on and not config.exact_probabilities else 0

    def time_points():
        # each state is built when the pool asks for its first item; item
        # u = 0 makes the time point's own rows, u >= 1 its rounds
        for t_idx, t in enumerate(config.times):
            fused = evolution_circuit(t, config.num_sites, config.boundary, fused=True)
            state = fused.run(initial_state)
            for u in range(rounds + 1):
                yield state, t_idx, u

    def measure(state, t_idx: int, u: int):
        if u == 0:
            return (
                _entropy_point(config, state, t_idx, subset) if entropy_on else None,
                _twist_point(config, state, t_idx, reference, p_tot_true) if twist_on else None,
            )
        rng = child_generator(config.seed, ENTROPY_STREAM, t_idx, u)
        counts, _ = _random_round(state, config.num_shots, rng, p_tot_true, config.readout_flip)
        sub_vec = marginal_counts(counts, subset)
        x_unbiased = purity_statistic(sub_vec, config.num_shots, "unbiased")
        x_plugin = purity_statistic(sub_vec, config.num_shots, "plugin")
        x_full = float("nan")
        if config.mitigation_enabled():  # the full chain's marginal is the vector itself
            x_full = purity_statistic(counts, config.num_shots, config.estimator)
        shots = _nonzero(counts) if config.save_shots else None
        return x_unbiased, x_plugin, x_full, shots

    results = _parallel_map(measure, time_points(), config.threads)
    points = [results[i : i + rounds + 1] for i in range(0, len(results), rounds + 1)]

    tables: dict[str, list[tuple]] = {}
    shot_files: dict[str, str] = {}
    if entropy_on:
        tables["entropy"] = _entropy_series(config, points, subset, shot_files, quiet)
    if twist_on:
        tables["twist"], tables["berry"], shots = zip(*(p[0][1] for p in points))
        shot_files.update((f"twist_t{i:04d}.txt", text) for i, text in enumerate(shots) if text)

    # earlier outputs that this run does not rewrite go; it replaces the rest one by one
    written = {f"{n}.csv" for n in config.quantities} | {f"shots/{n}" for n in shot_files}
    _remove_outputs(out_dir, written)
    for name, header in TABLE_HEADERS.items():
        if name in config.quantities:
            _write_table(out_dir / f"{name}.csv", header, tables[name])
    if config.save_shots and shot_files:
        shots_dir = out_dir / "shots"
        shots_dir.mkdir(exist_ok=True)
        for name, text in shot_files.items():
            _replace_file(shots_dir / name, text)

    comments = [
        f"version = {__version__}",
        f"subsystem_qubits_0based = {','.join(str(q) for q in subset)}",
        f"layers_prep = {layer_count(prep)}",
        f"layers_total = {layers_total}",
        f"p_tot_true = {_fmt(p_tot_true)}",
    ]
    _replace_file(
        out_dir / "manifest.txt",
        "# sshquench run manifest: resolved configuration, re-runnable\n"
        + format_config(config)
        + "".join(f"# {line}\n" for line in comments),
    )
    return out_dir


def _measure(dist, num_shots, p_tot, readout_flip, rng) -> np.ndarray:
    """The one measurement chain on a distribution: depolarize, sample, flip, count.

    Without flips the multinomial counts are the result; with them the shots
    are expanded, flipped and counted back. Both draw the same multinomial
    from ``rng`` first.
    """
    if p_tot > 0.0:
        dist = apply_depolarizing(dist, p_tot)
    if readout_flip > 0.0:
        num_qubits = dist.size.bit_length() - 1
        outcomes = sample_outcomes(dist, num_shots, rng)
        outcomes = flip_outcomes(outcomes, num_qubits, readout_flip, rng)
        return counts_from_outcomes(outcomes, num_qubits)
    return sample_shots(dist, num_shots, rng)


def _random_round(state, num_shots, rng, p_tot=0.0, readout_flip=0.0) -> tuple[np.ndarray, tuple]:
    """One round, a Haar unitary per qubit then ``_measure``: (count vector, unitaries)."""
    unitaries = tuple(sample_haar_unitary(rng) for _ in range(state.num_qubits))
    dist = probabilities(rotate_state(state, unitaries))
    return _measure(dist, num_shots, p_tot, readout_flip, rng), unitaries


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
    rounds = [_random_round(state, num_shots, rng) for _ in range(num_unitaries)]
    return [
        ShotTable(u, state.num_qubits, num_shots, counts, us)
        for u, (counts, us) in enumerate(rounds, start=1)
    ]


def _entropy_point(config, state, t_idx: int, subset) -> tuple[float, float]:
    """(exact, oracle) entropies. The oracle is the closed form where a
    cell-aligned bipartition applies, else the exact entropy. The exact entropy
    is computed once, in exact mode or where no closed form applies, else nan."""
    t, cells_per_half, oracle = config.times[t_idx], config.num_sites // 4, None
    if config.subsystem == "half":
        oracle = closed_form_entropy(
            config.initial, t, config.boundary, num_cells=cells_per_half
        )
    elif config.subsystem == "bulk" and config.num_sites % 8 == 0:  # whole cells only then
        # two boundaries regardless of chain ends: the periodic form
        oracle = closed_form_entropy(config.initial, t, "pbc", num_cells=cells_per_half)
    nan = float("nan")
    exact = renyi2(purity(state, subset)) if oracle is None or config.exact_probabilities else nan
    return exact, (exact if oracle is None else oracle)


def _entropy_series(config, points, subset, shot_files, quiet) -> list[tuple]:
    """Rows of ``entropy.csv``; fills ``shot_files`` when shots are saved.

    Each of ``points`` is a time point's own result, then its rounds' results.
    Exact mode is the case of no rounds: raw is the exact entropy, sigma is
    0 and nothing is mitigated.
    """
    mitigate_on = config.mitigation_enabled() and not config.exact_probabilities
    rows: list[tuple] = []
    for t_idx, (t, [((exact, oracle), _twist), *chunk]) in enumerate(zip(config.times, points)):
        raw, sigma, mitigated = exact, 0.0, float("nan")
        flags = [] if chunk else ["exact_mode"]
        if chunk:
            unbiased = round_average([r[0] for r in chunk])
            plugin = round_average([r[1] for r in chunk])
            est = unbiased if config.estimator == "unbiased" else plugin
            raw = renyi2(est.value)
            sigma = (
                est.sigma / (est.value * np.log(2.0)) if est.value > 0.0 else float("nan")
            )
            if np.isnan(raw):
                flags.append("raw_nonpositive_purity")
            if config.save_shots:
                shot_files[f"entropy_t{t_idx:04d}.txt"] = _shot_file(
                    config, len(chunk), enumerate((r[3] for r in chunk), start=1)
                )
            if not quiet:
                print(
                    f"t={t: .6f}  S_unbiased={renyi2(unbiased.value): .4f}  "
                    f"S_plugin={renyi2(plugin.value): .4f}  oracle={oracle: .4f}"
                )

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
        rows.append((t, raw, mitigated, oracle, float(sigma), tuple(flags)))
    if config.shift_mode == "none":
        return rows
    # the mitigated column takes the shifted mitigated series, or the shifted raw
    # series when nothing is mitigated (mitigation off, or exact mode); a series
    # with no finite value has nothing to align and stays nan
    base = np.array([row[2] if mitigate_on else row[1] for row in rows])
    aligned = shift_align(base, config.shift_mode)[0] if np.isfinite(base).any() else base
    return [
        (t, raw, float(v), oracle, sigma, flags + ("shifted",))
        for (t, raw, _m, oracle, sigma, flags), v in zip(rows, aligned)
    ]


def _twist_point(config, state, t_idx: int, reference: float, p_tot_true):
    """One time point's ``twist.csv`` and ``berry.csv`` rows and its shot text.

    The raw and postselected columns start at the exact ones; exact mode
    keeps them there, skips the sampling and has no shot text.
    """
    dist = probabilities(state)
    histogram = w_histogram(dist)  # both exact twists read it
    z_raw = z_post = z_exact = histogram_twist(histogram, config.num_sites, q=1, kind="spin").z
    exact_point = berry_phase(
        histogram_twist(histogram, config.num_sites, q=2, kind="particle"), reference
    )
    gamma_raw = gamma_post = gamma_exact = exact_point.gamma
    flags = [] if exact_point.reliable else ["exact_unreliable"]
    shots = None
    if not config.exact_probabilities:
        rng = child_generator(config.seed, TWIST_STREAM, t_idx)
        keys, vals = _nonzero(
            _measure(dist, config.num_shots, p_tot_true, config.readout_flip, rng)
        )
        counts = dict(zip(keys.tolist(), vals.tolist()))  # the observables' input
        kept = postselect_half_filling(counts, config.num_sites)
        z_raw, gamma_raw = _twist_estimate(counts, config.num_sites, reference, "raw", flags)
        z_post, gamma_post = _twist_estimate(kept, config.num_sites, reference, "post", flags)
        shots = _shot_file(config, 1, [(0, (keys, vals))]) if config.save_shots else None

    t = config.times[t_idx]
    twist_row = (t, z_raw.real, z_raw.imag, z_post.real, z_post.imag, z_exact.real, z_exact.imag)
    return twist_row, (t, gamma_raw, gamma_post, gamma_exact, tuple(flags)), shots


def _twist_estimate(counts, num_sites: int, reference: float, column: str, flags: list):
    """Spin twist z at q = 1 and Berry angle of the particle twist at q = 2.

    Appends ``<column>_unreliable`` to ``flags`` when the angle is. No counts
    (a postselection that kept no shot) give nan and ``<column>_empty``.
    """
    if not counts:
        flags.append(f"{column}_empty")
        return complex(float("nan"), float("nan")), float("nan")
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


def _remove_outputs(out_dir: Path, keep: set[str]) -> None:
    """Unlink the run's and the report's own files in ``out_dir`` not named in ``keep``,
    and the partial copy of every one of them."""
    owned = {"summary.txt", *(f"{name}.csv" for name in TABLE_HEADERS)}
    shots = (p.name.removeprefix(".").removesuffix(".partial")  # partials name their file
             for p in (out_dir / "shots").glob("*_t*.txt*"))
    owned |= {f"shots/{n}" for n in shots if re.fullmatch(r"(entropy|twist)_t\d{4,}\.txt", n)}
    for name in owned:
        _partial(out_dir / name).unlink(missing_ok=True)
        if name not in keep:
            (out_dir / name).unlink(missing_ok=True)


def _partial(path: Path) -> Path:
    return path.with_name(f".{path.name}.partial")


def _replace_file(path: Path, text: str) -> None:
    """Write ``text`` to a temporary sibling of ``path``, then move it over ``path``;
    a failed write or move leaves ``path`` as it was and no sibling behind."""
    partial = _partial(path)
    try:
        partial.write_text(text, newline="")
        partial.replace(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _write_table(path: Path, header, rows) -> None:
    """CSV with numbers at 12 significant digits and flag tuples ';'-joined."""
    text = io.StringIO()
    w = csv.writer(text)
    w.writerow(header)
    w.writerows([";".join(x) if isinstance(x, tuple) else _fmt(x) for x in r] for r in rows)
    _replace_file(path, text.getvalue())


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


class RunFileError(ValueError):
    """A malformed file in a run directory; the message names the file and line."""


def _read_csv_columns(path: Path, header: tuple[str, ...]) -> dict[str, list | np.ndarray]:
    """The columns of a table written with ``header``, by name: ``flags`` as a
    list of text, every other column as a float array."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(header):
            raise RunFileError(f"{path}:1: expected the header {','.join(header)}")
        rows = []
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise RunFileError(f"{where}: {len(row)} fields, expected {len(header)}")
            try:
                rows.append([x if h == "flags" else float(x) for h, x in zip(header, row)])
            except ValueError:
                raise RunFileError(f"{where}: a number field holds no number") from None
    return {
        h: [row[i] for row in rows] if h == "flags" else np.array([row[i] for row in rows])
        for i, h in enumerate(header)
    }


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
    writes last, or every known CSV is missing, and ``RunFileError`` when a
    CSV's header is not its ``TABLE_HEADERS`` entry, a row has another
    number of fields or a number field holds no number.
    """
    out_dir = Path(out_dir)
    manifest = out_dir / "manifest.txt"
    if not manifest.is_file():
        raise FileNotFoundError(f"{manifest} not found: not a complete run directory")
    tables = {
        name: _read_csv_columns(out_dir / f"{name}.csv", header)
        for name, header in TABLE_HEADERS.items()
        if (out_dir / f"{name}.csv").exists()
    }
    if not tables:
        raise FileNotFoundError(f"no entropy/twist/berry CSV found in {out_dir}")
    lines: list[str] = [f"comparison report for {out_dir}"]
    # (table, series, reference column, flags that exclude a row from the series)
    for table, series, reference, bad in (
        ("entropy", "raw", "oracle", ()),
        ("entropy", "mitigated", "oracle", ()),
        ("twist", "raw", "exact", ()),
        ("twist", "post", "exact", ()),
        ("berry", "gamma_raw", "gamma_exact", ("raw_unreliable", "exact_unreliable")),
        ("berry", "gamma_post", "gamma_exact",
         ("post_unreliable", "post_empty", "exact_unreliable")),
    ):
        if table not in tables:
            continue
        cols = tables[table]
        est, ref = (  # a complex column is read from its re_ and im_ columns
            cols[name] if name in cols else cols[f"re_{name}"] + 1j * cols[f"im_{name}"]
            for name in (series, reference)
        )
        if bad:
            kept = [set(row.split(";")).isdisjoint(bad) for row in cols["flags"]]
            est = np.where(kept, est, np.nan)
        rms, peak, n = _series_stats(est, ref, circular=table == "berry")
        if n or table != "twist":  # a twist series with no finite point is left out
            note = " (unreliable rows excluded)" if bad else ""
            lines.append(f"{table} {series}: rms={_fmt(rms)} max={_fmt(peak)} points={n}{note}")

    text = "\n".join(lines) + "\n"
    _replace_file(out_dir / "summary.txt", text)
    return text
