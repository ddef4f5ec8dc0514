"""Experiment runner: prepare, evolve, measure, estimate, mitigate, compare.

Executes a parsed configuration over its time grid and writes plot-ready CSV
files next to a re-runnable manifest. The (time point x unitary round) work
grid is scheduled on a bounded thread pool; every work item derives its own
generator from the master seed and the reduction runs in index order, so
outputs are byte-identical for any worker count.

Output files (per enabled quantity):
  entropy.csv   t,raw,mitigated,oracle,sigma,flags
  twist.csv     t,re_raw,im_raw,re_post,im_post,re_exact,im_exact
  berry.csv     t,gamma_raw,gamma_post,gamma_exact,flags
  manifest.txt  resolved configuration, re-parseable as a config file
  shots/        optional persisted shot tables, one file per time point

Numbers are written with 12 significant digits; missing values are explicit
``nan`` sentinels accompanied by a flag token where a flags column exists.
"""
from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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
    with_overrides,
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
    sample_haar_unitary,
)
from .state import (
    counts_from_outcomes,
    index_to_bits,
    probabilities,
    purity,
    sample_outcomes,
)

ENTROPY_STREAM = 0
TWIST_STREAM = 1


@dataclass
class TimeSeriesPoint:
    """One fully processed grid point of the entropy series."""

    t: float
    raw: float
    mitigated: float
    oracle: float
    sigma: float
    flags: tuple[str, ...] = ()
    p_tot_true: float = 0.0
    p_tot_estimated: float = float("nan")
    raw_plugin: float = float("nan")
    raw_unbiased: float = float("nan")


@dataclass
class TwistRow:
    t: float
    z_raw: complex
    z_post: complex
    z_exact: complex


@dataclass
class BerryRow:
    t: float
    gamma_raw: float
    gamma_post: float
    gamma_exact: float
    flags: tuple[str, ...] = ()


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _initial_circuit(spec):
    if spec.initial == "neel":
        return prepare_neel(spec.num_sites)
    return prepare_singlet_product(spec.num_sites)


def _oracle_entropy(spec, subsystem_kind: str, subset, state, t: float) -> float:
    """Closed form where a cell-aligned bipartition applies, exact otherwise."""
    cells_per_half = spec.num_sites // 4
    if subsystem_kind == "half":
        return closed_form_entropy(
            spec.initial, t, spec.boundary, num_cells=cells_per_half
        )
    if subsystem_kind == "bulk":
        # two boundaries regardless of chain ends: the periodic form
        return closed_form_entropy(spec.initial, t, "pbc", num_cells=cells_per_half)
    return renyi2(purity(state, subset))


def _parallel_map(fn, items, threads: int):
    """Bounded parallel map with results gathered in submission order."""
    if threads <= 1 or len(items) <= 1:
        return [fn(*item) for item in items]
    results = [None] * len(items)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {pool.submit(fn, *item): pos for pos, item in enumerate(items)}
        for fut, pos in futures.items():
            results[pos] = fut.result()
    return results


def run_experiment(
    config_path: str | Path,
    out_dir: str | Path | None = None,
    seed: int | None = None,
    threads: int | None = None,
    exact_probabilities: bool | None = None,
    quiet: bool = False,
) -> Path:
    """Run a configured experiment; returns the output directory."""
    config = with_overrides(
        parse_config(config_path),
        seed=seed,
        threads=threads,
        exact_probabilities=exact_probabilities,
    )
    out = Path(out_dir) if out_dir is not None else default_output_dir(
        config_path, config.options
    )
    return execute(config, out, quiet=quiet)


def execute(config: ExperimentConfig, out_dir: Path, quiet: bool = False) -> Path:
    spec, opts = config.spec, config.options
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    subset = resolve_subsystem(opts.subsystem, spec.num_sites)

    # fused link blocks for the states; the gate-level circuit, whose depth
    # does not depend on t, is built once for the layer counts
    prep = _initial_circuit(spec)
    initial_state = prep.run()
    states = [
        prep.then(evolution_circuit(t, spec.num_sites, spec.boundary, fused=True)).run()
        for t in spec.times
    ]
    layers_total = layer_count(
        prep.then(evolution_circuit(spec.times[0], spec.num_sites, spec.boundary))
    )
    layers_prep = layer_count(prep)
    p_tot_true = effective_p_tot(spec.noise.p_layer, layers_total)

    entropy_rows: list[TimeSeriesPoint] = []
    twist_rows: list[TwistRow] = []
    berry_rows: list[BerryRow] = []
    shot_files: dict[str, str] = {}

    if "entropy" in opts.quantities:
        entropy_rows = _entropy_series(
            spec, opts, states, subset, p_tot_true, shot_files, quiet
        )
    if "twist" in opts.quantities or "berry" in opts.quantities:
        twist_rows, berry_rows = _twist_series(
            spec, opts, states, initial_state, p_tot_true, shot_files
        )

    if "entropy" in opts.quantities:
        _write_table(
            out_dir / "entropy.csv",
            ("t", "raw", "mitigated", "oracle", "sigma", "flags"),
            (
                (r.t, r.raw, r.mitigated, r.oracle, r.sigma, r.flags)
                for r in entropy_rows
            ),
        )
    if "twist" in opts.quantities:
        _write_table(
            out_dir / "twist.csv",
            ("t", "re_raw", "im_raw", "re_post", "im_post", "re_exact", "im_exact"),
            (
                (r.t, r.z_raw.real, r.z_raw.imag, r.z_post.real, r.z_post.imag,
                 r.z_exact.real, r.z_exact.imag)
                for r in twist_rows
            ),
        )
    if "berry" in opts.quantities:
        _write_table(
            out_dir / "berry.csv",
            ("t", "gamma_raw", "gamma_post", "gamma_exact", "flags"),
            (
                (r.t, r.gamma_raw, r.gamma_post, r.gamma_exact, r.flags)
                for r in berry_rows
            ),
        )
    if opts.save_shots and shot_files:
        shots_dir = out_dir / "shots"
        shots_dir.mkdir(exist_ok=True)
        for name, text in shot_files.items():
            (shots_dir / name).write_text(text)

    _write_manifest(
        out_dir / "manifest.txt",
        config,
        subset,
        layers_prep=layers_prep,
        layers_total=layers_total,
        p_tot_true=p_tot_true,
    )
    return out_dir


def _measure(state, spec, p_tot_true, rng, unitaries=()) -> np.ndarray:
    """The one measurement chain: rotate, depolarize, sample, flip, count."""
    dist = probabilities(rotate_state(state, unitaries) if unitaries else state)
    if p_tot_true > 0.0:
        dist = apply_depolarizing(dist, p_tot_true)
    outcomes = sample_outcomes(dist, spec.num_shots, rng)
    if spec.noise.readout_flip > 0.0:
        outcomes = flip_outcomes(outcomes, spec.num_sites, spec.noise.readout_flip, rng)
    return counts_from_outcomes(outcomes, spec.num_sites)


def _entropy_series(
    spec, opts, states, subset, p_tot_true, shot_files, quiet
) -> list[TimeSeriesPoint]:
    mitigate_on = opts.mitigation_enabled(spec.noise) and not opts.exact_probabilities
    rows: list[TimeSeriesPoint] = []

    if opts.exact_probabilities:
        for t, state in zip(spec.times, states):
            s_exact = renyi2(purity(state, subset))
            oracle = _oracle_entropy(spec, opts.subsystem, subset, state, t)
            rows.append(
                TimeSeriesPoint(
                    t=t,
                    raw=s_exact,
                    mitigated=float("nan"),
                    oracle=oracle,
                    sigma=0.0,
                    flags=("exact_mode", "no_mitigation"),
                    p_tot_true=0.0,
                    raw_plugin=s_exact,
                    raw_unbiased=s_exact,
                )
            )
        return rows

    full = tuple(range(spec.num_sites))
    tasks = [
        (t_idx, u) for t_idx in range(len(spec.times)) for u in range(1, spec.num_unitaries + 1)
    ]

    def one_round(t_idx: int, u: int):
        rng = child_generator(spec.seed, ENTROPY_STREAM, t_idx, u)
        unitaries = tuple(sample_haar_unitary(rng) for _ in range(spec.num_sites))
        counts = _measure(states[t_idx], spec, p_tot_true, rng, unitaries)
        table = ShotTable(u, spec.num_sites, spec.num_shots, counts, unitaries)
        sub_vec = marginal_counts(table, subset)
        x_unbiased = purity_statistic(sub_vec, spec.num_shots, "unbiased")
        x_plugin = purity_statistic(sub_vec, spec.num_shots, "plugin")
        x_full = (
            purity_statistic(
                marginal_counts(table, full), spec.num_shots, opts.estimator
            )
            if mitigate_on
            else float("nan")
        )
        shots = _nonzero(counts) if opts.save_shots else None
        return x_unbiased, x_plugin, x_full, shots

    results = _parallel_map(one_round, tasks, opts.threads)

    for t_idx, t in enumerate(spec.times):
        chunk = results[t_idx * spec.num_unitaries : (t_idx + 1) * spec.num_unitaries]
        x_unb = np.array([r[0] for r in chunk])
        x_plg = np.array([r[1] for r in chunk])
        x_chosen = x_unb if opts.estimator == "unbiased" else x_plg
        purity_est = float(np.mean(x_chosen))
        sigma_purity = (
            float(np.std(x_chosen, ddof=1) / np.sqrt(len(x_chosen)))
            if len(x_chosen) > 1
            else float("nan")
        )
        raw = renyi2(purity_est)
        sigma = (
            sigma_purity / (purity_est * np.log(2.0))
            if purity_est > 0.0
            else float("nan")
        )
        flags: list[str] = []
        if np.isnan(raw):
            flags.append("raw_nonpositive_purity")

        mitigated = float("nan")
        p_est = float("nan")
        if mitigate_on:
            full_purity = float(np.mean([r[2] for r in chunk]))
            p_fit = estimate_p_tot_from_full_purity(full_purity, spec.num_sites)
            p_est = p_fit.value
            if p_fit.clamped:
                flags.append("p_tot_clamped")
            fixed = mitigate_purity(purity_est, p_est, len(subset))
            if fixed.clamped:
                flags.append("mitigated_clamped")
            mitigated = renyi2(fixed.value)
        else:
            flags.append("no_mitigation")

        oracle = _oracle_entropy(spec, opts.subsystem, subset, states[t_idx], t)
        rows.append(
            TimeSeriesPoint(
                t=t,
                raw=raw,
                mitigated=mitigated,
                oracle=oracle,
                sigma=float(sigma),
                flags=tuple(flags),
                p_tot_true=p_tot_true,
                p_tot_estimated=p_est,
                raw_plugin=renyi2(float(np.mean(x_plg))),
                raw_unbiased=renyi2(float(np.mean(x_unb))),
            )
        )
        if opts.save_shots:
            shot_files[f"entropy_t{t_idx:04d}.txt"] = _shot_file(
                spec, spec.num_unitaries, enumerate((r[3] for r in chunk), start=1)
            )
        if not quiet:
            print(
                f"t={t: .6f}  S_unbiased={rows[-1].raw_unbiased: .4f}  "
                f"S_plugin={rows[-1].raw_plugin: .4f}  oracle={oracle: .4f}"
            )

    if opts.shift_mode != "none":
        base = np.array([r.mitigated if mitigate_on else r.raw for r in rows])
        aligned, _offset = shift_align(base, opts.shift_mode)
        for r, v in zip(rows, aligned):
            r.mitigated = float(v)
            r.flags += ("shifted",)
    return rows


def _twist_series(spec, opts, states, initial_state, p_tot_true, shot_files):
    reference = gauge_reference(initial_state)
    twist_rows: list[TwistRow] = []
    berry_rows: list[BerryRow] = []

    for t_idx, (t, state) in enumerate(zip(spec.times, states)):
        z_exact = exact_twist(state, q=1, kind="spin").z
        exact_point = berry_phase(exact_twist(state, q=2, kind="particle"), reference)
        gamma_exact = exact_point.gamma
        exact_flags = () if exact_point.reliable else ("exact_unreliable",)

        if opts.exact_probabilities:
            twist_rows.append(TwistRow(t, z_exact, z_exact, z_exact))
            berry_rows.append(
                BerryRow(t, gamma_exact, gamma_exact, gamma_exact, exact_flags)
            )
            continue

        rng = child_generator(spec.seed, TWIST_STREAM, t_idx)
        keys, vals = _nonzero(_measure(state, spec, p_tot_true, rng))
        counts = dict(zip(keys.tolist(), vals.tolist()))  # the observables' input
        kept = postselect_half_filling(counts, spec.num_sites)

        flags: list[str] = list(exact_flags)
        z_raw_res = twist_order_parameter(counts, spec.num_sites, q=1)
        zn_raw_res = particle_twist_amplitude(counts, spec.num_sites, q=2)
        raw_point = berry_phase(zn_raw_res, reference)
        if not raw_point.reliable:
            flags.append("raw_unreliable")
        if kept:
            z_post = twist_order_parameter(kept, spec.num_sites, q=1).z
            post_point = berry_phase(
                particle_twist_amplitude(kept, spec.num_sites, q=2), reference
            )
            gamma_post = post_point.gamma
            if not post_point.reliable:
                flags.append("post_unreliable")
        else:
            z_post = complex(float("nan"), float("nan"))
            gamma_post = float("nan")
            flags.append("post_empty")

        twist_rows.append(TwistRow(t, z_raw_res.z, z_post, z_exact))
        berry_rows.append(
            BerryRow(t, raw_point.gamma, gamma_post, gamma_exact, tuple(flags))
        )
        if opts.save_shots:
            shot_files[f"twist_t{t_idx:04d}.txt"] = _shot_file(
                spec, 1, [(0, (keys, vals))]
            )
    return twist_rows, berry_rows


def _nonzero(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indices, counts) of the outcomes seen, indices ascending."""
    keys = np.flatnonzero(counts)
    return keys, counts[keys]


def _shot_file(spec, num_unitaries: int, rounds) -> str:
    """Shot-table text: a header, then "u bits count" per (u, ``_nonzero``) round."""
    lines = [
        f"# L={spec.num_sites} N_U={num_unitaries} "
        f"N_M={spec.num_shots} seed={spec.seed}\n"
    ]
    for u, (keys, vals) in rounds:
        lines += [
            f"{u} {index_to_bits(key, spec.num_sites)} {count}\n"
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


def _write_manifest(
    path: Path, config: ExperimentConfig, subset, layers_prep, layers_total, p_tot_true
) -> None:
    comments = [
        f"version = {__version__}",
        f"subsystem_qubits_0based = {','.join(str(q) for q in subset)}",
        f"layers_prep = {layers_prep}",
        f"layers_total = {layers_total}",
        f"p_tot_true = {_fmt(p_tot_true)}",
    ]
    path.write_text(
        "# sshquench run manifest: resolved configuration, re-runnable\n"
        + format_config(config)
        + "".join(f"# {line}\n" for line in comments)
    )


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
        u_str, bits, count = fields
        u = int(u_str)
        # rounds 1..N_U; a twist file holds the single identity round 0
        if not (1 <= u <= num_rounds or (u == 0 and num_rounds == 1)):
            raise ValueError(f"{path}:{lineno}: round {u} outside 1..N_U={num_rounds}")
        if u not in grouped:
            grouped[u] = np.zeros(1 << num_qubits, dtype=np.int64)
        if grouped[u][int(bits, 2)]:
            raise ValueError(f"{path}:{lineno}: repeated round {u} bitstring {bits}")
        grouped[u][int(bits, 2)] = int(count)
    if len(grouped) != num_rounds:
        raise ValueError(
            f"{path}:1: header N_U={num_rounds} but rounds {sorted(grouped)} found"
        )
    return [
        ShotTable(u, num_qubits, num_shots, counts)
        for u, counts in sorted(grouped.items())
    ]


def _read_csv_columns(path: Path) -> dict[str, list[str]]:
    with path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols: dict[str, list[str]] = {h: [] for h in header}
        for row in reader:
            for h, v in zip(header, row):
                cols[h].append(v)
    return cols


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
    directory. Raises FileNotFoundError when no known CSV is present.
    """
    out_dir = Path(out_dir)
    lines: list[str] = [f"comparison report for {out_dir}"]
    found = False

    entropy_path = out_dir / "entropy.csv"
    if entropy_path.exists():
        found = True
        cols = _read_csv_columns(entropy_path)
        oracle = np.array([float(x) for x in cols["oracle"]])
        for series in ("raw", "mitigated"):
            vals = np.array([float(x) for x in cols[series]])
            rms, peak, n = _series_stats(vals, oracle)
            lines.append(
                f"entropy {series}: rms={_fmt(rms)} max={_fmt(peak)} points={n}"
            )

    twist_path = out_dir / "twist.csv"
    if twist_path.exists():
        found = True
        cols = _read_csv_columns(twist_path)
        z_exact = np.array(
            [complex(float(a), float(b)) for a, b in zip(cols["re_exact"], cols["im_exact"])]
        )
        for series in ("raw", "post"):
            z = np.array(
                [
                    complex(float(a), float(b))
                    for a, b in zip(cols[f"re_{series}"], cols[f"im_{series}"])
                ]
            )
            rms, peak, n = _series_stats(z, z_exact)
            if n:
                lines.append(
                    f"twist {series}: rms={_fmt(rms)} max={_fmt(peak)} points={n}"
                )

    berry_path = out_dir / "berry.csv"
    if berry_path.exists():
        found = True
        cols = _read_csv_columns(berry_path)
        gamma_exact = np.array([float(x) for x in cols["gamma_exact"]])
        flags = [set(f.split(";")) if f else set() for f in cols["flags"]]
        bad = {
            "gamma_raw": ("raw_unreliable", "exact_unreliable"),
            "gamma_post": ("post_unreliable", "post_empty", "exact_unreliable"),
        }
        for series in ("gamma_raw", "gamma_post"):
            vals = np.array(
                [
                    float(x) if not (row & set(bad[series])) else float("nan")
                    for x, row in zip(cols[series], flags)
                ]
            )
            rms, peak, n = _series_stats(vals, gamma_exact, circular=True)
            lines.append(
                f"berry {series}: rms={_fmt(rms)} max={_fmt(peak)} "
                f"points={n} (unreliable rows excluded)"
            )

    if not found:
        raise FileNotFoundError(f"no entropy/twist/berry CSV found in {out_dir}")
    text = "\n".join(lines) + "\n"
    (out_dir / "summary.txt").write_text(text)
    return text
