"""Experiment configuration: one flat dataclass and the plain-text config format.

A config file is line-oriented ``key = value`` text; ``#`` starts a comment,
blank lines are skipped, unknown or duplicate keys are errors. The full key
schema is documented in the package README. Semantic validation failures
carry the line number of the offending key so the CLI can print
``file:line: message``; overrides passed beside the text are checked by the
same rules and carry no line. ``format_config`` is the parser's inverse.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .state import MAX_DENSE_SUBSET, MAX_QUBITS, CapacityError

QUANTITIES = ("entropy", "twist", "berry")
BOUNDARIES = ("pbc", "obc")
INITIALS = ("neel", "singlet")
ESTIMATORS = ("unbiased", "plugin")
SHIFT_MODES = ("none", "zero_at_t0", "valley_to_zero")
MITIGATE_MODES = ("auto", "on", "off")

OUTPUT_ROOT_ENV = "SSHQUENCH_OUT"


class ConfigError(ValueError):
    """Invalid configuration; carries the source line when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings, a field per config key.

    ``t_max`` and ``t_points`` resolve to ``times``; ``out`` sets ``out_dir``.
    """

    num_sites: int
    boundary: str
    initial: str
    times: tuple[float, ...]
    quantities: tuple[str, ...]
    subsystem: str
    num_unitaries: int
    num_shots: int
    estimator: str
    p_layer: float
    readout_flip: float
    seed: int
    shift_mode: str
    mitigate: str
    save_shots: bool
    threads: int
    exact_probabilities: bool
    out_dir: str | None = None

    def mitigation_enabled(self) -> bool:
        if self.mitigate == "auto":
            return self.p_layer > 0.0
        return self.mitigate == "on"


_Entries = dict[str, tuple[str, int | None]]  # key: (value text, line or None)

# Every key of the format, in the order format_config writes them: its
# default text (None: required, or unset unless given) and the config field
# it sets (None: not written back; t_max and t_points are written as times,
# and an out key would make a re-run write over the run it came from).
_KEYS = {
    "L": (None, "num_sites"),
    "boundary": ("pbc", "boundary"),
    "initial": (None, "initial"),
    "times": (None, "times"),
    "t_max": ("0.7853981633974483", None),
    "t_points": ("30", None),
    "quantities": ("entropy", "quantities"),
    "subsystem": ("half", "subsystem"),
    "n_unitaries": ("100", "num_unitaries"),
    "n_shots": ("4096", "num_shots"),
    "estimator": ("unbiased", "estimator"),
    "p_layer": ("0", "p_layer"),
    "readout_flip": ("0", "readout_flip"),
    "seed": ("1234", "seed"),
    "shift_mode": ("none", "shift_mode"),
    "mitigate": ("auto", "mitigate"),
    "save_shots": ("false", "save_shots"),
    "threads": ("1", "threads"),
    "exact_probabilities": ("false", "exact_probabilities"),
    "out": (None, None),
}

_REQUIRED_KEYS = ("L", "initial")

_CHOICES = {
    "boundary": BOUNDARIES,
    "initial": INITIALS,
    "estimator": ESTIMATORS,
    "shift_mode": SHIFT_MODES,
    "mitigate": MITIGATE_MODES,
}

# lower bounds of the integer keys other than L
_MINIMA = {"t_points": 1, "n_unitaries": 1, "n_shots": 2, "seed": 0, "threads": 1}

# closed ranges of the probability keys
_RANGES = {"p_layer": (0.0, 1.0), "readout_flip": (0.0, 0.5)}


def _parse_bool(raw: str, line: int | None, key: str) -> bool:
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key} must be true or false, got {raw!r}", line)


def _parse_number(kind, raw: str, line: int | None, key: str) -> int | float:
    """``kind(raw)`` for ``kind`` int or float."""
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {raw!r}", line) from None


def _entry(key: str, value: str, line: int | None) -> tuple[str, int | None]:
    if key not in _KEYS:
        raise ConfigError(f"unknown key {key!r}", line)
    if not value:
        raise ConfigError(f"{key} has no value", line)
    return value, line


def parse_config_text(
    text: str, overrides: dict[str, str] | None = None
) -> ExperimentConfig:
    """Config of ``text``, with ``overrides`` (key: value text) replacing its lines."""
    entries: _Entries = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        content = rawline.split("#", 1)[0].strip()
        if not content:
            continue
        if "=" not in content:
            raise ConfigError(f"expected 'key = value', got {content!r}", lineno)
        key, value = (part.strip() for part in content.split("=", 1))
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        entries[key] = _entry(key, value, lineno)
    for key, value in (overrides or {}).items():
        entries[key] = _entry(key, value.strip(), None)
    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ConfigError(f"missing required key {key!r}")
    if "times" in entries and ("t_max" in entries or "t_points" in entries):
        raise ConfigError(
            "give either an explicit 'times' list or 't_max'/'t_points', not both",
            entries["times"][1],
        )
    defaults = {key: (d, None) for key, (d, _field) in _KEYS.items() if d is not None}
    return _build_config({**defaults, **entries})


def parse_config(
    path: str | Path, overrides: dict[str, str] | None = None
) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config_text(text, overrides)


def _value_text(value) -> str:
    """Text of one field value; floats by repr, so they parse back exactly."""
    if isinstance(value, tuple):
        return ",".join(_value_text(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def format_config(config: ExperimentConfig) -> str:
    """Config text that parses back to exactly ``config``, ``out`` aside."""
    return "".join(
        f"{key} = {_value_text(getattr(config, field))}\n"
        for key, (_default, field) in _KEYS.items()
        if field is not None
    )


def _build_times(entries: _Entries, t_points: int) -> tuple[float, ...]:
    if "times" in entries:
        raw, line = entries["times"]
        try:
            times = tuple(float(x) for x in raw.split(","))
        except ValueError:
            raise ConfigError("times must be comma-separated numbers", line) from None
        if not all(np.isfinite(times)):
            raise ConfigError("times must be finite", line)
    else:
        line = entries["t_max"][1]
        t_max = _parse_number(float, *entries["t_max"], "t_max")
        if not 0.0 < t_max < np.inf:
            raise ConfigError("t_max must be positive and finite", line)
        times = tuple(float(t) for t in np.linspace(0.0, t_max, t_points))
    if any(t < 0 for t in times):
        raise ConfigError("times must be nonnegative", line)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("times must be strictly increasing", line)
    return times


def _build_config(entries: _Entries) -> ExperimentConfig:
    """Typed, validated config from raw (text, line) entries, defaults included."""
    l_line = entries["L"][1]
    num_sites = _parse_number(int, *entries["L"], "L")
    if num_sites > MAX_QUBITS:
        raise CapacityError(
            f"L = {num_sites} exceeds the dense statevector cap of {MAX_QUBITS}"
        )
    if num_sites < 4 or num_sites % 2:
        raise ConfigError(f"L must be even and >= 4, got {num_sites}", l_line)

    for key, choices in _CHOICES.items():
        raw, line = entries[key]
        if raw not in choices:
            raise ConfigError(
                f"{key} must be one of {', '.join(choices)}; got {raw!r}", line
            )
    ints: dict[str, int] = {}
    for key, low in _MINIMA.items():
        ints[key] = _parse_number(int, *entries[key], key)
        if ints[key] < low:
            raise ConfigError(f"{key} must be >= {low}", entries[key][1])

    times = _build_times(entries, ints["t_points"])

    floats: dict[str, float] = {}
    for key, (low, high) in _RANGES.items():
        floats[key] = _parse_number(float, *entries[key], key)
        if not low <= floats[key] <= high:
            raise ConfigError(
                f"{key} must be in [{low:g}, {high:g}], got {floats[key]}",
                entries[key][1],
            )

    raw, line = entries["quantities"]
    quantities = tuple(q.strip() for q in raw.split(","))
    for q in quantities:
        if q not in QUANTITIES:
            raise ConfigError(
                f"quantities must be from {', '.join(QUANTITIES)}; got {q!r}", line
            )
    if len(set(quantities)) != len(quantities):
        raise ConfigError("duplicate quantity", line)

    raw, line = entries["subsystem"]
    subsystem = raw.replace(" ", "")
    resolve_subsystem(subsystem, num_sites, line)
    if "entropy" in quantities and subsystem in ("half", "bulk") and num_sites % 4:
        raise ConfigError(
            "symmetric-bipartition entropy needs L divisible by 4", l_line
        )

    return ExperimentConfig(
        num_sites=num_sites,
        boundary=entries["boundary"][0],
        initial=entries["initial"][0],
        times=times,
        quantities=quantities,
        subsystem=subsystem,
        num_unitaries=ints["n_unitaries"],
        num_shots=ints["n_shots"],
        estimator=entries["estimator"][0],
        p_layer=floats["p_layer"],
        readout_flip=floats["readout_flip"],
        seed=ints["seed"],
        shift_mode=entries["shift_mode"][0],
        mitigate=entries["mitigate"][0],
        save_shots=_parse_bool(*entries["save_shots"], "save_shots"),
        threads=ints["threads"],
        exact_probabilities=_parse_bool(
            *entries["exact_probabilities"], "exact_probabilities"
        ),
        out_dir=entries["out"][0] if "out" in entries else None,
    )


def resolve_subsystem(
    subsystem: str, num_sites: int, line: int | None = None
) -> tuple[int, ...]:
    """0-based qubit indices of a subsystem description.

    ``half`` is the first L/2 sites, ``bulk`` the central L/2 sites, and an
    explicit comma list gives 1-based site numbers. A bad description raises
    ``ConfigError`` at ``line``.
    """
    if subsystem == "half":
        qubits = tuple(range(num_sites // 2))
    elif subsystem == "bulk":
        if num_sites % 4:
            raise ConfigError("bulk subsystem needs L divisible by 4", line)
        qubits = tuple(range(num_sites // 4, 3 * num_sites // 4))
    else:
        try:
            sites = sorted(int(x) for x in subsystem.split(","))
        except ValueError:
            raise ConfigError(
                f"subsystem must be 'half', 'bulk', or 1-based sites, got {subsystem!r}",
                line,
            ) from None
        if not sites or len(set(sites)) != len(sites):
            raise ConfigError(
                "subsystem site list must be nonempty without duplicates", line
            )
        if sites[0] < 1 or sites[-1] > num_sites:
            raise ConfigError(f"subsystem sites must lie in 1..{num_sites}", line)
        qubits = tuple(s - 1 for s in sites)
    if len(qubits) > MAX_DENSE_SUBSET:
        raise CapacityError(
            f"subsystem of {len(qubits)} qubits exceeds the dense cap of "
            f"{MAX_DENSE_SUBSET}"
        )
    return qubits


def default_output_dir(config_path: str | Path, config: ExperimentConfig) -> Path:
    if config.out_dir:
        return Path(config.out_dir)
    root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
    return Path(root) / Path(config_path).stem
