"""Experiment configuration: one flat dataclass and the plain-text config format.

``ExperimentConfig`` checks its own fields on construction against one key
table, ``_KEYS``, so a config built in code or by ``dataclasses.replace``
passes the same rules as a parsed one. A config file is line-oriented
``key = value`` text; ``#`` starts a comment, blank lines are skipped,
unknown or duplicate keys are errors. The full key schema is documented in
the package README. Every ``ConfigError`` about a key names it in ``.key``;
the parser adds the key's ``.line`` when the key came from the text, so the
CLI can print ``file:line: message``. Overrides passed beside the text are
checked by the same rules and carry no line. ``format_config`` is the
parser's inverse.
"""
from __future__ import annotations

import math
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
    """Invalid configuration; carries the key it concerns and, when parsed, its line."""

    def __init__(self, message: str, line: int | None = None, *, key: str | None = None):
        super().__init__(message)
        self.line = line
        self.key = key


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings, a field per config key, checked on construction.

    ``t_max`` and ``t_points`` resolve to ``times``; ``out`` sets ``out_dir``.
    A config built in code, or by ``dataclasses.replace``, passes the same
    rules as a parsed one and raises the same ``ConfigError``.
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

    def __post_init__(self):
        if _typed("L", self.num_sites) > MAX_QUBITS:
            raise CapacityError(
                f"L = {self.num_sites} exceeds the dense statevector cap of {MAX_QUBITS}"
            )
        if self.num_sites < 4 or self.num_sites % 2:
            raise ConfigError(f"L must be even and >= 4, got {self.num_sites}", key="L")
        for key, (_default, field, rule) in _KEYS.items():
            if field is not None:
                object.__setattr__(self, field, _typed(key, getattr(self, field)))
                if isinstance(rule, tuple):
                    _check(key, getattr(self, field))

        times = self.times
        if not times:
            raise ConfigError("times must hold at least one time", key="times")
        if not all(np.isfinite(times)):
            raise ConfigError("times must be finite", key="times")
        if any(t < 0 for t in times):
            raise ConfigError("times must be nonnegative", key="times")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("times must be strictly increasing", key="times")

        if not self.quantities:
            raise ConfigError("quantities must name at least one quantity", key="quantities")
        for q in self.quantities:
            if q not in QUANTITIES:
                raise ConfigError(
                    f"quantities must be from {', '.join(QUANTITIES)}; got {q!r}",
                    key="quantities",
                )
        if len(set(self.quantities)) != len(self.quantities):
            raise ConfigError("duplicate quantity", key="quantities")

        resolve_subsystem(self.subsystem, self.num_sites)
        # bulk at L % 4 != 0 is refused by resolve_subsystem above
        if "entropy" in self.quantities and self.subsystem == "half" and self.num_sites % 4:
            raise ConfigError(
                "symmetric-bipartition entropy needs L divisible by 4", key="L"
            )

    def mitigation_enabled(self) -> bool:
        if self.mitigate == "auto":
            return self.p_layer > 0.0
        return self.mitigate == "on"


# Every key of the format, in the order format_config writes them: its
# default text (None: required, or unset unless given), the field it sets
# (None: not written back; t_max and t_points are written as times, and an
# out key would make a re-run write over the run it came from) and its rule:
# the allowed words, or the (low, high) bounds of a number read as the type
# of low. Other keys have the type read, tuple for a list, or None for text.
_KEYS = {
    "L": (None, "num_sites", int),
    "boundary": ("pbc", "boundary", BOUNDARIES),
    "initial": (None, "initial", INITIALS),
    "times": (None, "times", tuple),
    "t_max": ("0.7853981633974483", None, float),
    "t_points": ("30", None, (1, math.inf)),
    "quantities": ("entropy", "quantities", tuple),
    "subsystem": ("half", "subsystem", None),
    "n_unitaries": ("100", "num_unitaries", (1, math.inf)),
    "n_shots": ("4096", "num_shots", (2, math.inf)),
    "estimator": ("unbiased", "estimator", ESTIMATORS),
    "p_layer": ("0", "p_layer", (0.0, 1.0)),
    "readout_flip": ("0", "readout_flip", (0.0, 0.5)),
    "seed": ("1234", "seed", (0, math.inf)),
    "shift_mode": ("none", "shift_mode", SHIFT_MODES),
    "mitigate": ("auto", "mitigate", MITIGATE_MODES),
    "save_shots": ("false", "save_shots", bool),
    "threads": ("1", "threads", (1, 64)),  # _parallel_map keeps 2x this many in flight
    "exact_probabilities": ("false", "exact_probabilities", bool),
    "out": (None, None, None),
}

_REQUIRED_KEYS = ("L", "initial")


def _check(key: str, value) -> None:
    """Raise ``ConfigError`` unless ``value`` keeps the rule of ``key``."""
    rule = _KEYS[key][2]
    if isinstance(rule[0], str):
        if value not in rule:
            raise ConfigError(
                f"{key} must be one of {', '.join(rule)}; got {value!r}", key=key
            )
        return
    low, high = rule
    if not low <= value <= high:
        if isinstance(low, int):  # an integer key names the bound it crosses
            bound = f">= {low}" if value < low else f"<= {high}"
            raise ConfigError(f"{key} must be {bound}", key=key)
        raise ConfigError(f"{key} must be in [{low:g}, {high:g}], got {value}", key=key)


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
# the types a field of each kind may hold, and what its text must read as
_KINDS = {bool: (bool, "true or false"), int: ((int, np.integer), "an integer"),
          float: ((int, float, np.integer, np.floating), "a number")}


def _kind(key: str):
    """What a key's text is read as: bool, int, float, tuple, or str or None for text."""
    rule = _KEYS[key][2]
    return type(rule[0]) if isinstance(rule, tuple) else rule


def _read(key: str, raw: str):
    """Typed value of one key's text: a bool or number where its rule says so."""
    kind = _kind(key)
    try:
        if kind is bool:
            return _BOOL_WORDS[raw.lower()]
        return kind(raw) if kind in _KINDS else raw
    except (KeyError, ValueError):
        raise ConfigError(f"{key} must be {_KINDS[kind][1]}, got {raw!r}", key=key) from None


def _typed(key: str, value, kind=None):
    """``value`` as its key's kind, so that it survives ``format_config`` and the
    parser unchanged: a sequence as a tuple, a number as a Python scalar."""
    kind = kind or _kind(key)
    if kind is tuple:
        if not isinstance(value, (tuple, list)):
            raise ConfigError(f"{key} must be a tuple, got {value!r}", key=key)
        return tuple(_typed(key, v, float) if key == "times" else v for v in value)
    if kind not in _KINDS:
        return value
    types, noun = _KINDS[kind]
    if not isinstance(value, types) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{key} must be {noun}, got {value!r}", key=key)
    return kind(value)


def parse_config_text(
    text: str, overrides: dict[str, str] | None = None
) -> ExperimentConfig:
    """Config of ``text``, with ``overrides`` (key: value text) replacing its lines.

    A ``ConfigError`` about a key read from ``text`` carries that key's line.
    """
    given: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        content = rawline.split("#", 1)[0].strip()
        if not content:
            continue
        if "=" not in content:
            raise ConfigError(f"expected 'key = value', got {content!r}", lineno)
        key, value = (part.strip() for part in content.split("=", 1))
        if key in lines:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        given[key], lines[key] = value, lineno
    for key, value in (overrides or {}).items():
        given[key] = value.strip()
        lines.pop(key, None)
    try:
        return ExperimentConfig(**_fields(given))
    except ConfigError as exc:
        if exc.line is None:
            exc.line = lines.get(exc.key)
        raise


def _fields(given: dict[str, str]) -> dict:
    """``ExperimentConfig`` keyword arguments of the given key texts."""
    for key, value in given.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", key=key)
        if not value:
            raise ConfigError(f"{key} has no value", key=key)
    for key in _REQUIRED_KEYS:
        if key not in given:
            raise ConfigError(f"missing required key {key!r}")
    if "times" in given and ("t_max" in given or "t_points" in given):
        raise ConfigError(
            "give either an explicit 'times' list or 't_max'/'t_points', not both",
            key="times",
        )
    defaults = {key: d for key, (d, _field, _rule) in _KEYS.items() if d is not None}
    values = {key: _read(key, raw) for key, raw in {**defaults, **given}.items()}
    if "times" not in given:
        if not 0.0 < values["t_max"] < np.inf:
            raise ConfigError("t_max must be positive and finite", key="t_max")
        _check("t_points", values["t_points"])
        grid = np.linspace(0.0, values["t_max"], values["t_points"])
        values["times"] = tuple(float(t) for t in grid)
    else:
        try:
            values["times"] = tuple(float(x) for x in values["times"].split(","))
        except ValueError:
            raise ConfigError(
                "times must be comma-separated numbers", key="times"
            ) from None
    values["quantities"] = tuple(q.strip() for q in values["quantities"].split(","))
    values["subsystem"] = values["subsystem"].replace(" ", "")
    fields = {
        field: values[key]
        for key, (_default, field, _rule) in _KEYS.items()
        if field is not None
    }
    return {**fields, "out_dir": values.get("out")}


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
        for key, (_default, field, _rule) in _KEYS.items()
        if field is not None
    )


def resolve_subsystem(subsystem: str, num_sites: int) -> tuple[int, ...]:
    """0-based qubit indices of a subsystem description.

    ``half`` is the first L/2 sites, ``bulk`` the central L/2 sites, and an
    explicit comma list gives 1-based site numbers. A bad description raises
    ``ConfigError`` for the ``subsystem`` key.
    """
    if subsystem == "half":
        qubits = tuple(range(num_sites // 2))
    elif subsystem == "bulk":
        if num_sites % 4:
            raise ConfigError("bulk subsystem needs L divisible by 4", key="subsystem")
        qubits = tuple(range(num_sites // 4, 3 * num_sites // 4))
    else:
        try:
            sites = sorted(int(x) for x in subsystem.split(","))
        except ValueError:
            raise ConfigError(
                f"subsystem must be 'half', 'bulk', or 1-based sites, got {subsystem!r}",
                key="subsystem",
            ) from None
        if not sites or len(set(sites)) != len(sites):
            raise ConfigError(
                "subsystem site list must be nonempty without duplicates",
                key="subsystem",
            )
        if sites[0] < 1 or sites[-1] > num_sites:
            raise ConfigError(
                f"subsystem sites must lie in 1..{num_sites}", key="subsystem"
            )
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
