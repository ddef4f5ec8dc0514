"""Config parsing, validation, formatting, and subsystem resolution."""
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshquench.config import (
    BOUNDARIES,
    ESTIMATORS,
    INITIALS,
    MITIGATE_MODES,
    QUANTITIES,
    SHIFT_MODES,
    ConfigError,
    ExperimentConfig,
    default_output_dir,
    format_config,
    parse_config_text,
    resolve_subsystem,
)
from sshquench.state import CapacityError
from test_golden import CONFIGS as GOLDEN_CONFIGS

MINIMAL = "L = 8\ninitial = neel\n"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


class TestParsing:
    def test_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.num_sites == 8
        assert cfg.boundary == "pbc"
        assert cfg.num_unitaries == 100
        assert cfg.num_shots == 4096
        assert cfg.p_layer == 0.0
        assert len(cfg.times) == 30
        assert cfg.times[0] == 0.0
        assert cfg.quantities == ("entropy",)
        assert cfg.estimator == "unbiased"
        assert cfg.threads == 1
        assert cfg.out_dir is None

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# leading comment\n\nL = 4 # inline\ninitial = singlet\n")
        assert cfg.num_sites == 4
        assert cfg.initial == "singlet"

    def test_explicit_times(self):
        cfg = parse_config_text(MINIMAL + "times = 0, 0.1, 0.25\n")
        assert cfg.times == (0.0, 0.1, 0.25)

    def test_linspace_grid(self):
        cfg = parse_config_text(MINIMAL + "t_max = 1.0\nt_points = 5\n")
        np.testing.assert_allclose(cfg.times, np.linspace(0, 1, 5))

    def test_times_exclusive_with_linspace(self):
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL + "times = 0,1\nt_max = 2\n")

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_config_text(MINIMAL + "times = 0, 0.2, 0.2\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="unknown key") as err:
            parse_config_text("L = 8\ninitial = neel\nbogus = 1\n")
        assert err.value.line == 3

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(MINIMAL + "L = 4\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="initial"):
            parse_config_text("L = 8\n")

    def test_odd_length_names_field_and_line(self):
        with pytest.raises(ConfigError, match="L must be even") as err:
            parse_config_text("L = 7\ninitial = neel\n")
        assert err.value.line == 1

    def test_capacity_violation_distinct_from_config_error(self):
        with pytest.raises(CapacityError):
            parse_config_text("L = 26\ninitial = neel\n")

    def test_bad_choice_values(self):
        for line in (
            "boundary = twisted",
            "initial = ferro",
            "estimator = magic",
            "quantities = entropy,everything",
            "shift_mode = up",
            "mitigate = maybe",
        ):
            key = line.split(" = ")[0]
            rest = "" if key == "initial" else "initial = neel\n"
            with pytest.raises(ConfigError, match=f"^{key} must be") as err:
                parse_config_text(f"L = 8\n{line}\n{rest}")
            assert err.value.line == 2, line

    def test_symmetric_bipartition_needs_multiple_of_four(self):
        with pytest.raises(ConfigError, match="divisible by 4"):
            parse_config_text("L = 6\ninitial = neel\n")
        # twist-only runs have no bipartition constraint
        cfg = parse_config_text("L = 6\ninitial = neel\nquantities = twist\n")
        assert cfg.num_sites == 6

    def test_noise_keys(self):
        cfg = parse_config_text(MINIMAL + "p_layer = 0.01\nreadout_flip = 0.02\n")
        assert cfg.p_layer == 0.01
        assert cfg.readout_flip == 0.02
        edges = parse_config_text(MINIMAL + "p_layer = 1\nreadout_flip = 0.5\n")
        assert (edges.p_layer, edges.readout_flip) == (1.0, 0.5)
        for line, message in (
            ("p_layer = 1.5", "p_layer must be in [0, 1], got 1.5"),
            ("p_layer = -0.1", "p_layer must be in [0, 1], got -0.1"),
            ("p_layer = nan", "p_layer must be in [0, 1], got nan"),
            ("readout_flip = 0.6", "readout_flip must be in [0, 0.5], got 0.6"),
            ("readout_flip = -0.01", "readout_flip must be in [0, 0.5], got -0.01"),
            ("readout_flip = nan", "readout_flip must be in [0, 0.5], got nan"),
        ):
            with pytest.raises(ConfigError) as err:
                parse_config_text(f"L = 8\n# noise\n{line}\ninitial = neel\n")
            assert str(err.value) == message
            assert err.value.line == 3, line

    def test_bad_subsystem_reports_line(self):
        with pytest.raises(ConfigError, match="1..8") as err:
            parse_config_text(MINIMAL + "subsystem = 0,1\n")
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "line", ["times = 0, nan", "times = 0, inf", "t_max = nan", "t_max = inf"]
    )
    def test_times_must_be_finite(self, line):
        with pytest.raises(ConfigError, match="finite") as err:
            parse_config_text(MINIMAL + line + "\n")
        assert err.value.line == 3

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0") as err:
            parse_config_text(MINIMAL + "seed = -3\n")
        assert err.value.line == 3
        assert parse_config_text(MINIMAL + "seed = 0\n").seed == 0

    def test_booleans(self):
        cfg = parse_config_text(MINIMAL + "save_shots = true\nexact_probabilities = false\n")
        assert cfg.save_shots is True
        assert cfg.exact_probabilities is False
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL + "save_shots = sometimes\n")


class TestSubsystem:
    def test_half(self):
        assert resolve_subsystem("half", 8) == (0, 1, 2, 3)

    def test_bulk(self):
        assert resolve_subsystem("bulk", 8) == (2, 3, 4, 5)

    def test_explicit_sites_are_one_based(self):
        assert resolve_subsystem("3,4,5,6", 8) == (2, 3, 4, 5)

    def test_bad_sites(self):
        with pytest.raises(ValueError):
            resolve_subsystem("0,1", 8)
        with pytest.raises(ValueError):
            resolve_subsystem("1,1", 8)
        with pytest.raises(ValueError):
            resolve_subsystem("nine", 8)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            resolve_subsystem(",".join(str(s) for s in range(1, 14)), 24)


class TestOverrides:
    def test_seed_threads_exact(self):
        overrides = {"seed": "777", "threads": "4", "exact_probabilities": "true"}
        new = parse_config_text(MINIMAL + "seed = 5\n", overrides)
        assert new.seed == 777
        assert new.threads == 4
        assert new.exact_probabilities is True
        # untouched fields survive
        assert new.num_sites == 8
        assert replace(new, seed=1234, threads=1, exact_probabilities=False) == (
            parse_config_text(MINIMAL)
        )

    def test_threads_bounded_at_64(self):
        # the bound itself is accepted on every route; only parsed, never run
        assert parse_config_text(MINIMAL + "threads = 64\n").threads == 64
        assert parse_config_text(MINIMAL, {"threads": "64"}).threads == 64
        assert replace(parse_config_text(MINIMAL), threads=64).threads == 64
        with pytest.raises(ConfigError, match="threads must be <= 64") as err:
            parse_config_text(MINIMAL + "threads = 65\n")
        assert err.value.line == 3

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0") as err:
            parse_config_text(MINIMAL, {"seed": "-7"})
        assert err.value.line is None

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"threads": "0"}, "threads must be >= 1"),
            ({"threads": "two"}, "threads must be an integer"),
            ({"exact_probabilities": "maybe"}, "exact_probabilities must be true or false"),
            ({"bogus": "1"}, "unknown key 'bogus'"),
            ({"seed": " "}, "seed has no value"),
            ({"times": "0, 0.5"}, "either an explicit 'times' list"),
            ({"threads": "65"}, "threads must be <= 64"),
        ],
    )
    def test_overrides_checked_like_lines(self, overrides, message):
        with pytest.raises(ConfigError, match=re.escape(message)) as err:
            parse_config_text(MINIMAL + "t_max = 1\n", overrides)
        assert err.value.line is None

    def test_output_root_resolution(self, monkeypatch):
        cfg = parse_config_text(MINIMAL)
        monkeypatch.delenv("SSHQUENCH_OUT", raising=False)
        assert default_output_dir("exp/alpha.conf", cfg) == Path("runs/alpha")
        monkeypatch.setenv("SSHQUENCH_OUT", "/data/results")
        assert default_output_dir("exp/alpha.conf", cfg) == Path("/data/results/alpha")
        cfg_out = parse_config_text(MINIMAL + "out = custom/place\n")
        assert default_output_dir("exp/alpha.conf", cfg_out) == Path("custom/place")

    def test_mitigation_mode_resolution(self):
        cfg = parse_config_text(MINIMAL + "p_layer = 0.01\n")
        assert cfg.mitigation_enabled()
        cfg2 = parse_config_text(MINIMAL)
        assert not cfg2.mitigation_enabled()
        cfg3 = parse_config_text(MINIMAL + "mitigate = on\n")
        assert cfg3.mitigation_enabled()
        cfg4 = parse_config_text(MINIMAL + "p_layer = 0.01\nmitigate = off\n")
        assert not cfg4.mitigation_enabled()


class TestCodeBuilt:
    """``dataclasses.replace`` is checked by the rules a parsed key passes."""

    NAN = float("nan")

    @pytest.mark.parametrize(
        "fields, overrides, key, message",
        [
            ({"boundary": "twisted"}, {"boundary": "twisted"}, "boundary",
             "boundary must be one of pbc, obc; got 'twisted'"),
            ({"initial": "ferro"}, {"initial": "ferro"}, "initial",
             "initial must be one of neel, singlet; got 'ferro'"),
            ({"estimator": "magic"}, {"estimator": "magic"}, "estimator",
             "estimator must be one of unbiased, plugin; got 'magic'"),
            ({"shift_mode": "up"}, {"shift_mode": "up"}, "shift_mode",
             "shift_mode must be one of none, zero_at_t0, valley_to_zero; got 'up'"),
            ({"mitigate": "maybe"}, {"mitigate": "maybe"}, "mitigate",
             "mitigate must be one of auto, on, off; got 'maybe'"),
            ({"num_unitaries": 0}, {"n_unitaries": "0"}, "n_unitaries",
             "n_unitaries must be >= 1"),
            ({"num_shots": 1}, {"n_shots": "1"}, "n_shots", "n_shots must be >= 2"),
            ({"seed": -1}, {"seed": "-1"}, "seed", "seed must be >= 0"),
            ({"threads": 0}, {"threads": "0"}, "threads", "threads must be >= 1"),
            ({"p_layer": 1.5}, {"p_layer": "1.5"}, "p_layer",
             "p_layer must be in [0, 1], got 1.5"),
            ({"p_layer": NAN}, {"p_layer": "nan"}, "p_layer",
             "p_layer must be in [0, 1], got nan"),
            ({"readout_flip": 0.6}, {"readout_flip": "0.6"}, "readout_flip",
             "readout_flip must be in [0, 0.5], got 0.6"),
            ({"readout_flip": NAN}, {"readout_flip": "nan"}, "readout_flip",
             "readout_flip must be in [0, 0.5], got nan"),
            ({"num_sites": 7}, {"L": "7"}, "L", "L must be even and >= 4, got 7"),
            ({"num_sites": 2}, {"L": "2"}, "L", "L must be even and >= 4, got 2"),
            ({"times": (0.3, 0.1)}, {"times": "0.3, 0.1"}, "times",
             "times must be strictly increasing"),
            ({"times": (-0.1, 0.2)}, {"times": "-0.1, 0.2"}, "times",
             "times must be nonnegative"),
            ({"times": (0.0, NAN)}, {"times": "0, nan"}, "times", "times must be finite"),
            ({"quantities": ("entropy", "entropy")}, {"quantities": "entropy, entropy"},
             "quantities", "duplicate quantity"),
            ({"quantities": ("entropy", "everything")}, {"quantities": "entropy,everything"},
             "quantities", "quantities must be from entropy, twist, berry; got 'everything'"),
            ({"subsystem": "0,1"}, {"subsystem": "0,1"}, "subsystem",
             "subsystem sites must lie in 1..8"),
            ({"num_sites": 6, "subsystem": "bulk"}, {"L": "6", "subsystem": "bulk"},
             "subsystem", "bulk subsystem needs L divisible by 4"),
            ({"num_sites": 6}, {"L": "6"}, "L",
             "symmetric-bipartition entropy needs L divisible by 4"),
            ({"threads": 65}, {"threads": "65"}, "threads", "threads must be <= 64"),
        ],
    )
    def test_replace_checked_like_parsing(self, fields, overrides, key, message):
        with pytest.raises(ConfigError) as parsed:
            parse_config_text(MINIMAL, overrides)
        with pytest.raises(ConfigError) as built:
            replace(parse_config_text(MINIMAL), **fields)
        assert str(built.value) == str(parsed.value) == message
        assert built.value.key == parsed.value.key == key
        assert built.value.line is None

    @pytest.mark.parametrize("key", ["save_shots", "exact_probabilities"])
    @pytest.mark.parametrize("value", ["no", "true", 0, 1, None])
    def test_replace_rejects_a_switch_that_is_not_a_bool(self, key, value):
        with pytest.raises(ConfigError) as built:
            replace(parse_config_text(MINIMAL), **{key: value})
        assert str(built.value) == f"{key} must be true or false, got {value!r}"
        assert built.value.key == key

    @pytest.mark.parametrize(
        "fields, key, message",
        [
            ({"times": "0, 0.5"}, "times", "times must be a tuple, got '0, 0.5'"),
            ({"times": (0.0, "0.5")}, "times", "times must be a number, got '0.5'"),
            ({"quantities": "twist"}, "quantities", "quantities must be a tuple, got 'twist'"),
            ({"num_shots": 64.0}, "n_shots", "n_shots must be an integer, got 64.0"),
            ({"threads": True}, "threads", "threads must be an integer, got True"),
            ({"p_layer": "0.1"}, "p_layer", "p_layer must be a number, got '0.1'"),
        ],
    )
    def test_replace_rejects_a_field_of_another_type(self, fields, key, message):
        with pytest.raises(ConfigError) as built:
            replace(parse_config_text(MINIMAL), **fields)
        assert str(built.value) == message
        assert built.value.key == key

    @pytest.mark.parametrize(
        "fields",
        [
            {"times": [0.0, 0.5]},
            {"times": (0, np.float64(0.5))},
            {"quantities": ["twist"]},
            {"num_sites": np.int64(12), "num_shots": np.int32(64), "seed": np.uint64(3)},
            {"p_layer": 0, "readout_flip": np.float32(0.25)},
        ],
    )
    def test_replace_keeps_what_the_manifest_parses_back(self, fields):
        config = replace(parse_config_text(MINIMAL), **fields)
        again = parse_config_text(format_config(config))
        assert again == config
        for field in fields:
            assert type(getattr(config, field)) is type(getattr(again, field))

    def test_replace_past_the_cap(self):
        with pytest.raises(CapacityError) as parsed:
            parse_config_text(MINIMAL, {"L": "26"})
        with pytest.raises(CapacityError) as built:
            replace(parse_config_text(MINIMAL), num_sites=26)
        assert str(built.value) == str(parsed.value)


@st.composite
def configs(draw):
    """Valid configurations with full-precision floats and no ``out``."""
    finite = {"allow_nan": False, "allow_infinity": False}
    times = draw(st.lists(st.floats(0.0, 1e3, **finite), min_size=1, max_size=6, unique=True))
    return ExperimentConfig(
        num_sites=draw(st.sampled_from((4, 8, 12, 16))),
        boundary=draw(st.sampled_from(BOUNDARIES)),
        initial=draw(st.sampled_from(INITIALS)),
        times=tuple(sorted(times)),
        quantities=tuple(draw(st.lists(st.sampled_from(QUANTITIES), min_size=1, unique=True))),
        subsystem=draw(st.sampled_from(("half", "bulk", "1", "2,3", "4,1"))),
        num_unitaries=draw(st.integers(1, 10**6)),
        num_shots=draw(st.integers(2, 10**9)),
        estimator=draw(st.sampled_from(ESTIMATORS)),
        p_layer=draw(st.floats(0.0, 1.0)),
        readout_flip=draw(st.floats(0.0, 0.5)),
        seed=draw(st.integers(0, 2**64)),
        shift_mode=draw(st.sampled_from(SHIFT_MODES)),
        mitigate=draw(st.sampled_from(MITIGATE_MODES)),
        save_shots=draw(st.booleans()),
        threads=draw(st.integers(1, 64)),
        exact_probabilities=draw(st.booleans()),
    )


class TestFormat:
    @settings(max_examples=300, deadline=None)
    @given(configs())
    def test_round_trip(self, config):
        assert parse_config_text(format_config(config)) == config

    @pytest.mark.parametrize(
        "text",
        [pytest.param(p.read_text(), id=p.name) for p in sorted(SCRIPTS.glob("*.conf"))]
        + [pytest.param(text, id=name) for name, text in sorted(GOLDEN_CONFIGS.items())],
    )
    def test_shipped_configs_round_trip(self, text):
        config = parse_config_text(text)
        without_out = replace(config, out_dir=None)
        assert parse_config_text(format_config(config)) == without_out
