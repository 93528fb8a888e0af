"""Config parsing, validation, defaults, hashing."""

import json
import math
import re
from pathlib import Path

import pytest

import franson as fr
from franson.config import ScanConfig, config_from_dict, default_config
from franson.correlator import CorrelatorConfig
from franson.detection import DetectorModel
from franson.errors import ConfigError
from franson.interferometer import UmziConfig, default_overlap
from franson.source import SpectralModel

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_minimal_config_uses_defaults_and_flags_the_regime():
    cfg = fr.parse_config("{}")
    assert cfg.source.delta == 1e12
    assert cfg.umzi_a.t_sl == 100e-12
    assert cfg.flags["A"]["incoherent_ensemble"]
    assert cfg.flags["B"]["incoherent_ensemble"]
    assert cfg.warnings == ()


def test_gamma_defaults_to_the_coherence_overlap():
    cfg = fr.parse_config("{}")
    expected = math.exp(-((100e-12 / 10e-9) ** 2) * math.log(2))
    assert cfg.umzi_a.gamma == pytest.approx(expected, rel=1e-12)
    override = fr.parse_config('{"umzi_a": {"gamma": 0.5}}')
    assert override.umzi_a.gamma == 0.5


def test_zero_delta_is_a_validation_error():
    with pytest.raises(ConfigError, match="delta must be > 0"):
        fr.parse_config('{"source": {"delta": 0.0}}')


def test_unknown_keys_are_rejected_by_name():
    with pytest.raises(ConfigError, match="source.bandwidth"):
        fr.parse_config('{"source": {"bandwidth": 1e12}}')
    with pytest.raises(ConfigError, match="turbo"):
        fr.parse_config('{"turbo": true}')


def test_parse_errors_carry_line_and_column():
    with pytest.raises(ConfigError, match=r"line 2, column"):
        fr.parse_config('{\n  "seed": ,\n}')


def test_unsatisfied_critical_condition_becomes_a_warning():
    cfg = fr.parse_config('{"source": {"delta": 1e10}}')  # delta * t_sl = 1
    assert any("critical UMZI condition" in w for w in cfg.warnings)


def test_mismatched_delays_warn():
    cfg = fr.parse_config('{"umzi_b": {"t_sl": 90e-12}}')
    assert any("delays differ" in w for w in cfg.warnings)


def test_seed_must_be_a_non_negative_integer():
    with pytest.raises(ConfigError, match="seed"):
        fr.parse_config('{"seed": -1}')
    with pytest.raises(ConfigError, match="seed"):
        fr.parse_config('{"seed": 1.5}')
    with pytest.raises(ConfigError, match="seed"):
        fr.parse_config('{"seed": true}')
    with pytest.raises(ConfigError, match="seed"):
        fr.parse_config('{"seed": %d}' % 2**128)  # wider than the stream key's entropy
    assert fr.parse_config('{"seed": %d}' % (2**128 - 1)).seed == 2**128 - 1


@pytest.mark.parametrize(
    "text, where",
    [
        ('{"scan": {"n_points": 8.5}}', "scan.n_points must be an integer"),
        ('{"scan": {"pairs_per_point": 1000.0}}', "scan.pairs_per_point must be an integer"),
        ('{"scan": {"n_points": true}}', "scan.n_points must be an integer"),
        ('{"scan": {"n_points": null}}', "scan.n_points must be an integer"),
        ('{"source": {"delta": true}}', "source.delta must be a number"),
        ('{"source": {"delta": "1e12"}}', "source.delta must be a number"),
        ('{"detector": {"efficiency": false}}', "detector.efficiency must be a number"),
        ('{"umzi_b": {"gamma": "1"}}', "umzi_b.gamma must be a number"),
        ('{"correlator": {"window": [1e-11]}}', "correlator.window must be a number"),
        ('{"scan": {"chsh_settings": "abcd"}}', "scan.chsh_settings must be a list"),
        ('{"scan": {"chsh_settings": [0, 1, 2, "3"]}}', "scan.chsh_settings must be a number"),
    ],
)
def test_values_must_have_their_field_type(text, where):
    with pytest.raises(ConfigError, match=where):
        fr.parse_config(text)


@pytest.mark.parametrize(
    "text, where",
    [
        ('{"detector": {"jitter": NaN}}', "detector.jitter must be finite, got nan"),
        ('{"detector": {"jitter": Infinity}}', "detector.jitter must be finite, got inf"),
        ('{"source": {"delta": -Infinity}}', "source.delta must be finite, got -inf"),
        ('{"umzi_a": {"t_sl": 1e400}}', "umzi_a.t_sl must be finite, got inf"),
        ('{"correlator": {"window": NaN}}', "correlator.window must be finite"),
        ('{"scan": {"chsh_settings": [0, 1, NaN, 3]}}', "scan.chsh_settings must be finite"),
    ],
)
def test_non_finite_numbers_are_rejected_by_key(text, where):
    with pytest.raises(ConfigError, match=where):
        fr.parse_config(text)


@pytest.mark.parametrize(
    "section, where",
    [
        ({"window": 1e-13}, "window must be at least 1 ps, got 1e-13"),
        ({"bin_width": 4e-13}, "bin_width must be at least 1 ps, got 4e-13"),
        ({"tau_max": 1e300}, "tau_max must be below 2**63 ps, got 1e+300"),
        ({"window": 1e7}, "window must be below 2**63 ps, got 10000000.0"),
    ],
)
def test_correlator_times_must_fit_the_picosecond_grid(section, where):
    # rounded to whole picoseconds in int64: a window of 0 ps counts nothing,
    # and a time past 2**63 ps wraps
    with pytest.raises(ConfigError, match=re.escape(where)):
        config_from_dict({"correlator": section})


def test_integers_are_numbers_and_gamma_may_be_null():
    cfg = fr.parse_config(
        '{"source": {"pair_rate": 1000000}, "umzi_a": {"gamma": null},'
        ' "scan": {"chsh_settings": [0, 1, 2, 3]}}'
    )
    assert cfg.source.pair_rate == 1e6
    assert cfg.umzi_a.gamma == default_overlap(cfg.umzi_a.t_sl, cfg.source.tau_ind)


def test_schema_version_is_checked():
    with pytest.raises(ConfigError, match="schema_version"):
        fr.parse_config('{"schema_version": "99"}')


def test_round_trip_is_lossless():
    cfg = fr.parse_config(
        '{"seed": 7, "source": {"delta": 2.5e11, "pump_linewidth": 3e9},'
        ' "umzi_a": {"t_sl": 120e-12, "phase": 0.25}, "detector": {"efficiency": 0.7}}'
    )
    again = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    assert fr.config_hash(again) == fr.config_hash(cfg)


def test_config_hash_ignores_seed_but_not_physics():
    base = fr.parse_config("{}")
    reseeded = fr.parse_config('{"seed": 99}')
    assert fr.config_hash(base) == fr.config_hash(reseeded)
    detuned = fr.parse_config('{"source": {"delta": 2e12}}')
    assert fr.config_hash(base) != fr.config_hash(detuned)


def test_correlator_side_offset_follows_the_interferometer_delay():
    cfg = fr.parse_config('{"umzi_a": {"t_sl": 80e-12}, "umzi_b": {"t_sl": 80e-12}}')
    assert cfg.correlator.side_offset_a == cfg.correlator.side_offset_b == 80e-12


def test_default_config_matches_defaults_table():
    cfg = default_config()
    gamma = default_overlap(UmziConfig().t_sl, SpectralModel().tau_ind)
    # every section equals its dataclass built with only the derived fields
    expected = {
        "source": SpectralModel(),
        "umzi_a": UmziConfig(gamma=gamma),
        "umzi_b": UmziConfig(gamma=gamma),
        "detector": DetectorModel(),
        "correlator": CorrelatorConfig(side_offset_a=UmziConfig().t_sl, side_offset_b=UmziConfig().t_sl),
        "scan": ScanConfig(),
    }
    assert set(expected) == set(cfg.to_dict()) - {"schema_version", "seed"}
    for section, want in expected.items():
        assert getattr(cfg, section) == want, section
    assert cfg.detector.jitter == 2e-12
    assert cfg.scan.pairs_per_point == 100_000


def test_config_hash_is_pinned():
    # the hash goes into every data product; a schema refactor must not move it
    assert fr.config_hash(default_config()) == "70539f8cd119411e"
    assert fr.config_hash(fr.load_config(CONFIGS / "ideal.json")) == "e96dabc0dc7dbc0e"
    assert fr.config_hash(fr.load_config(CONFIGS / "pump_jitter.json")) == "0d89f261748afdf4"


def test_scan_validation():
    # the runners take their scan sizes from here, so these are their only check
    with pytest.raises(ConfigError, match="n_points"):
        fr.parse_config('{"scan": {"n_points": 4}}')
    with pytest.raises(ConfigError, match="scan.n_points must be >= 8, got 7"):
        fr.parse_config('{"scan": {"n_points": 7}}')
    with pytest.raises(ConfigError, match="scan.pairs_per_point must be >= 1, got 0"):
        fr.parse_config('{"scan": {"pairs_per_point": 0}}')
    with pytest.raises(ConfigError, match="chsh_settings"):
        fr.parse_config('{"scan": {"chsh_settings": [0.0, 1.0]}}')
