"""Config parsing, validation, defaults, hashing."""

import itertools
import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import franson as fr
from franson.config import SECTIONS, config_from_dict, default_config
from franson.errors import ConfigError
from franson.interferometer import default_overlap

from conftest import simulate_point

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
README = CONFIGS.parent / "README.md"
IDEAL = fr.load_config(CONFIGS / "ideal.json")


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


def test_an_integer_past_the_digit_limit_is_a_config_error(tmp_path):
    text = '{"source": {"pair_rate": 1' + "0" * 4999 + "}}"
    with pytest.raises(ConfigError, match="config parse error|source.pair_rate"):
        fr.parse_config(text)
    path = tmp_path / "huge.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
        fr.load_config(path)


def test_unsatisfied_critical_condition_becomes_a_warning():
    cfg = fr.parse_config('{"source": {"delta": 1e10}}')  # delta * t_sl = 1
    assert any("critical UMZI condition" in w for w in cfg.warnings)


def test_mismatched_delays_warn():
    cfg = fr.parse_config('{"umzi_b": {"t_sl": 90e-12}}')
    assert any("delays differ" in w for w in cfg.warnings)


@pytest.mark.parametrize(
    "section, key, value",
    [("umzi_b", "t_sl", 90e-12), ("source", "delta", 5e10)],  # unequal delays; delta * t_sl = 5
)
def test_a_replaced_config_reports_the_warnings_and_flags_of_its_sections(section, key, value):
    cfg = fr.load_config(CONFIGS / "ideal.json")
    cfg = replace(cfg, **{section: replace(getattr(cfg, section), **{key: value})})
    reparsed = fr.parse_config(json.dumps(cfg.to_dict()))
    assert cfg.warnings == reparsed.warnings != ()
    assert cfg.flags == reparsed.flags
    assert any("delays differ" in w for w in cfg.warnings) == (key == "t_sl")
    assert all(cfg.flags[party]["incoherent_ensemble"] for party in "AB") == (key == "t_sl")
    assert list(cfg.warnings) == fr.run_fringe_scan(cfg, "analytic").warnings


# tenths of a picosecond, so draws fall on both sides of each rounded bound
TENTHS_PS = st.integers(5, 3_000).map(lambda tenths: tenths * 1e-13)


@settings(max_examples=200, deadline=None)
@given(t_sl=st.tuples(TENTHS_PS, TENTHS_PS), window=TENTHS_PS, tau_max=TENTHS_PS)
# a delay past tau_max - 5 bins: the parser refuses it
@example(t_sl=(100e-12, 200e-12), window=10e-12, tau_max=200e-12)
# an SL peak at 140 ps, inside the default reach
@example(t_sl=(100e-12, 140e-12), window=10e-12, tau_max=200e-12)
# 129.4 ps is 129 ps, short of the 130 ps side window; 129.6 ps reaches it
@example(t_sl=(100e-12, 100e-12), window=30e-12, tau_max=129.4e-12)
@example(t_sl=(100e-12, 100e-12), window=30e-12, tau_max=129.6e-12)
# 2w = 100 ps reaches the nearer side peak: the windows overlap
@example(t_sl=(100e-12, 140e-12), window=50e-12, tau_max=200e-12)
def test_a_replaced_config_is_checked_and_warns_as_the_parser_does(t_sl, window, tau_max):
    # the side peaks sit at the delays: replacing a delay or the correlator
    # raises exactly when parsing the same dict does, with the same message
    edits = {
        "umzi_a": {"t_sl": t_sl[0]},
        "umzi_b": {"t_sl": t_sl[1]},
        "correlator": {"window": window, "tau_max": tau_max},
    }
    data = IDEAL.to_dict()
    for section, keys in edits.items():
        data[section] = {**data[section], **keys}

    def replaced():
        sections = {section: replace(getattr(IDEAL, section), **keys) for section, keys in edits.items()}
        return replace(IDEAL, **sections)

    try:
        config_from_dict(data)
    except ConfigError as refused:
        with pytest.raises(ValueError) as err:
            replaced()
        # the correlator's own check fails at its replace, unlocated; the reach is RunConfig's
        located = str(err.value) if err.type is ConfigError else f"correlator.{err.value}"
        assert located == str(refused)
        return
    cfg = replaced()
    reparsed = config_from_dict(cfg.to_dict())
    assert reparsed == cfg
    assert reparsed.warnings == cfg.warnings


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("umzi_b", "t_sl", -1e-10),
        ("source", "pair_rate", 0.0),
        ("detector", "efficiency", 0.0),
        ("correlator", "bin_width", 0.1e-12),
        ("scan", "n_points", 4),
    ],
)
def test_a_bad_section_fails_when_it_is_built_or_replaced(section, key, value):
    # a section checks itself, so building or replacing it fails at once with
    # the parser's text, less the section that only the parser knows
    data = IDEAL.to_dict()
    data[section] = {**data[section], key: value}
    with pytest.raises(ConfigError) as refused:
        config_from_dict(data)
    builds = (
        lambda: replace(getattr(IDEAL, section), **{key: value}),
        lambda: SECTIONS[section](**{key: value}),
    )
    for build in builds:
        with pytest.raises(ValueError) as err:
            build()
        message = str(err.value)
        located = message if message.startswith(f"{section}.") else f"{section}.{message}"
        assert located == str(refused.value)


def test_a_source_shorter_than_its_ensemble_coherence_fails_as_a_run_config():
    data = IDEAL.to_dict()
    data["source"] = {**data["source"], "tau_ind": 1e-13}
    with pytest.raises(ConfigError, match=r"^source\.tau_ind \* delta must be >= 1") as refused:
        config_from_dict(data)
    with pytest.raises(ConfigError) as err:
        replace(IDEAL, source=replace(IDEAL.source, tau_ind=1e-13))
    assert str(err.value) == str(refused.value)


def test_run_config_fields_are_its_sections_and_seed():
    cfg = fr.parse_config("{}")
    assert {f.name for f in fields(fr.RunConfig)} == {*SECTIONS, "seed"}
    with pytest.raises(TypeError):
        replace(cfg, warnings=())


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
        # integers that float() cannot hold
        ('{"umzi_a": {"t_sl": 1%s}}' % ("0" * 400), "umzi_a.t_sl must be finite, got 10{400}$"),
        ('{"source": {"pair_rate": 1%s}}' % ("0" * 400), "source.pair_rate must be finite"),
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
        ({"tau_max": 1e300}, "tau_max must be below 2**60 ps, got 1e+300"),
        ({"window": 1e7}, "window must be below 2**60 ps, got 10000000.0"),
        ({"window": 2e6}, "window must be below 2**60 ps, got 2000000.0"),
    ],
)
def test_correlator_times_must_fit_the_picosecond_grid(section, where):
    # rounded to whole picoseconds in int64: a window of 0 ps counts nothing,
    # and a time past the 2**60 ps grid bound could wrap a tag or a delay
    with pytest.raises(ConfigError, match=re.escape(where)):
        config_from_dict({"correlator": section})


def test_jitter_draws_must_fit_the_picosecond_grid():
    # the largest draw, |z| <= 8.3 sigma, would wrap the int64 picosecond tags
    with pytest.raises(ConfigError, match=re.escape("detector.jitter must keep its largest draw")):
        fr.parse_config('{"detector": {"jitter": 1e300}}')
    with pytest.raises(ConfigError, match="detector.jitter"):
        fr.parse_config('{"detector": {"jitter": 1.4e5}}')
    assert fr.parse_config('{"detector": {"jitter": 1.38e5}}').detector.jitter == 1.38e5


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("source", "f0", 0.0),
        ("umzi_a", "t_sl", -1e-12),
        ("umzi_b", "gamma", 2),
        ("detector", "efficiency", 0.0),
        ("scan", "n_points", 7),
        ("correlator", "window", 1e-13),
    ],
)
def test_range_errors_name_their_section_key(section, key, value):
    # a section checks itself before the correlator's reach to the side peaks
    # at the delays, so a delay of party A is reported as umzi_a.t_sl
    with pytest.raises(ConfigError) as err:
        config_from_dict({section: {key: value}})
    message = str(err.value)
    assert message.startswith(f"{section}.{key} "), message
    assert message.count(f"{section}.") == 1, message


@pytest.mark.parametrize("tau_ind", [0.0, 1e-300])
@pytest.mark.parametrize("umzi", [{}, {"gamma": None}])
def test_a_bad_tau_ind_fails_before_the_overlap_is_derived(tau_ind, umzi, tmp_path):
    # gamma null or absent is derived from source.tau_ind, once it is valid
    path = tmp_path / "bad_tau_ind.json"
    path.write_text(json.dumps({"source": {"tau_ind": tau_ind}, "umzi_a": umzi}))
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: source\\.tau_ind "):
        fr.load_config(path)


def test_the_derived_overlap_of_a_far_delay_is_zero():
    # a delay of 1e290 coherence times squares past the float range: the
    # overlap is exp(-inf) = 0.0, not an OverflowError
    cfg = config_from_dict({"source": {"delta": 1e300, "tau_ind": 1e-300}})
    assert cfg.umzi_a.gamma == cfg.umzi_b.gamma == 0.0
    assert default_overlap(1e-10, 1e-300) == 0.0


def test_histogram_size_is_bounded():
    where = "correlator.tau_max and correlator.bin_width give"
    with pytest.raises(ConfigError, match=re.escape(f"{where} 2 * tau_max / bin_width = 10")):
        fr.parse_config('{"correlator": {"tau_max": 1.0}}')
    # 2 ps bins: 2**22 of them reach tau_max = 2**21 * 2 ps, and no further
    limit = 2**21 * 2e-12
    assert config_from_dict({"correlator": {"tau_max": limit}}).correlator.tau_max == limit
    with pytest.raises(ConfigError, match=re.escape(f"= {2**22 + 1} histogram bins")):
        config_from_dict({"correlator": {"tau_max": limit + 1e-12}})


def test_integers_are_numbers_and_gamma_may_be_null():
    cfg = fr.parse_config(
        '{"source": {"pair_rate": 1000000}, "umzi_a": {"gamma": null},'
        ' "scan": {"chsh_settings": [0, 1, 2, 3]}}'
    )
    assert cfg.source.pair_rate == 1e6
    assert cfg.umzi_a.gamma == default_overlap(cfg.umzi_a.t_sl, cfg.source.tau_ind)


def test_a_float_key_given_as_an_integer_hashes_as_its_float():
    # JSON 1 and 1.0 give equal configs, so they must give one hash
    ints = config_from_dict(
        {"detector": {"efficiency": 1}, "source": {"pump_linewidth": 0}, "umzi_a": {"phase": 0}}
    )
    assert ints == default_config()
    assert fr.config_hash(ints) == fr.config_hash(default_config()) == "70539f8cd119411e"
    assert type(ints.detector.efficiency) is float and type(ints.umzi_a.phase) is float
    phases = config_from_dict({"scan": {"chsh_settings": [0, 1, 2, 3]}}).scan.chsh_settings
    assert phases == (0.0, 1.0, 2.0, 3.0) and all(type(x) is float for x in phases)
    # an int key stays an int
    assert type(config_from_dict({"scan": {"n_points": 9}}).scan.n_points) is int


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
    hist = simulate_point(cfg, (0,), 1_000, 0.0, 0.0)[3]
    assert hist.side_offset_a_ps == hist.side_offset_b_ps == 80


def readme_defaults() -> dict[str, str]:
    """The README's configuration table: ``section.key`` -> its default as written."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| section.key | default | meaning |") + 2  # past the rule
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("| `"), lines[start:]):
        keys, default = line.split(" | ")[:2]
        for key in re.findall(r"`([^`]+)`", keys):
            rows[key] = default.strip("` ")
    return rows


def test_default_config_matches_defaults_table():
    cfg = default_config()
    sections = {name: values for name, values in cfg.to_dict().items() if isinstance(values, dict)}
    rows = readme_defaults()
    keys = {f"{name}.{key}" for name, values in sections.items() for key in values}
    assert set(rows) == keys | {"seed"}
    for row, default in rows.items():
        section, _, key = row.partition(".")
        value = cfg.seed if row == "seed" else sections[section][key]
        if default == "null":  # the overlap derived from the section's delay
            assert key == "gamma", row
            assert value == default_overlap(sections[section]["t_sl"], cfg.source.tau_ind), row
        elif row == "scan.chsh_settings":
            assert default == "(0, pi/2, -pi/4, pi/4)"
            assert value == (0.0, math.pi / 2, -math.pi / 4, math.pi / 4)
        else:
            assert value == float(default), row


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
