"""Source sampling: distribution moments, exact symmetries, reproducibility."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from franson.rng import (
    KIND_FRINGE,
    KIND_LOCAL,
    KIND_PUMP,
    KIND_TAU,
    ROLE_DETECTION,
    ROLE_SOURCE,
    item_uniforms,
)
from franson.config import config_from_dict
from franson.correlation import ensemble_fringe
from franson.detection import DetectorModel, simulate_run, simulate_tags
from franson.experiment import simulate_point
from franson.interferometer import UmziConfig, ensemble_local_fringe
from franson.source import PS_PER_S, SpectralModel, sample_detunings, sample_pairs

from oracles import pair_frequencies

FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))  # FWHM = factor * sigma


def make_model(**overrides) -> SpectralModel:
    kwargs = dict(f0=3.7e14, delta=1e12, pump_linewidth=0.0, tau_ind=10e-9, pair_rate=1e6)
    kwargs.update(overrides)
    return SpectralModel(**kwargs)


def test_degenerate_widths_collapse_to_exact_zeros():
    # delta -> 0 limit: every sampled pair sits exactly at the center frequency.
    # (Validation rejects delta == 0; the sampler itself handles the limit.)
    model = make_model(delta=0.0, pump_linewidth=0.0)
    pairs = sample_pairs(model, 500, seed=3)
    assert np.all(pairs.df == 0.0)
    assert np.all(pairs.dp == 0.0)
    assert np.all(pairs.eps == 0.0)


def test_pair_sum_frequency_is_bit_exact_without_pump_jitter():
    model = make_model()
    pairs = sample_pairs(model, 100_000, seed=7)
    f_s, f_i = pair_frequencies(model.f0, pairs.df, pairs.dp)
    assert np.all(f_s + f_i == 2.0 * model.f0)  # exact, not approximate


def test_detuning_antisymmetry_is_exact():
    model = make_model()
    pairs = sample_pairs(model, 5_000, seed=11)
    assert np.all(pairs.detuning_signal == pairs.df)
    assert np.all(pairs.detuning_idler == -pairs.df)


def test_detuning_antisymmetry_with_pump_jitter():
    model = make_model(pump_linewidth=1e9)
    pairs = sample_pairs(model, 5_000, seed=11)
    # the antisymmetric part about the shared pump shift is df on both sides;
    # the float cancellation noise scales with |df|, not with dp
    atol = 4.0 * np.finfo(float).eps * np.abs(pairs.df).max()
    np.testing.assert_allclose(
        pairs.detuning_signal + pairs.detuning_idler, pairs.dp, rtol=0, atol=atol
    )


def test_distribution_moments():
    model = make_model(pump_linewidth=2e9)
    n = 100_000
    pairs = sample_pairs(model, n, seed=5)

    sigma_df = model.delta / FWHM_FACTOR
    assert abs(pairs.df.mean()) < 5.0 * sigma_df / math.sqrt(n)

    # detuning FWHM equals the ensemble bandwidth delta
    fwhm_df = FWHM_FACTOR * pairs.df.std()
    assert fwhm_df == pytest.approx(model.delta, rel=0.03)

    fwhm_dp = FWHM_FACTOR * pairs.dp.std()
    assert fwhm_dp == pytest.approx(model.pump_linewidth, rel=0.03)

    fwhm_eps = FWHM_FACTOR * pairs.eps.std()
    assert fwhm_eps == pytest.approx(1.0 / model.delta, rel=0.03)

    gaps = np.diff(pairs.t0_ps)
    assert gaps.mean() == pytest.approx(PS_PER_S / model.pair_rate, rel=0.05)


def test_emission_times_never_decrease():
    # gaps are whole picoseconds: at a mean gap of 2 ps many round to 0
    n = 50_000
    pairs = sample_pairs(make_model(pair_rate=5e11), n, seed=2)
    assert pairs.t0_ps.dtype == np.int64
    gaps = np.diff(pairs.t0_ps)
    assert gaps.min() == 0
    # a rounded exponential gap of mean m has mean exp(1/(2m)) / (exp(1/m) - 1)
    m = PS_PER_S / 5e11
    expected = math.exp(0.5 / m) / math.expm1(1.0 / m)
    assert abs(gaps.mean() - expected) < 5.0 * gaps.std() / math.sqrt(n)


def test_same_seed_reproduces_the_same_sequence():
    model = make_model(pump_linewidth=1e9)
    a = sample_pairs(model, 1_000, seed=42)
    b = sample_pairs(model, 1_000, seed=42)
    for name in ("df", "dp", "t0_ps", "eps"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = sample_pairs(model, 1_000, seed=43)
    assert not np.array_equal(a.df, c.df)


def test_the_reach_check_runs_where_the_pairs_are_drawn():
    # 2 000 gaps of mean 1e15 ps pass 2**60 ps; the detunings alone are fine
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"^source\.pair_rate = 0\.001 .* carry 2000 pairs'"):
            sample_pairs(make_model(pair_rate=1e-3), 2_000, seed=1)
        [(df, dp)] = sample_detunings([make_model(pair_rate=1e-3)], 2_000, seed=1)
        reachable = sample_pairs(make_model(), 2_000, seed=1)
        assert np.array_equal(df, reachable.df) and np.array_equal(dp, reachable.dp)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 500), n_tail=st.integers(0, 500), seed=st.integers(0, 2**64))
def test_pair_sequence_is_defined_by_index_not_batch(k, n_tail, seed):
    # pair j is the same whether sampled in one batch or from an offset range,
    # and a range's emission times continue exactly from the carried time
    model = make_model(pump_linewidth=1e9)
    full = sample_pairs(model, k + n_tail, seed=seed)
    tail = sample_pairs(model, n_tail, seed=seed, start=k)
    for name in ("df", "dp", "eps"):
        assert np.array_equal(getattr(full, name)[k:], getattr(tail, name))
    assert np.array_equal(full.t0_ps[k:], full.t0_ps[k - 1] + tail.t0_ps)
    # the detunings-only draw is the same draw
    [(df, dp)] = sample_detunings([model], n_tail, seed=seed, start=k)
    assert np.array_equal(df, tail.df) and np.array_equal(dp, tail.dp)


def test_detunings_past_the_float_range_are_rejected_by_name():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # sigma = 0.42 FWHM: a draw past 2.5 sigma overflows
        for overrides in ({"delta": 1.7e308}, {"pump_linewidth": 1.7e308}):
            with pytest.raises(ValueError, match="source.delta or source.pump_linewidth"):
                sample_pairs(make_model(**overrides), 2_000, seed=1)
            # in a shared draw each model is checked: the one that overflows is named
            wide = make_model(**overrides)
            with pytest.raises(ValueError, match=f"overflows a detuning: {re.escape(repr(wide))}$"):
                sample_detunings([make_model(), wide], 2_000, seed=1)


@pytest.mark.parametrize(
    "path, other",
    [
        # a key packed as kind * 10_000 + point would merge these two
        ((KIND_FRINGE, 10_000), (KIND_LOCAL, 0)),
        # and a key packed as kind * 100 + step these two
        ((KIND_TAU, 100, 3), (KIND_PUMP, 0, 3)),
        # a trailing 0 is part of the key, not padding
        ((5,), (5, 0)),
        ((5, ROLE_SOURCE), (5, ROLE_DETECTION)),
    ],
)
def test_distinct_stream_keys_draw_distinct_streams(path, other):
    assert not np.array_equal(item_uniforms(9, path, 4, 4), item_uniforms(9, other, 4, 4))
    model = make_model()
    a, b = sample_pairs(model, 4, seed=9, stream=path), sample_pairs(model, 4, seed=9, stream=other)
    assert not np.array_equal(a.df, b.df)


def test_stream_keys_are_tuples_of_bounded_width():
    # an int is not a key path: (7,) is
    with pytest.raises(TypeError):
        sample_pairs(make_model(), 8, 3, stream=7)
    # entries of 2**32 and up would spill into the next word of the key
    with pytest.raises(ValueError, match="stream path"):
        item_uniforms(0, (2**32 + 3,), 1, 4)
    with pytest.raises(ValueError, match="seed"):
        item_uniforms(2**128, (0,), 1, 4)


PARTIES = UmziConfig(), UmziConfig()


@pytest.mark.parametrize(
    "draw",
    [
        lambda key: sample_detunings([make_model(), make_model(delta=2e12)], 8, 3, stream=key),
        lambda key: item_uniforms(3, key, 8, 4),
        lambda key: simulate_tags(sample_pairs(make_model(), 8, 3), *PARTIES, DetectorModel(), 3, stream=key),
        lambda key: next(simulate_run(make_model(), *PARTIES, DetectorModel(), 8, 3, stream=key)),
        lambda key: ensemble_fringe(make_model(), *PARTIES, 8, seed=3, stream=key),
        lambda key: ensemble_local_fringe([make_model(), make_model(delta=2e12)], UmziConfig(), 8, seed=3, stream=key),
        lambda key: simulate_point(config_from_dict({}), key, 8, 0.0, 0.0),
    ],
    ids=["sample_detunings", "item_uniforms", "simulate_tags", "simulate_run", "ensemble_fringe",
         "ensemble_local_fringe", "simulate_point"],
)
def test_every_sampler_takes_its_key_as_a_tuple_only(draw):
    # (7,) is a key path; the int 7 is converted nowhere and fails at once
    draw((7,))
    with pytest.raises(TypeError):
        draw(7)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("delta", 0.0, "delta"),
        ("delta", -1e9, "delta"),
        ("f0", 0.0, "f0"),
        ("tau_ind", 0.0, "tau_ind"),
        ("pair_rate", 0.0, "pair_rate"),
        ("pump_linewidth", -1.0, "pump_linewidth"),
    ],
)
def test_model_validation_rejects_bad_fields(field, value, message):
    model = make_model(**{field: value})
    with pytest.raises(ValueError, match=message):
        model.validate()


def test_model_validation_rejects_short_individual_coherence():
    with pytest.raises(ValueError, match="tau_ind"):
        make_model(tau_ind=1e-13).validate()


def test_model_validation_warns_on_wideband_source():
    warnings = make_model(delta=1e13, f0=1e14).validate()
    assert any("0.01" in w or "narrowband" in w for w in warnings)
