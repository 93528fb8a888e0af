"""Experiment runners: fringe law, agreement, decay laws, determinism."""

import json
import math
import re
import warnings
import weakref
from dataclasses import fields, replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import franson as fr
from franson import detection, experiment, source
from franson.config import config_hash
from franson.correlation import chsh_combinations, overlap_envelope
from franson.experiment import TAU_POINTS, _fringe, simulate_point, wrap_phase
from franson.fitting import CosineFit, fit_cosine
from franson.errors import FitError, UndefinedCorrelationError
from franson.interferometer import sampled_cf
from franson.rng import KIND_CHSH, KIND_FRINGE, KIND_PUMP, KIND_TAU
from franson.source import FWHM_TO_SIGMA, sample_detunings

from conftest import chi2_quantile, ideal_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_wrap_phase():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(2 * math.pi + 0.1) == pytest.approx(0.1)
    assert wrap_phase(-0.1) == pytest.approx(-0.1)
    assert wrap_phase(math.pi) == pytest.approx(math.pi)


def test_fit_recovers_amplitude_phase_offset():
    x = np.linspace(0, 2 * math.pi, 24, endpoint=False)
    y = 0.125 * (1.0 + 0.8 * np.cos(x + 0.3))
    fit = fit_cosine(x, y)
    assert fit.visibility == pytest.approx(0.8, abs=1e-9)
    assert fit.phase == pytest.approx(0.3, abs=1e-9)
    assert fit.offset == pytest.approx(0.125, abs=1e-12)
    assert fit.visibility_maxmin == pytest.approx(0.8, rel=0.05)


def test_fit_rejects_degenerate_grids():
    x = np.zeros(10)
    with pytest.raises(FitError):
        fit_cosine(x, np.ones(10))


def test_analytic_fringe_scan_follows_the_closed_form():
    cfg = ideal_config(pairs_per_point=2_000)
    res = fr.run_fringe_scan(cfg, mode="analytic")
    expected = 0.125 * (1.0 + np.cos(res.x))
    np.testing.assert_allclose(res.columns["rate_55"], expected, atol=1e-9)
    np.testing.assert_allclose(res.columns["rate_66"], expected, atol=1e-9)
    np.testing.assert_allclose(res.columns["rate_56"], 0.25 - expected, atol=1e-9)
    assert res.visibility == pytest.approx(1.0, abs=1e-9)
    assert abs(res.phase_offset) < 1e-9


def test_montecarlo_matches_analytic_pointwise():
    cfg = ideal_config(pairs_per_point=20_000)
    ana = fr.run_fringe_scan(cfg, mode="analytic")
    mc = fr.run_fringe_scan(cfg, mode="montecarlo")
    n = cfg.scan.pairs_per_point
    z = []
    for pp in ("55", "56", "65", "66"):
        expected = ana.columns[f"rate_{pp}"]
        # the counted rate's binomial sigma at the analytic rate, not at the
        # counted one (which shrinks on low draws), and the analytic error
        sigma = np.sqrt(expected * (1.0 - expected) / n + ana.columns[f"stderr_{pp}"] ** 2)
        z.append((mc.columns[f"rate_{pp}"] - expected) / np.maximum(sigma, 1e-4))
    z = np.concatenate(z)
    # 16 phases x 4 port pairs = 64 points, each check at a family-wise
    # false-alarm rate of 0.1%: every |z| within the Sidak bound (4.32), and
    # sum z^2 within the chi^2 quantile for 64 degrees of freedom (104.8)
    alpha = 0.001
    per_point = 1.0 - (1.0 - alpha) ** (1.0 / z.size)
    assert np.all(np.abs(z) <= NormalDist().inv_cdf(1.0 - per_point / 2.0))
    assert np.sum(z**2) <= chi2_quantile(z.size, alpha)


def test_fringe_scan_determinism_is_byte_level():
    cfg = ideal_config(seed=5, n_points=8, pairs_per_point=5_000)
    a = fr.run_fringe_scan(cfg, mode="montecarlo")
    b = fr.run_fringe_scan(cfg, mode="montecarlo")
    assert a.to_csv_text() == b.to_csv_text()
    assert a.to_summary_dict() == b.to_summary_dict()
    c = fr.run_fringe_scan(replace(cfg, seed=6), mode="montecarlo")
    assert c.to_csv_text() != a.to_csv_text()


def test_local_scan_flat_local_fringing_nonlocal():
    cfg = ideal_config(pairs_per_point=20_000)
    res = fr.run_local_scan(cfg)
    assert res.extras["visibility_local_a"] < 0.02
    assert res.extras["visibility_local_b"] < 0.02
    assert res.extras["visibility_singles_a"] < 0.02
    assert res.extras["visibility_singles_b"] < 0.02
    assert res.extras["visibility_nonlocal"] > 0.95


def test_local_scan_with_deliberately_violated_condition():
    # delta * t_sl = 0.001: the ensemble is NOT dephased and the local fringe
    # survives at full contrast
    cfg = fr.parse_config(
        """
        {
          "seed": 2,
          "source": {"delta": 1e7, "tau_ind": 2e-7},
          "umzi_a": {"t_sl": 100e-12, "gamma": 1.0},
          "umzi_b": {"t_sl": 100e-12, "gamma": 1.0},
          "scan": {"n_points": 12, "pairs_per_point": 4000}
        }
        """
    )
    assert any("critical UMZI condition" in w for w in cfg.warnings)
    res = fr.run_local_scan(cfg)
    assert res.extras["visibility_local_a"] > 0.99
    assert res.extras["visibility_local_b"] > 0.99


def test_local_scan_with_zero_overlap_is_flat_at_any_bandwidth():
    cfg = fr.parse_config(
        """
        {
          "seed": 3,
          "source": {"delta": 1e9, "tau_ind": 1e-8},
          "umzi_a": {"t_sl": 100e-12, "gamma": 0.0},
          "umzi_b": {"t_sl": 100e-12, "gamma": 0.0},
          "scan": {"n_points": 12, "pairs_per_point": 4000}
        }
        """
    )
    res = fr.run_local_scan(cfg)
    assert res.extras["visibility_local_a"] < 0.02
    assert res.extras["visibility_local_b"] < 0.02


def test_crossover_tracks_the_characteristic_function():
    cfg = ideal_config(pairs_per_point=50_000)
    res = fr.run_crossover_sweep(cfg)
    assert res.x[0] == pytest.approx(0.01) and res.x[-1] == pytest.approx(100.0)
    assert res.x.size == 10
    assert res.extras["max_abs_deviation"] <= 0.02
    assert np.all(np.diff(res.columns["visibility_oracle"]) <= 0)


def test_crossover_oracle_carries_the_pump_jitter():
    # the signal photon carries df + dp/2: at 5 GHz pump linewidth the local
    # fringe keeps a factor |cf_pump(t_sl / 2)| = 0.80 even where delta * t_sl -> 0
    cfg = fr.load_config(CONFIGS / "pump_jitter.json")
    res = fr.run_crossover_sweep(cfg)
    assert res.extras["max_abs_deviation"] <= 0.02
    pump = fr.local_visibility_oracle(cfg.source.pump_linewidth, 0.5 * cfg.umzi_a.t_sl)
    assert 0.79 < pump < 0.81
    assert res.columns["visibility_oracle"][0] == pytest.approx(cfg.umzi_a.gamma * pump, abs=1e-3)


def test_crossover_points_share_one_draw():
    # every point rescales the same draws: adding grid points moves no
    # existing point, and a point's value is that of a one-point sweep
    cfg = ideal_config(pairs_per_point=3_000)
    few = fr.run_crossover_sweep(cfg, grid=[0.1, 1.0])
    many = fr.run_crossover_sweep(cfg, grid=[0.03, 0.1, 0.3, 1.0, 3.0])
    alone = fr.run_crossover_sweep(cfg, grid=[1.0])
    vis = many.columns["visibility_local"]
    assert list(few.columns["visibility_local"]) == [vis[1], vis[3]]
    assert alone.columns["visibility_local"][0] == vis[3]


def test_tau_decay_analytic_and_montecarlo():
    cfg = ideal_config(pairs_per_point=10_000)
    ana = fr.run_tau_decay(cfg, mode="analytic")
    assert ana.columns["visibility"][0] == pytest.approx(1.0)
    assert np.all(np.diff(ana.columns["visibility"]) < 0)
    mc = fr.run_tau_decay(cfg, mode="montecarlo")
    assert mc.visibility >= 0.99  # tau = 0
    delta = cfg.source.delta
    idx_1 = int(np.argmin(np.abs(mc.x - 1.0 / delta)))
    assert mc.columns["visibility"][idx_1] < 0.5
    idx_3 = int(np.argmin(np.abs(mc.x - 3.0 / delta)))
    assert mc.columns["visibility"][idx_3] < 0.1


@pytest.mark.parametrize("config", ["ideal.json", "pump_jitter.json"])
def test_tau_decay_offset_acts_only_through_the_envelope(config):
    # Displacing party B by tau and centring the window on the displaced peak
    # cancel on the integer-picosecond grid, so step k of the decay is a plain
    # fringe scan with gamma_B times the overlap envelope of its offset, its
    # point j drawn from (KIND_TAU, j) as every other step's is.
    cfg = fr.load_config(CONFIGS / config)
    cfg = replace(cfg, scan=replace(cfg.scan, pairs_per_point=3_000))
    decay = fr.run_tau_decay(cfg, mode="montecarlo")
    for k, env in enumerate(overlap_envelope(decay.x, cfg.source.delta)):
        step = replace(cfg, umzi_b=replace(cfg.umzi_b, gamma=cfg.umzi_b.gamma * float(env)))
        [scan], _ = _fringe([step], "montecarlo", (KIND_TAU,), TAU_POINTS, 3_000)
        assert decay.columns["visibility"][k] == scan.visibility
        assert decay.columns["visibility_err"][k] == scan.visibility_err


@pytest.mark.parametrize(
    "config, t_sl_b",
    [("pump_jitter.json", None), ("ideal.json", 100.5e-12), ("pump_jitter.json", 100.5e-12)],
    ids=["pump_jitter", "unequal_delays", "pump_jitter-unequal_delays"],
)
def test_analytic_tau_decay_is_the_envelope_times_the_analytic_fringe(config, t_sl_b):
    # the pump jitter and the unequal-delay detuning spread damp every step as
    # they damp the analytic fringe scan; the offset adds only its envelope
    cfg = fr.load_config(CONFIGS / config)
    if t_sl_b is not None:
        cfg = replace(cfg, umzi_b=replace(cfg.umzi_b, t_sl=t_sl_b))
    fringe = fr.run_fringe_scan(cfg, mode="analytic").visibility
    decay = fr.run_tau_decay(cfg, mode="analytic")
    want = overlap_envelope(decay.x, cfg.source.delta) * fringe
    assert fringe < 0.5
    np.testing.assert_allclose(decay.columns["visibility"], want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(decay.columns["envelope_analytic"], decay.columns["visibility"])
    assert not np.any(decay.columns["visibility_err"])


def test_pump_sweep_degrades_with_linewidth():
    # the analytic sweep reports the closed form, on equal delays the cf_analytic
    # curve; no pairs are drawn, so there is no sampled characteristic function
    cfg = ideal_config(pairs_per_point=10_000)
    res = fr.run_pump_sweep(cfg, mode="analytic", pairs_per_point=10_000)
    assert res.columns["visibility"][0] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(res.columns["visibility"]) < 0)
    np.testing.assert_allclose(
        res.columns["visibility"], res.columns["cf_analytic"], rtol=0, atol=1e-12
    )
    assert "cf_sampled" not in res.columns


def test_analytic_pump_sweep_follows_the_fringe_law_at_unequal_delays():
    # with t_sl^A != t_sl^B the detuning spread damps the fringe as well, and
    # the pump jitter acts at the mean delay: each step is the analytic fringe
    # scan at its own linewidth, with zero error, and no longer cf_analytic
    cfg = ideal_config()
    cfg = replace(cfg, umzi_b=replace(cfg.umzi_b, t_sl=100.5e-12))
    linewidths = [0.0, 2.5e9, 5e9]
    res = fr.run_pump_sweep(cfg, linewidths, mode="analytic")
    for k, lw in enumerate(linewidths):
        cfg_k = replace(cfg, source=replace(cfg.source, pump_linewidth=lw))
        scan = fr.run_fringe_scan(cfg_k, mode="analytic")
        assert res.columns["visibility"][k] == pytest.approx(scan.visibility, rel=0, abs=1e-12)
    assert 0.3 < res.visibility < 0.5 and res.columns["cf_analytic"][0] == 1.0
    assert not np.any(res.columns["visibility_err"])


def test_pump_sweep_takes_the_pump_jitter_at_the_mean_delay():
    # dp shifts the joint phase by 2 pi dp (t_A + t_B)/2, so on unequal delays
    # the default grid, cf_analytic and cf_sampled take that lag, and the
    # analytic visibility is cf_analytic times the detuning spread's factor;
    # every step's point j scales the jitter quantiles drawn at (KIND_PUMP, j)
    raw = ideal_config(n_points=8, pairs_per_point=500).to_dict()
    raw["source"]["delta"] = 1e11  # the L-L peak at t_A - t_B = 4 ps stays in the window
    raw["umzi_b"]["t_sl"] = 96e-12
    cfg = fr.parse_config(json.dumps(raw))
    lag = 0.5 * (cfg.umzi_a.t_sl + cfg.umzi_b.t_sl)
    gamma2 = cfg.umzi_a.gamma * cfg.umzi_b.gamma
    ana = fr.run_pump_sweep(cfg, mode="analytic")
    np.testing.assert_allclose(ana.x * lag, [0.0, 0.25, 0.5, 0.75, 1.0], rtol=1e-15, atol=0)
    cf = gamma2 * np.exp(-((math.pi * ana.x * lag) ** 2) / (4.0 * math.log(2.0)))
    np.testing.assert_allclose(ana.columns["cf_analytic"], cf, rtol=1e-12, atol=0)
    sigma_f = cfg.source.delta * FWHM_TO_SIGMA
    detuning = math.exp(-2.0 * math.pi**2 * (sigma_f * (cfg.umzi_a.t_sl - cfg.umzi_b.t_sl)) ** 2)
    assert 0.5 < detuning < 0.6
    np.testing.assert_allclose(ana.columns["visibility"], cf * detuning, rtol=1e-12, atol=0)

    linewidths = [0.0, 0.5 / lag]
    mc = fr.run_pump_sweep(cfg, linewidths, mode="montecarlo", n_points=8, pairs_per_point=500)
    for k, lw in enumerate(linewidths):
        model = replace(cfg.source, pump_linewidth=lw)
        draws = [sample_detunings([model], 500, cfg.seed, (KIND_PUMP, j))[0][1] for j in range(8)]
        cf_sum = sum(sampled_cf(dp, lag) for dp in draws)
        assert mc.columns["cf_sampled"][k] == pytest.approx(gamma2 * abs(cf_sum) / 8, rel=1e-12)
    assert mc.columns["cf_sampled"][1] == pytest.approx(cf[2], abs=0.05)


def test_chsh_analytic_and_montecarlo():
    cfg = ideal_config(pairs_per_point=20_000)
    ana = fr.run_chsh(cfg, mode="analytic")
    assert ana.s_value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    mc = fr.run_chsh(cfg, mode="montecarlo")
    assert mc.s_value > 2.7
    assert mc.s_err < 0.05
    assert abs(mc.s_value - ana.s_value) < 4.0 * mc.s_err


@pytest.mark.parametrize("efficiency", [1.0, 0.01])
@pytest.mark.parametrize("seed", range(1, 5))
def test_montecarlo_chsh_without_central_coincidences_names_the_setting(seed, efficiency):
    # one pair per setting lands in a side peak about half the time, or goes
    # undetected at low efficiency; the run fails at the first setting
    # combination whose point counted nothing, and runs when none is empty
    # (at efficiency 1, one seed in 16)
    cfg = replace(ideal_config(n_points=8, pairs_per_point=1), seed=seed)
    cfg = replace(cfg, detector=replace(cfg.detector, efficiency=efficiency))
    empty = [
        name
        for k, (name, (pa, pb)) in enumerate(chsh_combinations(cfg.scan.chsh_settings).items())
        if simulate_point(cfg, (KIND_CHSH, k), 1, pa, pb)[3].central.sum() == 0
    ]
    if not empty:
        assert efficiency == 1.0, "every setting counted its pair at 1% efficiency"
        assert abs(fr.run_chsh(cfg, mode="montecarlo").s_value) <= 4.0
        return
    with pytest.raises(
        UndefinedCorrelationError,
        match=f"^no central coincidences for setting combination {re.escape(empty[0])}$",
    ):
        fr.run_chsh(cfg, mode="montecarlo")


def test_summaries_are_their_dataclass_fields():
    cfg = ideal_config(n_points=8, pairs_per_point=500)
    scan = fr.run_fringe_scan(cfg, mode="montecarlo")
    summary = scan.to_summary_dict()
    table = {"x_label", "x", "columns"}
    assert set(summary) == {f.name for f in fields(scan)} - table
    assert summary["fits"]["55"] == {f.name: getattr(scan.fits["55"], f.name) for f in fields(CosineFit)}
    chsh = fr.run_chsh(cfg, mode="montecarlo")
    assert chsh.to_summary_dict() == {"kind": "chsh", **{f.name: getattr(chsh, f.name) for f in fields(chsh)}}


def test_analytic_runners_apply_the_path_overlaps():
    cfg = ideal_config(pairs_per_point=2_000)
    cfg = replace(
        cfg, umzi_a=replace(cfg.umzi_a, gamma=0.5), umzi_b=replace(cfg.umzi_b, gamma=0.5)
    )
    assert fr.run_fringe_scan(cfg, mode="analytic").visibility == pytest.approx(0.25, abs=1e-9)
    s_value = fr.run_chsh(cfg, mode="analytic").s_value
    assert s_value == pytest.approx(2.0 * math.sqrt(2.0) * 0.25, abs=1e-6)
    pump = fr.run_pump_sweep(cfg, mode="analytic", pairs_per_point=2_000)
    assert pump.columns["visibility"][0] == pytest.approx(0.25, abs=1e-9)
    np.testing.assert_allclose(
        pump.columns["visibility"], pump.columns["cf_analytic"], rtol=0, atol=1e-12
    )


def test_analytic_chsh_is_the_closed_form_under_pump_jitter():
    # S = 2 sqrt(2) gamma_A gamma_B exp(-2 pi^2 sigma_p^2 t_sl^2), with no error bar
    cfg = fr.load_config(CONFIGS / "pump_jitter.json")
    sigma_p, t_sl = cfg.source.pump_linewidth * FWHM_TO_SIGMA, cfg.umzi_a.t_sl
    gamma2 = cfg.umzi_a.gamma * cfg.umzi_b.gamma
    expected = 2.0 * math.sqrt(2.0) * gamma2 * math.exp(-2.0 * math.pi**2 * (sigma_p * t_sl) ** 2)
    run = fr.run_chsh(cfg, mode="analytic")
    assert sigma_p > 0 and cfg.umzi_b.t_sl == t_sl
    assert run.s_value == pytest.approx(expected, rel=0, abs=1e-12)
    assert run.s_err == 0.0


def ideal_json_with(tmp_path, keys):
    """configs/ideal.json with the given {"section.key": value} entries, loaded."""
    raw = json.loads((CONFIGS / "ideal.json").read_text())
    for name, value in keys.items():
        section, key = name.split(".")
        raw[section][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return fr.load_config(path)


def test_analytic_chsh_vanishes_without_path_overlap_at_one_party(tmp_path):
    # gamma_A = 0 makes V = 0: every E is exactly 0, and so is S
    run = fr.run_chsh(ideal_json_with(tmp_path, {"umzi_a.gamma": 0}), mode="analytic")
    assert run.correlations == dict.fromkeys(("ab", "ab'", "a'b", "a'b'"), 0.0)
    assert run.s_value == 0.0 and run.s_err == 0.0


@pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
def test_chsh_with_all_settings_equal_gives_two(tmp_path, mode):
    # E(0, 0) = V = 1 for every combination, so S = |1 + 1 + 1 - 1| = 2 in
    # either mode: at V = 1 and zero joint phase every pair leaves by equal ports
    keys = {"scan.chsh_settings": [0.0] * 4, "scan.pairs_per_point": 2_000}
    run = fr.run_chsh(ideal_json_with(tmp_path, keys), mode=mode)
    assert run.correlations == dict.fromkeys(("ab", "ab'", "a'b", "a'b'"), 1.0)
    assert run.s_value == 2.0


def test_scan_points_draw_from_tuple_keys():
    # point k of a Monte Carlo fringe scan runs the pipeline on the stream (KIND_FRINGE, k)
    cfg = ideal_config(n_points=8, pairs_per_point=500)
    cfg = replace(cfg, source=replace(cfg.source, pump_linewidth=2e9))
    res = fr.run_fringe_scan(cfg, mode="montecarlo")
    psi = cfg.umzi_b.phase
    for k in (0, 3):
        hist = simulate_point(cfg, (KIND_FRINGE, k), 500, res.x[k] - psi, psi)[3]
        for a, pa in enumerate((5, 6)):
            for b, pb in enumerate((5, 6)):
                assert res.columns[f"rate_{pa}{pb}"][k] == hist.central[a, b] / 500


def test_simulate_point_returns_the_whole_pipeline():
    cfg = ideal_config(pairs_per_point=2_000)
    pairs, tags_a, tags_b, hist = simulate_point(cfg, stream=(0,), n_pairs=2_000, phase_a=0.0, phase_b=0.0)
    assert len(pairs) == 2_000
    assert len(tags_a) == 2_000  # efficiency 1
    assert hist.central.sum() > 0


def test_scan_results_embed_provenance():
    cfg = ideal_config(pairs_per_point=2_000)
    res = fr.run_fringe_scan(cfg, mode="analytic")
    assert res.seed == cfg.seed
    assert res.config_hash == fr.config_hash(cfg)
    text = res.to_csv_text()
    assert f"# config_hash={res.config_hash}" in text
    assert f"# seed={res.seed}" in text
    summary = res.to_summary_dict()
    assert summary["config_hash"] == res.config_hash
    assert "55" in summary["fits"]


def test_invalid_mode_is_rejected():
    cfg = ideal_config(pairs_per_point=100)
    with pytest.raises(ValueError, match="mode"):
        fr.run_fringe_scan(cfg, mode="magic")


@pytest.mark.parametrize(
    "runner, kwargs",
    [
        (fr.run_crossover_sweep, {"pairs_per_point": 0}),
        (fr.run_pump_sweep, {"pairs_per_point": 0}),
        (fr.run_pump_sweep, {"n_points": 0}),
        (fr.run_pump_sweep, {"n_points": 7}),
    ],
)
def test_counts_below_their_minimum_are_rejected(runner, kwargs):
    # zero is a count, not "use the default"; n_points needs the fit's 8 points
    # (every other scan takes its sizes from the config, checked at parse time)
    (name,) = kwargs
    with pytest.raises(ValueError, match=rf"^{name} must be >= "):
        runner(ideal_config(pairs_per_point=100), **kwargs)


RISE = "must be strictly increasing"


@pytest.mark.parametrize(
    "runner, kwargs, message",
    [
        (fr.run_pump_sweep, {"linewidths": [-5e9, 0.0]}, "linewidths must be >= 0, got -5e+09"),
        (fr.run_pump_sweep, {"linewidths": [0.0, math.nan]}, "linewidths must be >= 0, got nan"),
        (fr.run_crossover_sweep, {"grid": [-1.0, 0.0, 1.0]}, "grid must be > 0, got -1"),
        (fr.run_crossover_sweep, {"grid": [1.0, 0.0]}, "grid must be > 0, got 0"),
        (fr.run_crossover_sweep, {"grid": [math.nan, 1.0]}, "grid must be > 0, got nan"),
        (fr.run_pump_sweep, {"linewidths": [1e9, 0.0]}, f"linewidths {RISE}, got 0"),
        (fr.run_pump_sweep, {"linewidths": [0.0, 1e9, 1e9]}, f"linewidths {RISE}, got 1e+09"),
        (fr.run_crossover_sweep, {"grid": [1.0, 0.5, 2.0]}, f"grid {RISE}, got 0.5"),
        (fr.run_crossover_sweep, {"grid": [1.0, 2.0, 2.0]}, f"grid {RISE}, got 2"),
        (fr.run_pump_sweep, {"linewidths": []}, "linewidths must hold at least one value"),
        (fr.run_crossover_sweep, {"grid": []}, "grid must hold at least one value"),
    ],
)
def test_sweep_values_the_config_rejects_fail_before_any_draw(runner, kwargs, message, monkeypatch):
    # a negative pump linewidth or a non-positive delta * t_sl fails to parse
    # as a config value, so a sweep must not run it either; and a sweep's
    # values are its result's x axis, which must strictly increase and hold
    # the point its summary reports
    def no_draws(*args, **kwargs):
        raise AssertionError("a pair was drawn")

    monkeypatch.setattr(source, "item_uniforms", no_draws)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        runner(ideal_config(pairs_per_point=100), pairs_per_point=100, **kwargs)


def _at_pair_rate(cfg, pair_rate):
    """``cfg`` parsed again with ``source.pair_rate`` replaced."""
    raw = cfg.to_dict()
    raw["source"]["pair_rate"] = pair_rate
    return fr.parse_config(json.dumps(raw))


def _without_provenance(result, keys=("config_hash",)):
    """``result``'s summary and CSV lines without the given provenance keys."""
    summary = result.to_summary_dict()
    for key in keys:
        summary.pop(key)
    if not hasattr(result, "to_csv_text"):  # a ChshRun writes no CSV
        return summary
    headers = tuple(f"# {key}=" for key in keys)
    csv = [line for line in result.to_csv_text().splitlines() if not line.startswith(headers)]
    return summary, csv


# At 1e-3 pairs/s, 2 000 pairs' emission times span ~2e18 ps, past the 2**60
# ps grid: a tag pipeline on this config fails where its pairs are drawn.
ANALYTIC_RUNNERS = [
    lambda cfg: fr.run_fringe_scan(cfg, mode="analytic"),
    lambda cfg: fr.run_chsh(cfg, mode="analytic"),
    lambda cfg: fr.run_pump_sweep(cfg, mode="analytic", n_points=8, pairs_per_point=2_000),
    lambda cfg: fr.run_crossover_sweep(cfg, pairs_per_point=2_000),
]


@pytest.mark.parametrize("runner", ANALYTIC_RUNNERS, ids=["fringe-scan", "chsh", "pump", "crossover"])
def test_analytic_runners_never_read_pair_times(runner):
    # emission times and pair delays enter only coincidence timing, so no
    # analytic product depends on pair_rate, and a rate whose tag times would
    # pass the grid runs
    cfg = ideal_config(n_points=8, pairs_per_point=2_000)
    far = _at_pair_rate(cfg, 1e-3)
    assert config_hash(far) != config_hash(cfg)
    assert _without_provenance(runner(far)) == _without_provenance(runner(cfg))


@pytest.mark.parametrize(
    "runner",
    [
        lambda cfg: fr.run_fringe_scan(cfg, mode="analytic"),
        lambda cfg: fr.run_chsh(cfg, mode="analytic"),
        lambda cfg: fr.run_pump_sweep(cfg, mode="analytic", n_points=8, pairs_per_point=2_000),
        lambda cfg: fr.run_tau_decay(cfg, mode="analytic"),
    ],
    ids=["fringe-scan", "chsh", "pump", "tau-decay"],
)
@pytest.mark.parametrize("config", ["ideal.json", "pump_jitter.json"])
def test_analytic_runners_draw_no_pairs_and_do_not_depend_on_the_seed(runner, config, monkeypatch):
    # analytic mode is the exact ensemble expectation: no product depends on
    # a draw, so none is made and only the provenance tells two seeds apart
    def no_draws(*args, **kwargs):
        raise AssertionError("a pair was drawn")

    monkeypatch.setattr(source, "item_uniforms", no_draws)
    cfg = fr.load_config(CONFIGS / config)
    first, *others = (
        _without_provenance(runner(replace(cfg, seed=seed)), ("config_hash", "seed"))
        for seed in (1, 2, 7)
    )
    assert all(other == first for other in others)


# Regimes of the shared point pipeline: unequal delays (at delta = 1e11 the
# L-L peak at t_A - t_B = 4 ps stays in the window), lost photons and wide
# jitter, and 1e10 pairs/s, where accidental matches join the central window.
# The drawn steps carry their own pump linewidths.
SHARED_REGIMES = {
    "unequal_delays": {"source.delta": 1e11, "umzi_b.t_sl": 96e-12},
    "lossy_jitter": {"detector.efficiency": 0.8, "detector.jitter": 5e-12},
    "accidentals": {"source.pair_rate": 1e10},
}
SHARED_POINTS = [(0.0, 0.0), (1.1, -0.4), (math.pi, 2.5)]
# a step's (pump linewidth, gamma_A, gamma_B): all that sweep steps may vary
STEP_KNOBS = st.tuples(st.sampled_from([0.0, 1e9, 4e9]), st.floats(0.0, 1.0), st.floats(0.0, 1.0))


def _regime(name, n_pairs):
    raw = ideal_config(n_points=8, pairs_per_point=n_pairs).to_dict()
    for key, value in SHARED_REGIMES[name].items():
        section, field = key.split(".")
        raw[section][field] = value
    return fr.parse_config(json.dumps(raw))


def _steps(cfg, knobs):
    return [
        replace(
            cfg,
            source=replace(cfg.source, pump_linewidth=lw),
            umzi_a=replace(cfg.umzi_a, gamma=gamma_a),
            umzi_b=replace(cfg.umzi_b, gamma=gamma_b),
        )
        for lw, gamma_a, gamma_b in knobs
    ]


@pytest.mark.parametrize("regime", SHARED_REGIMES)
@settings(max_examples=6, deadline=None)
@given(n_pairs=st.integers(1, 3_000), knobs=st.lists(STEP_KNOBS, min_size=1, max_size=4))
def test_every_step_of_a_shared_point_counts_its_own_pipeline(regime, n_pairs, knobs):
    # the steps share point j's draws, tag times and matches; each step's
    # table is still bitwise that of the full pipeline run for it alone
    steps = _steps(_regime(regime, n_pairs), knobs)
    tables, _ = experiment._central_tables(steps, "montecarlo", (KIND_PUMP,), SHARED_POINTS, n_pairs)
    assert tables.shape == (len(steps), 2, 2, len(SHARED_POINTS))
    for s, step in enumerate(steps):
        for j, (phase_a, phase_b) in enumerate(SHARED_POINTS):
            hist = simulate_point(step, (KIND_PUMP, j), n_pairs, phase_a, phase_b)[3]
            assert np.array_equal(tables[s, ..., j], hist.central), (s, j)


@settings(max_examples=10, deadline=None)
@given(
    n_pairs=st.integers(1, 2_000),
    knobs=st.lists(STEP_KNOBS, min_size=2, max_size=5, unique=True),
    data=st.data(),
)
def test_adding_or_reordering_steps_moves_no_step(n_pairs, knobs, data):
    cfg = _regime("lossy_jitter", n_pairs)
    full, _ = experiment._central_tables(_steps(cfg, knobs), "montecarlo", (KIND_TAU,), SHARED_POINTS, n_pairs)
    order = data.draw(st.permutations(range(len(knobs))))
    some = order[: data.draw(st.integers(1, len(knobs)))]
    part, _ = experiment._central_tables(
        _steps(cfg, [knobs[k] for k in some]), "montecarlo", (KIND_TAU,), SHARED_POINTS, n_pairs
    )
    for i, k in enumerate(some):
        assert np.array_equal(part[i], full[k])


def test_a_pump_sweep_step_is_the_same_in_any_sweep():
    # a linewidth's visibility and sampled CF do not depend on the others swept
    cfg = ideal_config(n_points=8, pairs_per_point=1_000)
    few = fr.run_pump_sweep(cfg, [0.0, 5e9], mode="montecarlo")
    many = fr.run_pump_sweep(cfg, [0.0, 2e9, 5e9, 8e9], mode="montecarlo")
    for name in ("visibility", "visibility_err", "cf_sampled"):
        assert list(few.columns[name]) == [many.columns[name][0], many.columns[name][2]]


@pytest.mark.parametrize(
    "section, change",
    [("source", {"delta": 2e12}), ("umzi_b", {"t_sl": 96e-12}), ("detector", {"efficiency": 0.5})],
)
def test_sweep_steps_that_change_tag_times_are_rejected(section, change):
    # steps share every tag time, so a step may vary only what the fringe term reads
    cfg = ideal_config(n_points=8, pairs_per_point=100)
    other = replace(cfg, **{section: replace(getattr(cfg, section), **change)})
    with pytest.raises(ValueError, match="^sweep steps may differ only in pump linewidth and path overlaps$"):
        experiment._central_tables([cfg, other], "montecarlo", (KIND_PUMP,), SHARED_POINTS, 100)


def test_pump_sweep_takes_its_points_from_the_scan_section(monkeypatch):
    # without an n_points argument each linewidth is a cfg.scan.n_points scan,
    # and the linewidths share each point's pipeline: one per point, not per step
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = experiment._step_tags
    monkeypatch.setattr(experiment, "_step_tags", counted)
    fr.run_pump_sweep(ideal_config(n_points=8), linewidths=[0.0, 5e9], pairs_per_point=200)
    assert len(calls) == 8
    assert all(len(pairs) == 2 for pairs, *_ in calls)


@pytest.mark.parametrize(
    "runner",
    [
        fr.run_local_scan,
        lambda cfg: fr.run_pump_sweep(
            cfg, linewidths=[0.0, 5e9], mode="montecarlo", n_points=8, pairs_per_point=500
        ),
    ],
    ids=["local-scan", "pump"],
)
def test_montecarlo_points_free_the_previous_points_pipeline(runner, monkeypatch):
    # when point k enters the pipeline, point k-1's pairs, tag streams and
    # tables, of every step, are already gone: a scan holds one point's
    # pipeline at a time
    alive = []

    def tracked(pairs, *args, **kwargs):
        assert [ref() for ref in alive] == [None] * len(alive), "a previous point is still held"
        tags_a, tags_b = real(pairs, *args, **kwargs)
        assert len(pairs) == len(tags_b)
        alive.extend(weakref.ref(obj) for obj in (*pairs, tags_a, *tags_b))
        return tags_a, tags_b

    real = experiment._step_tags
    monkeypatch.setattr(experiment, "_step_tags", tracked)
    runner(ideal_config(n_points=8, pairs_per_point=500))
    n_steps = 1 if runner is fr.run_local_scan else 2
    assert len(alive) == 8 * (1 + 2 * n_steps)


@pytest.mark.parametrize(
    "runner",
    [
        lambda cfg: fr.run_fringe_scan(cfg, mode="montecarlo"),
        lambda cfg: fr.run_chsh(cfg, mode="montecarlo"),
        lambda cfg: fr.run_tau_decay(cfg, mode="montecarlo"),
        lambda cfg: fr.run_pump_sweep(cfg, mode="montecarlo", n_points=8, pairs_per_point=2_000),
        fr.run_local_scan,
    ],
    ids=["fringe-scan", "chsh", "tau-decay", "pump", "local-scan"],
)
def test_montecarlo_runners_fail_on_pair_times_past_the_grid_before_any_tag(runner, monkeypatch):
    def no_detection_draws(*args, **kwargs):
        raise AssertionError("a detection draw was made")

    monkeypatch.setattr(detection, "item_uniforms", no_detection_draws)
    far = _at_pair_rate(ideal_config(n_points=8, pairs_per_point=2_000), 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"^source\.pair_rate = 0\.001 and .* carry 2000 pairs'"):
            runner(far)
