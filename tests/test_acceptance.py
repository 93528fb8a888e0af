"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion.  The acceptance configuration is the package default physics
(delta = 1 THz, t_sl = 100 ps, jitter = 2 ps, eta = 1) with perfect path
overlap and a fixed seed.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import franson as fr
from franson.correlation import fringe_term
from franson.correlator import sweep_matches
from franson.detection import _detect
from franson.interferometer import local_intensities
from franson.source import sample_pairs

from conftest import ideal_config, simulate_point

ACCEPT_SEED = 20260810

PORT_PAIRS = ((5, 5), (5, 6), (6, 5), (6, 6))


def report(criterion: int, description: str) -> None:
    print(f"ACCEPTANCE {criterion:>2}: PASS - {description}")


@pytest.fixture(scope="session")
def cfg():
    return ideal_config(seed=ACCEPT_SEED, n_points=16, pairs_per_point=100_000)


@pytest.fixture(scope="session")
def mc_fringe(cfg):
    t0 = time.perf_counter()
    result = fr.run_fringe_scan(cfg, mode="montecarlo")
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def phase_points(cfg):
    """Eight full pipeline runs across one fringe period, each with the
    per-pair detection step that its tags were built from."""
    points = []
    for k, theta in enumerate(np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)):
        pairs, tags_a, tags_b, hist = simulate_point(
            cfg, stream=(900_000 + k,), n_pairs=cfg.scan.pairs_per_point, phase_a=theta, phase_b=0.0
        )
        cfg_a, cfg_b = replace(cfg.umzi_a, phase=float(theta)), replace(cfg.umzi_b, phase=0.0)
        per_pair = _detect(pairs, cfg_a, cfg_b, cfg.detector, cfg.seed, stream=(900_000 + k,))
        points.append((per_pair, tags_a, tags_b, hist))
    return points


def test_criterion_1_nonlocal_fringe_law(cfg, mc_fringe):
    analytic = fr.run_fringe_scan(cfg, mode="analytic")
    expected = 0.125 * (1.0 + np.cos(analytic.x))
    np.testing.assert_allclose(analytic.columns["rate_55"], expected, atol=1e-9)

    mc, runtime = mc_fringe
    assert mc.visibility >= 0.99
    assert abs(mc.phase_offset) < 0.02
    assert runtime < 30.0
    report(
        1,
        f"analytic rate = (1/8)(1+cos) to 1e-9; MC V = {mc.visibility:.4f} >= 0.99, "
        f"|phase| = {abs(mc.phase_offset):.4f} < 0.02 rad, runtime {runtime:.1f}s < 30s",
    )


def test_criterion_2_local_uniformity_with_nonlocal_fringe(cfg):
    assert cfg.source.delta * cfg.umzi_a.t_sl == pytest.approx(100.0)
    res = fr.run_local_scan(cfg)
    v_local_a = res.extras["visibility_local_a"]
    v_local_b = res.extras["visibility_local_b"]
    v_singles_a = res.extras["visibility_singles_a"]
    v_singles_b = res.extras["visibility_singles_b"]
    v_nonlocal = res.extras["visibility_nonlocal"]
    assert v_local_a < 0.02 and v_local_b < 0.02
    assert v_singles_a < 0.02 and v_singles_b < 0.02
    assert v_nonlocal > 0.95
    report(
        2,
        f"delta*t_sl = 100: local visibilities ({v_local_a:.4f}, {v_local_b:.4f}) < 0.02 "
        f"while the same tags give nonlocal V = {v_nonlocal:.4f} > 0.95",
    )


def test_criterion_3_detuning_immunity_is_bitwise(cfg):
    pairs = sample_pairs(cfg.source, 2_000, seed=ACCEPT_SEED)
    assert np.unique(pairs.df).size > 1_900  # detunings genuinely differ
    # every central rate is a function of the pair's fringe term alone
    fringe = fringe_term(pairs.df, pairs.dp, cfg.umzi_a, replace(cfg.umzi_b, phase=0.7))
    assert np.unique(fringe).size == 1
    report(3, "central rates bit-identical across 2000 pairs with distinct detunings")


def test_criterion_4_coincidence_selection(cfg, phase_points):
    t_sl_ps = 100
    w_ps = 10
    n = cfg.scan.pairs_per_point
    side_totals = {pp: [] for pp in PORT_PAIRS}
    for per_pair, tags_a, tags_b, hist in phase_points:
        # per-pair cross-check: pairs with both tags inside the central window
        # must all be central-branch (no SL/LS leaks through post-selection)
        branch, _, (_, t_a, kept_a), (t_b, kept_b) = per_pair
        assert np.array_equal(np.sort(t_a[kept_a]), tags_a.time_ps)
        assert np.array_equal(np.sort(t_b[kept_b]), tags_b.time_ps)
        same_pair = kept_a & kept_b & (np.abs(t_a - t_b) <= w_ps)
        assert np.all(branch[same_pair] == 0)
        # the other window matches are accidental (cross-pair) coincidences,
        # a rare background
        window = sweep_matches(tags_a.time_ps, tags_b.time_ps, -w_ps, w_ps)
        accidentals = sum(ia.size for ia, _ in window) - int(same_pair.sum())
        assert 0 <= accidentals < 30

        # side peaks sit at tau = +-t_sl
        centers = hist.bin_centers_ps()
        pooled = hist.counts.sum(axis=(0, 1))
        plus = (centers > w_ps)
        minus = (centers < -w_ps)
        assert abs(centers[plus][np.argmax(pooled[plus])] - t_sl_ps) <= hist.bin_width_ps
        assert abs(centers[minus][np.argmax(pooled[minus])] + t_sl_ps) <= hist.bin_width_ps

        for (pa, pb) in PORT_PAIRS:
            side_totals[(pa, pb)].append(
                int(hist.side_plus[pa - 5, pb - 5] + hist.side_minus[pa - 5, pb - 5])
            )

    # side totals are phase-flat: each point within 3 binomial sigma of N/8
    p_side = 1.0 / 8.0
    sigma = math.sqrt(n * p_side * (1.0 - p_side))
    for pp, totals in side_totals.items():
        assert max(abs(t - n * p_side) for t in totals) < 3.0 * sigma
    report(
        4,
        "central window has zero same-pair SL/LS events; side peaks at +-t_sl, "
        "totals phase-flat within 3 sigma",
    )


def test_criterion_5_post_selection_keeps_half(cfg, phase_points):
    fractions = []
    for _, _, _, hist in phase_points:
        total = hist.central.sum() + hist.side_plus.sum() + hist.side_minus.sum()
        sigma = 0.5 / math.sqrt(total)
        assert abs(hist.central_fraction - 0.5) < 3.0 * sigma
        fractions.append(hist.central_fraction)
    report(
        5,
        f"central fraction of triple-peak coincidences = "
        f"{np.mean(fractions):.4f} (0.50 +- 3 binomial sigma at every phase)",
    )


def test_criterion_6_crossover_oracle(cfg):
    res = fr.run_crossover_sweep(cfg, pairs_per_point=100_000)
    assert res.x.size == 10
    assert res.x[0] == pytest.approx(0.01) and res.x[-1] == pytest.approx(100.0)
    deviation = np.abs(res.columns["visibility_local"] - res.columns["visibility_oracle"])
    assert np.max(deviation) <= 0.02
    report(
        6,
        f"local visibility matches exp(-(pi delta t_sl)^2 / (4 ln 2)) at 10 "
        f"log-spaced points; max deviation {np.max(deviation):.4f} <= 0.02",
    )


def test_criterion_7_pump_linewidth_degradation(cfg):
    res = fr.run_pump_sweep(cfg, mode="montecarlo", pairs_per_point=20_000)
    vis = res.columns["visibility"]
    cf = res.columns["cf_sampled"]
    n_total = 16 * res.pairs_per_point
    sigma = np.sqrt(res.columns["visibility_err"] ** 2 + (1.0 - cf**2) / (2.0 * n_total))
    assert vis.size == 5
    assert np.all(np.abs(vis - cf) <= 3.0 * sigma)
    assert np.all(np.diff(vis) <= 0.0)
    report(
        7,
        "nonlocal visibility tracks the sampled-pump characteristic function "
        f"within 3 sigma at 5 linewidths and is monotone (V: {np.round(vis, 3).tolist()})",
    )


def test_criterion_8_tau_offset_decay(cfg):
    small = replace(cfg, scan=replace(cfg.scan, pairs_per_point=20_000))
    res = fr.run_tau_decay(small, mode="montecarlo")
    vis = res.columns["visibility"]
    envelope = res.columns["envelope_analytic"]
    delta = cfg.source.delta
    assert vis[0] >= 0.99
    assert np.all(np.diff(envelope) <= 0.0)
    # Monotone decay, strict wherever the analytic drop exceeds 5 sigma of the
    # step.  On the tail (envelope 4e-2 down to 1e-5) the fitted V is noise, so
    # there a rise must stay within 3 sigma of the step: a false alarm below
    # 0.14% per step.
    step_sigma = np.hypot(res.columns["visibility_err"][:-1], res.columns["visibility_err"][1:])
    resolved = -np.diff(envelope) > 5.0 * step_sigma
    assert np.count_nonzero(resolved) >= 3
    assert np.all(np.diff(vis)[resolved] <= 0.0)
    assert np.all(np.diff(vis)[~resolved] <= 3.0 * step_sigma[~resolved])
    at_inverse_delta = vis[np.argmin(np.abs(res.x - 1.0 / delta))]
    assert at_inverse_delta < 0.5
    at_three = vis[np.argmin(np.abs(res.x - 3.0 / delta))]
    assert at_three < 0.1
    np.testing.assert_allclose(vis, res.columns["envelope_analytic"], atol=0.05)
    report(
        8,
        f"visibility monotone in |tau|: V(0) = {vis[0]:.3f}, V(1/delta) = "
        f"{at_inverse_delta:.3f} < 0.5, V(3/delta) = {at_three:.3f}",
    )


def test_criterion_9_structural_invariants(cfg):
    # probability conservation and no-signaling at 1e-12 over a setting grid:
    # beside the eight side cells of 1/16, the central cells carry 1/2 and
    # each party's port marginal of them 1/4, whatever the remote phase
    df, dp = (grid.ravel() for grid in np.meshgrid([-3e11, 0.0, 7e11], [0.0, 2e9]))
    for phase_b in (0.0, 0.4, 2.0):
        cfg_b = replace(cfg.umzi_b, phase=phase_b, gamma=0.9)  # V = 0.9
        for pair_df, pair_dp in zip(df, dp):
            fringe = fringe_term(pair_df, pair_dp, cfg.umzi_a, cfg_b)
            rates = 0.125 * (1.0 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * fringe)
            assert abs(rates.sum() - 0.5) <= 1e-12
            np.testing.assert_allclose(rates.sum(axis=1), 0.25, atol=1e-12)
            np.testing.assert_allclose(rates.sum(axis=0), 0.25, atol=1e-12)

    # I5 + I6 = 1 to 1e-12 across settings and overlaps
    for phi in np.linspace(-7.0, 7.0, 41):
        for gamma in (0.0, 0.3, 1.0):
            i5, i6 = local_intensities(phi, gamma)
            assert abs((i5 + i6) - 1.0) <= 1e-12

    # seed determinism: byte-identical reruns
    small = ideal_config(seed=ACCEPT_SEED, n_points=8, pairs_per_point=5_000)
    rerun_a = fr.run_fringe_scan(small, mode="montecarlo")
    rerun_b = fr.run_fringe_scan(small, mode="montecarlo")
    assert rerun_a.to_csv_text().encode() == rerun_b.to_csv_text().encode()
    report(9, "conservation and no-signaling at 1e-12, I5+I6 = 1 at 1e-12, byte-identical reruns")


def test_criterion_10_chsh(cfg):
    analytic = fr.run_chsh(cfg, mode="analytic")
    assert abs(analytic.s_value - 2.0 * math.sqrt(2.0)) < 1e-6
    mc = fr.run_chsh(cfg, mode="montecarlo")
    assert mc.s_value > 2.7
    report(
        10,
        f"analytic S = {analytic.s_value:.9f} (= 2 sqrt 2 to 1e-6); "
        f"MC S = {mc.s_value:.4f} +- {mc.s_err:.4f} > 2.7 at 1e5 pairs/setting",
    )
