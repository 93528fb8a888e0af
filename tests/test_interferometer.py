"""Interferometer transfer, local intensities and ensemble dephasing."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from franson.fitting import fit_cosine
from franson.interferometer import (
    ENSEMBLE_BLOCK,
    UmziConfig,
    default_overlap,
    ensemble_local_fringe,
    local_intensities,
    local_visibility_oracle,
    regime_flags,
)
from franson.source import SpectralModel, _draw, sample_pairs

from oracles import port_amplitudes


def umzi(t_sl=100e-12, phase=0.0, gamma=1.0):
    return UmziConfig(t_sl=t_sl, phase=phase, gamma=gamma)


def model_with(delta_t_sl: float, t_sl=100e-12) -> SpectralModel:
    delta = delta_t_sl / t_sl
    return SpectralModel(f0=3.7e14, delta=delta, tau_ind=max(10e-9, 2.0 / delta), pair_rate=1e6)


def test_transfer_at_zero_phase():
    amps = port_amplitudes(0.0, umzi(phase=0.0))
    assert amps[5] == (0.5, 0.5)
    assert amps[6] == (0.5j, -0.5j)


def test_transfer_at_pi_flips_the_long_path_sign():
    amps = port_amplitudes(0.0, umzi(phase=math.pi))
    assert amps[5][0] == 0.5
    assert amps[5][1] == pytest.approx(-0.5, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    detuning=st.floats(-5e12, 5e12),
    phase=st.floats(-10.0, 10.0),
)
def test_transfer_is_unitary(detuning, phase):
    amps = port_amplitudes(detuning, umzi(phase=phase))
    assert sum(abs(c) ** 2 for c in (*amps[5], *amps[6])) == pytest.approx(1.0, abs=1e-12)
    # the two paths recombine coherently into the local intensities
    i5, i6 = local_intensities(2.0 * math.pi * (detuning * 100e-12) + phase, 1.0)
    assert abs(sum(amps[5])) ** 2 == pytest.approx(i5, abs=1e-12)
    assert abs(sum(amps[6])) ** 2 == pytest.approx(i6, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    phi=st.floats(-50.0, 50.0),
    gamma=st.floats(0.0, 1.0),
)
def test_intensities_conserve_energy(phi, gamma):
    i5, i6 = local_intensities(phi, gamma)
    assert i5 >= 0.0 and i6 >= 0.0
    assert i5 + i6 == pytest.approx(1.0, abs=1e-12)


def test_intensity_examples():
    assert local_intensities(0.0, 1.0) == pytest.approx((1.0, 0.0), abs=1e-12)
    i5, i6 = local_intensities(1.234, 0.0)
    assert (i5, i6) == (0.5, 0.5)


@settings(max_examples=50, deadline=None)
@given(detuning=st.floats(-1e12, 1e12), phase=st.floats(-6.0, 6.0))
def test_phase_periodicity(detuning, phase):
    cfg_a = umzi(phase=phase)
    cfg_b = umzi(phase=phase + 2.0 * math.pi)
    pa, pb = port_amplitudes(detuning, cfg_a), port_amplitudes(detuning, cfg_b)
    for ca, cb in zip((*pa[5], *pa[6]), (*pb[5], *pb[6])):
        assert ca == pytest.approx(cb, abs=1e-9)
    phi = 2.0 * math.pi * (detuning * cfg_a.t_sl) + phase
    ia, ib = local_intensities(phi, 1.0), local_intensities(phi + 2.0 * math.pi, 1.0)
    assert ia[0] == pytest.approx(ib[0], abs=1e-9)


def test_dephased_ensemble_mean_intensity_is_flat():
    # delta * t_sl = 100: mean port-5 intensity is 1/2 at every setting
    model = model_with(100.0)
    cfg = umzi()
    pairs = sample_pairs(model, 100_000, seed=3)
    for phase in (0.0, 0.7, math.pi / 2, math.pi, 4.5):
        phi = 2.0 * math.pi * (pairs.detuning_signal * cfg.t_sl) + phase
        i5 = local_intensities(phi, cfg.gamma)[0]
        mc_err = i5.std() / math.sqrt(i5.size)
        assert abs(i5.mean() - 0.5) < 3.0 * mc_err


def test_local_fringe_vanishes_in_the_dephased_regime():
    vis = ensemble_local_fringe([model_with(100.0)], umzi(), n_pairs=50_000, seed=4)[0]
    assert vis < 0.01


def test_local_fringe_survives_in_the_coherent_regime():
    vis = ensemble_local_fringe([model_with(0.01)], umzi(), n_pairs=50_000, seed=4)[0]
    assert vis > 0.99


def test_local_fringe_matches_characteristic_function_oracle():
    model = model_with(1.0)
    vis = ensemble_local_fringe([model], umzi(), n_pairs=100_000, seed=5)[0]
    oracle = local_visibility_oracle(model.delta, 100e-12)
    assert vis == pytest.approx(oracle, abs=0.02)


def test_local_fringe_scales_with_gamma():
    model = model_with(0.01)
    half = ensemble_local_fringe([model], umzi(gamma=0.5), n_pairs=20_000, seed=6)[0]
    assert half == pytest.approx(0.5, abs=0.02)


B = ENSEMBLE_BLOCK
SHARED_GRID = [0.01, 1.0, 100.0]


@pytest.mark.parametrize("pump_linewidth", [0.0, 2e9])
@pytest.mark.parametrize("n_pairs", [B - 1, B, B + 1, 3 * B + 7])
def test_blocked_local_fringe_matches_the_one_shot_mean(pump_linewidth, n_pairs):
    # block by block each model's draws are those of one call; only the order
    # of the phasor sum differs from the one-shot mean
    models = [replace(model_with(x), pump_linewidth=pump_linewidth) for x in SHARED_GRID]
    cfg = umzi(gamma=0.8)
    vis = ensemble_local_fringe(models, cfg, n_pairs=n_pairs, seed=11, stream=(2, 5))
    _, draws = _draw(models, n_pairs, 11, (2, 5), 0)
    assert len(vis) == len(draws) == len(models)
    for got, (df, dp) in zip(vis, draws):
        phasors = np.exp(1j * 2.0 * math.pi * (df + 0.5 * dp) * cfg.t_sl)
        assert got == pytest.approx(cfg.gamma * abs(phasors.mean()), rel=0, abs=1e-15)


@pytest.mark.parametrize("pump_linewidth", [0.0, 2e9])
@pytest.mark.parametrize("n_pairs", [B - 1, B, B + 1, 3 * B + 7])
def test_each_model_of_a_shared_draw_is_its_one_model_call(pump_linewidth, n_pairs):
    # the models share the draws: model k's visibility is bitwise that of the
    # call that holds model k alone, so adding models moves no other model's
    # value (test_source checks the same of the detunings)
    models = [replace(model_with(x), pump_linewidth=pump_linewidth) for x in SHARED_GRID]
    cfg = umzi(gamma=0.9)
    shared = ensemble_local_fringe(models, cfg, n_pairs=n_pairs, seed=13, stream=(3,))
    for k, model in enumerate(models):
        assert shared[k] == ensemble_local_fringe([model], cfg, n_pairs=n_pairs, seed=13, stream=(3,))[0]


def test_local_fringe_memory_is_flat_in_the_pair_count():
    def traced_peak(n_pairs):
        tracemalloc.start()
        try:
            ensemble_local_fringe([model_with(1.0)], umzi(), n_pairs=n_pairs, seed=12)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert abs(traced_peak(64 * B) - traced_peak(B)) < 0.5 * 2**20


@pytest.mark.parametrize("n_pairs", [0, -3])
def test_local_fringe_rejects_an_empty_ensemble(n_pairs):
    with pytest.raises(ValueError, match=f"^n_pairs must be >= 1, got {n_pairs}$"):
        ensemble_local_fringe([model_with(1.0)], umzi(), n_pairs=n_pairs)


def test_local_visibility_oracle_is_monotone_non_increasing():
    grid = np.geomspace(1e-3, 1e3, 40)
    values = [local_visibility_oracle(x / 100e-12, 100e-12) for x in grid]
    assert np.all(np.diff(values) <= 0.0)


def test_sampled_local_visibility_is_monotone_within_noise():
    grid = np.geomspace(0.01, 100.0, 8)
    vis = [
        ensemble_local_fringe([model_with(x)], umzi(), n_pairs=20_000, seed=7)[0]
        for x in grid
    ]
    assert np.all(np.diff(vis) <= 0.01)


@pytest.mark.parametrize("delta_t_sl, gamma", [(0.01, 1.0), (0.5, 0.7), (1.0, 1.0), (3.0, 0.4)])
def test_local_fringe_equals_the_fitted_phase_curve(delta_t_sl, gamma):
    # the reference: the ensemble-mean port-5 intensity at 16 phase settings,
    # fitted with a cosine; its visibility is the local fringe
    model, cfg = model_with(delta_t_sl), umzi(gamma=gamma)
    pairs = sample_pairs(model, 2_000, seed=8, stream=(3,))
    phases = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    angle = 2.0 * math.pi * (pairs.detuning_signal * cfg.t_sl)
    curve = [local_intensities(angle + phase, cfg.gamma)[0].mean() for phase in phases]
    reference = fit_cosine(phases, np.asarray(curve)).visibility
    vis = ensemble_local_fringe([model], cfg, n_pairs=2_000, seed=8, stream=(3,))[0]
    assert vis == pytest.approx(reference, abs=1e-12)


def test_regime_flags():
    cfg = umzi()
    assert regime_flags(cfg, model_with(100.0)) == {
        "incoherent_ensemble": True,
        "individually_coherent": True,
    }
    narrow = SpectralModel(f0=3.7e14, delta=1e10, tau_ind=0.5e-9, pair_rate=1e6)
    flags = regime_flags(cfg, narrow)
    assert flags == {"incoherent_ensemble": False, "individually_coherent": False}


def test_default_overlap_decays_with_delay():
    tau_ind = 10e-9
    assert default_overlap(0.0, tau_ind) == 1.0
    assert default_overlap(tau_ind, tau_ind) == pytest.approx(0.5)
    assert default_overlap(100e-12, tau_ind) > 0.9999


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(t_sl=0.0), "t_sl"),
        (dict(gamma=1.5), "gamma"),
        (dict(gamma=-0.1), "gamma"),
        (dict(phase=math.inf), "phase"),
    ],
)
def test_umzi_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        umzi(**kwargs).validate()


def test_transfer_rejects_non_finite_detuning():
    with pytest.raises(ValueError, match="finite"):
        port_amplitudes(math.nan, umzi())
