"""Coincidence-selected rates of the two-photon state.

Coincidence detection at equal times keeps only the short-short and long-long
path products of the two interferometers; their superposition produces the
nonlocal fringe

    R(port_a, port_b) = (1/8) (1 + s_a s_b V cos(phi' + psi'))

with port sign s = +1 for port 5 and -1 for port 6, while the short-long and
long-short products land in time-shifted side peaks with flat probability
1/16 each.  Because the signal and idler detunings are opposite, the joint
phase phi' + psi' reduces to the sum of the two local settings plus a pump
jitter term: the fringe is immune to the per-pair detuning.

``V`` is the product gamma_A gamma_B of the two interferometers' path
overlaps; a pair-overlap envelope, as tau-decay imposes, is a factor of
gamma_B.  Pump jitter enters through the joint phase instead, so the two
degradation channels stay orthogonal.  Over the Gaussian ensemble the rates
have a closed-form mean, :func:`expected_rates`, whose damping factor
:func:`fringe_visibility` scales by the path overlaps.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import UndefinedCorrelationError
from .interferometer import LN2, TWO_PI, UmziConfig
from .rng import KIND_CHSH
from .source import FWHM_TO_SIGMA, SpectralModel, sample_pairs


def joint_phase(df, dp, cfg_a: UmziConfig, cfg_b: UmziConfig):
    """phi'_A + psi'_B with the detuning cancellation done analytically.

    The signal (party A) carries detuning df + dp/2, the idler (party B)
    carries dp/2 - df.  Summing the detuning terms before multiplying by
    2*pi keeps the cancellation exact in floating point: for dp == 0 and
    equal delays the result is bitwise phase_a + phase_b, independent of df.
    """
    det_a = df + 0.5 * dp
    det_b = 0.5 * dp - df
    return TWO_PI * (det_a * cfg_a.t_sl + det_b * cfg_b.t_sl) + (cfg_a.phase + cfg_b.phase)


def fringe_visibility(factor, cfg_a: UmziConfig, cfg_b: UmziConfig):
    """A damping factor (a number or an array) times the path overlaps
    gamma_A * gamma_B: the visibility of a closed-form mean fringe.

    The factor must lie in [0, 1]; it is checked before the overlaps shrink
    it, so a factor of 1.04 fails at any gamma.
    """
    given = np.asarray(factor)
    if not np.all((given >= 0.0) & (given <= 1.0)):  # NaN fails too
        raise ValueError(f"factor must lie in [0, 1], got {factor}")
    return factor * (cfg_a.gamma * cfg_b.gamma)


def fringe_term(df, dp, cfg_a: UmziConfig, cfg_b: UmziConfig):
    """V cos(phi' + psi') per pair, V = gamma_A gamma_B; the central rate of
    port pair (a, b) is (1/8)(1 + s_a s_b V cos(phi' + psi'))."""
    visibility = cfg_a.gamma * cfg_b.gamma
    return visibility * np.cos(joint_phase(np.asarray(df, dtype=np.float64), dp, cfg_a, cfg_b))


def fringe_damping(model: SpectralModel, cfg_a: UmziConfig, cfg_b: UmziConfig) -> float:
    """The ensemble's damping of the mean fringe term.

    The joint phase is theta + 2 pi [df (t_A - t_B) + dp (t_A + t_B)/2], theta =
    phase_a + phase_b, with df and dp independent Gaussians of standard
    deviations sigma_f = delta * FWHM_TO_SIGMA and sigma_p = pump_linewidth *
    FWHM_TO_SIGMA, so the mean fringe term is V cos(theta) times this damping,
    exp(-2 pi^2 [sigma_f^2 (t_A - t_B)^2 + sigma_p^2 ((t_A + t_B)/2)^2])."""
    spread_f = model.delta * FWHM_TO_SIGMA * (cfg_a.t_sl - cfg_b.t_sl)
    spread_p = model.pump_linewidth * FWHM_TO_SIGMA * 0.5 * (cfg_a.t_sl + cfg_b.t_sl)
    return math.exp(-2.0 * math.pi**2 * (spread_f**2 + spread_p**2))


def expected_rates(model: SpectralModel, cfg_a: UmziConfig, cfg_b: UmziConfig):
    """The exact ensemble mean of the central rates, (2, 2) over (port_a, port_b):
    the fringe term at zero detunings, damped by :func:`fringe_damping`."""
    fringe = fringe_damping(model, cfg_a, cfg_b) * fringe_term(0.0, 0.0, cfg_a, cfg_b)
    same, diff = 0.125 * (1.0 + fringe), 0.125 * (1.0 - fringe)
    return np.array([[same, diff], [diff, same]])


def ensemble_fringe(
    model: SpectralModel,
    cfg_a: UmziConfig,
    cfg_b: UmziConfig,
    n_pairs: int,
    seed: int = 0,
    stream=(0,),
) -> tuple[np.ndarray, np.ndarray]:
    """The mean central-peak rates over n_pairs sampled pairs and their
    standard errors, each (2, 2) over (port_a, port_b), index 0 port 5.

    The sampled estimator of :func:`expected_rates`, kept as its check and
    for the benchmark tracer (``perfbench/spans.py``), which binds it by name.
    With pump_linewidth = 0 and equal delays every pair's rate is the same.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    pairs = sample_pairs(model, n_pairs, seed, stream=stream)
    fringe = fringe_term(pairs.df, pairs.dp, cfg_a, cfg_b)
    same, diff = 0.125 * (1.0 + fringe), 0.125 * (1.0 - fringe)
    mean = np.array([same.mean(), diff.mean()])
    stderr = np.array([same.std(), diff.std()]) / math.sqrt(n_pairs)
    return np.array([mean, mean[::-1]]), np.array([stderr, stderr[::-1]])


def correlation_coefficient(rates: np.ndarray) -> float:
    """E = (R55 + R66 - R56 - R65) / (R55 + R66 + R56 + R65)."""
    r = np.asarray(rates, dtype=np.float64)
    total = float(r.sum())
    if total <= 0.0:
        raise UndefinedCorrelationError("no central coincidences; correlation undefined")
    return float((r[0, 0] + r[1, 1] - r[0, 1] - r[1, 0]) / total)


def chsh_value(
    model: SpectralModel,
    cfg_a: UmziConfig,
    cfg_b: UmziConfig,
    settings: tuple[float, float, float, float],
    n_pairs: int = 10_000,
    seed: int = 0,
) -> float:
    """CHSH sum over four phase settings (a, a', b, b'), sampled with
    :func:`ensemble_fringe` from ``(KIND_CHSH, k)`` for the k-th combination,
    as ``run_chsh`` keys its points, and kept for the same reasons.

    S = |E(a,b) + E(a,b') + E(a',b) - E(a',b')|; with the sum-phase fringe
    E(x, y) = V cos(x + y), the settings (0, pi/2, -pi/4, pi/4) reach 2*sqrt(2).
    """
    corr = {}
    for k, (name, (pa, pb)) in enumerate(chsh_combinations(settings).items()):
        cfgs = replace(cfg_a, phase=pa), replace(cfg_b, phase=pb)
        rates, _ = ensemble_fringe(model, *cfgs, n_pairs, seed=seed, stream=(KIND_CHSH, k))
        corr[name] = correlation_coefficient(rates)
    return chsh_sum(corr)


def chsh_combinations(settings) -> dict[str, tuple[float, float]]:
    """The four (phase_a, phase_b) combinations of the settings (a, a', b, b'), by name."""
    a, a_prime, b, b_prime = settings
    return {"ab": (a, b), "ab'": (a, b_prime), "a'b": (a_prime, b), "a'b'": (a_prime, b_prime)}


def chsh_sum(corr: dict[str, float]) -> float:
    """S = |E(a,b) + E(a,b') + E(a',b) - E(a',b')| over the named correlations."""
    return abs(corr["ab"] + corr["ab'"] + corr["a'b"] - corr["a'b'"])


def overlap_envelope(tau, delta: float):
    """Pair wavepacket overlap at relative offset tau.

    Amplitude autocorrelation of a Gaussian wavepacket whose intensity
    profile has FWHM 1/delta: exp(-2 ln2 (delta tau)^2).  Reaches 1/2 near
    |tau| ~ 0.6/delta, realizing the fringe loss on the scale of the inverse
    ensemble bandwidth.
    """
    return np.exp(-2.0 * LN2 * np.square(np.asarray(tau, dtype=np.float64) * delta))
