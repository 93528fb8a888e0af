"""Single-photon transfer through an unbalanced Mach-Zehnder interferometer.

Each party's interferometer splits the photon over a short (S) and a long (L)
path with delay difference ``t_sl`` and recombines them on a symmetric
beam splitter, (1/sqrt 2) [[1, i], [i, 1]].  The photon leaves through port 5
with probability (1/2)(1 + gamma cos phi') and through port 6 otherwise,
where gamma is the path overlap and phi' the accumulated phase

    phi' = 2*pi * detuning * t_sl + phase

where ``phase`` is the party's controllable setting and the carrier term
``2*pi * f0 * t_sl`` is absorbed into the setting's calibration (only the
detuning part varies pair to pair).  Phases are radians throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .source import SpectralModel, sample_detunings

TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)

# Regime thresholds: the ensemble is dephased once delta * t_sl exceeds this,
# and a single photon still self-interferes while t_sl stays below this
# fraction of its coherence time.
INCOHERENT_ENSEMBLE_MIN = 10.0
INDIVIDUAL_COHERENT_MAX = 0.1

# Pairs drawn and reduced at a time by ensemble_local_fringe, so its working
# memory stays a few hundred kB per model at any pair count.
ENSEMBLE_BLOCK = 2**13


def default_overlap(t_sl: float, tau_ind: float) -> float:
    """Path overlap <S|L> of a photon of coherence time tau_ind delayed by t_sl.

    Past 64 coherence times the overlap is 0.0 (the exp underflows from 33 on),
    so the ratio is capped there rather than squared into an OverflowError."""
    return math.exp(-(min(abs(t_sl / tau_ind), 64.0) ** 2) * LN2)


@dataclass(frozen=True)
class UmziConfig:
    """One party's interferometer.

    t_sl: long-minus-short delay (s).
    phase: controllable phase setting (rad).
    gamma: path overlap <S|L> in [0, 1]; visibility of this party's
        single-photon interference.
    """

    t_sl: float = 100e-12
    phase: float = 0.0
    gamma: float = 1.0

    def validate(self) -> list[str]:
        if not self.t_sl > 0:
            raise ValueError(f"t_sl must be > 0, got {self.t_sl}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase}")
        return []


def regime_flags(cfg: UmziConfig, model: SpectralModel) -> dict[str, bool]:
    """Diagnostic flags for the operating regime (computed, never enforced)."""
    return {
        "incoherent_ensemble": model.delta * cfg.t_sl > INCOHERENT_ENSEMBLE_MIN,
        "individually_coherent": cfg.t_sl < INDIVIDUAL_COHERENT_MAX * model.tau_ind,
    }


def local_intensities(phi_prime, gamma):
    """Mean output intensities (I5, I6) for unit input; I5 + I6 == 1."""
    fringe = 0.5 * (gamma * np.cos(phi_prime))
    return 0.5 + fringe, 0.5 - fringe


def _phasor_sum(freqs, lag: float) -> complex:
    """Sum of exp(i 2 pi freqs lag) over the sampled frequencies."""
    return np.exp(1j * TWO_PI * freqs * lag).sum()


def sampled_cf(freqs, lag: float) -> complex:
    """Empirical characteristic function <exp(i 2 pi freqs lag)> of the
    sampled frequencies at the given lag."""
    return _phasor_sum(freqs, lag) / np.size(freqs)


def ensemble_local_fringe(
    models: list[SpectralModel],
    cfg: UmziConfig,
    n_pairs: int = 20_000,
    seed: int = 0,
    stream=(0,),
) -> list[float]:
    """Visibility of the signal photons' ensemble-mean port-5 intensity through
    ``cfg`` for each of ``models``: the mean of (1/2)(1 + gamma cos(2 pi
    detuning t_sl + phase)) is a cosine in the phase of amplitude gamma
    |sampled_cf(detunings, t_sl)|.

    The models share the draws of :func:`sample_detunings`, so each value is
    bitwise that of a one-model call.  They are drawn and summed
    ``ENSEMBLE_BLOCK`` pairs at a time, bitwise those of one ``n_pairs``
    call, and each sum is divided once by ``n_pairs``: only the summation
    order differs from ``sampled_cf``.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    totals = [0j] * len(models)
    for lo in range(0, n_pairs, ENSEMBLE_BLOCK):
        n = min(ENSEMBLE_BLOCK, n_pairs - lo)
        for m, (df, dp) in enumerate(sample_detunings(models, n, seed, stream=stream, start=lo)):
            totals[m] += _phasor_sum(df + 0.5 * dp, cfg.t_sl)
    return [float(cfg.gamma * abs(total / n_pairs)) for total in totals]


def local_visibility_oracle(delta: float, t_sl: float) -> float:
    """Closed-form |characteristic function| of a Gaussian detuning ensemble.

    For detunings with FWHM delta, the local fringe washes out as
    exp(-(pi * delta * t_sl)**2 / (4 ln 2)).
    """
    return math.exp(-((math.pi * delta * t_sl) ** 2) / (4.0 * LN2))
