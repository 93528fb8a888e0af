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

from .fitting import fit_cosine
from .source import SpectralModel, sample_pairs

TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)

# Regime thresholds: the ensemble is dephased once delta * t_sl exceeds this,
# and a single photon still self-interferes while t_sl stays below this
# fraction of its coherence time.
INCOHERENT_ENSEMBLE_MIN = 10.0
INDIVIDUAL_COHERENT_MAX = 0.1


def default_overlap(t_sl: float, tau_ind: float) -> float:
    """Path overlap <S|L> of a photon of coherence time tau_ind delayed by t_sl."""
    return math.exp(-((t_sl / tau_ind) ** 2) * LN2)


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


def ensemble_local_fringe(
    model: SpectralModel,
    cfg: UmziConfig,
    phases: np.ndarray,
    n_pairs: int = 20_000,
    seed: int = 0,
    stream=0,
) -> float:
    """Visibility of the per-pair port-5 intensity of the signal photons
    through ``cfg``, averaged over a sampled ensemble and fitted over the
    phase settings.

    It equals gamma times the magnitude of the detuning distribution's
    characteristic function at lag t_sl, up to sampling error.
    """
    phases = np.asarray(phases, dtype=np.float64)
    if phases.size < 8:
        raise ValueError(f"phase grid needs at least 8 points, got {phases.size}")
    pairs = sample_pairs(model, n_pairs, seed, stream=stream)
    # mean over pairs of 1/2 (1 + gamma cos(2 pi detuning t_sl + phase))
    angle = TWO_PI * (pairs.detuning_signal * cfg.t_sl)
    cos_mean = np.cos(angle).mean()
    sin_mean = np.sin(angle).mean()
    curve = 0.5 * (1.0 + cfg.gamma * (cos_mean * np.cos(phases) - sin_mean * np.sin(phases)))
    return fit_cosine(phases, curve).visibility


def local_visibility_oracle(delta: float, t_sl: float) -> float:
    """Closed-form |characteristic function| of a Gaussian detuning ensemble.

    For detunings with FWHM delta, the local fringe washes out as
    exp(-(pi * delta * t_sl)**2 / (4 ln 2)).
    """
    return math.exp(-((math.pi * delta * t_sl) ** 2) / (4.0 * LN2))
