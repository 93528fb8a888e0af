"""Single-photon transfer through an unbalanced Mach-Zehnder interferometer.

Each party's interferometer splits the photon over a short (S) and a long (L)
path with delay difference ``t_sl`` and recombines them on a symmetric
beam splitter, (1/sqrt 2) [[1, i], [i, 1]].  The photon leaves through port 5
or port 6 with path-basis coefficients that depend on the accumulated phase

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
    party: 'A' or 'B' (label used in tag streams and outputs).
    gamma: path overlap <S|L> in [0, 1]; visibility of this party's
        single-photon interference.
    """

    t_sl: float = 100e-12
    phase: float = 0.0
    party: str = "A"
    gamma: float = 1.0

    def validate(self) -> list[str]:
        if not self.t_sl > 0:
            raise ValueError(f"t_sl must be > 0, got {self.t_sl}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.party not in ("A", "B"):
            raise ValueError(f"party must be 'A' or 'B', got {self.party!r}")
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase}")
        return []


def regime_flags(cfg: UmziConfig, model: SpectralModel) -> dict[str, bool]:
    """Diagnostic flags for the operating regime (computed, never enforced)."""
    return {
        "incoherent_ensemble": model.delta * cfg.t_sl > INCOHERENT_ENSEMBLE_MIN,
        "individually_coherent": cfg.t_sl < INDIVIDUAL_COHERENT_MAX * model.tau_ind,
    }


@dataclass(frozen=True)
class PortAmplitudes:
    """Path-basis coefficients (c_s, c_l) of the two output ports."""

    phi_prime: float
    port5: tuple[complex, complex]
    port6: tuple[complex, complex]

    def norm(self) -> float:
        return sum(abs(c) ** 2 for c in (*self.port5, *self.port6))

    def intensities(self, gamma: float) -> tuple[float, float]:
        return local_intensities(self.phi_prime, gamma)


def accumulated_phase(detuning, cfg: UmziConfig):
    """phi' = 2*pi * detuning * t_sl + phase; vectorizes over detuning."""
    return TWO_PI * (detuning * cfg.t_sl) + cfg.phase


def umzi_transfer(detuning: float, cfg: UmziConfig) -> PortAmplitudes:
    """Output amplitudes for a photon of the given detuning (Hz, signed)."""
    if not math.isfinite(detuning):
        raise ValueError(f"detuning must be finite, got {detuning}")
    phi = float(accumulated_phase(detuning, cfg))
    rot = complex(math.cos(phi), math.sin(phi))
    return PortAmplitudes(
        phi_prime=phi,
        port5=(0.5 + 0.0j, 0.5 * rot),
        port6=(0.5j, -0.5j * rot),
    )


def local_intensities(phi_prime, gamma):
    """Mean output intensities (I5, I6) for unit input; I5 + I6 == 1."""
    fringe = 0.5 * (gamma * np.cos(phi_prime))
    return 0.5 + fringe, 0.5 - fringe


@dataclass(frozen=True)
class LocalFringe:
    """Ensemble-averaged port-5 intensity against the phase setting."""

    phases: np.ndarray
    mean_i5: np.ndarray
    visibility: float
    phase_offset: float
    n_pairs: int


def ensemble_local_fringe(
    model: SpectralModel,
    cfg: UmziConfig,
    phases: np.ndarray,
    n_pairs: int = 20_000,
    seed: int = 0,
    stream: int = 0,
) -> LocalFringe:
    """Average the per-pair port-5 intensity over a sampled ensemble.

    The returned visibility equals gamma times the magnitude of the detuning
    distribution's characteristic function at lag t_sl, up to sampling error.
    """
    phases = np.asarray(phases, dtype=np.float64)
    if phases.size < 8:
        raise ValueError(f"phase grid needs at least 8 points, got {phases.size}")
    pairs = sample_pairs(model, n_pairs, seed, stream=stream)
    detuning = pairs.detuning_signal if cfg.party == "A" else pairs.detuning_idler
    # mean over pairs of 1/2 (1 + gamma cos(2 pi detuning t_sl + phase))
    angle = TWO_PI * (detuning * cfg.t_sl)
    cos_mean = np.cos(angle).mean()
    sin_mean = np.sin(angle).mean()
    curve = 0.5 * (1.0 + cfg.gamma * (cos_mean * np.cos(phases) - sin_mean * np.sin(phases)))
    fit = fit_cosine(phases, curve)
    return LocalFringe(
        phases=phases,
        mean_i5=curve,
        visibility=fit.visibility,
        phase_offset=fit.phase,
        n_pairs=n_pairs,
    )


def local_visibility_oracle(delta: float, t_sl: float) -> float:
    """Closed-form |characteristic function| of a Gaussian detuning ensemble.

    For detunings with FWHM delta, the local fringe washes out as
    exp(-(pi * delta * t_sl)**2 / (4 ln 2)).
    """
    return math.exp(-((math.pi * delta * t_sl) ** 2) / (4.0 * LN2))
