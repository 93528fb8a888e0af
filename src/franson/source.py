"""Photon-pair source.

Models a cw-pumped down-conversion source emitting frequency-anticorrelated
photon pairs.  Pair ``j`` carries a signal detuning ``+df_j`` and an idler
detuning ``-df_j`` around the center frequency ``f0``, a shared pump-frequency
jitter ``dp_j`` (which shifts both photons by ``dp_j / 2`` so only the sum
frequency jitters), a uniformly random global phase, a Poisson emission time,
and a small signal-idler relative delay ``eps_j``.

All spectral widths are full widths at half maximum (FWHM).  The single-photon
detuning distribution has FWHM ``delta``; the pair relative delay has FWHM
``1 / delta`` (the pair correlation time set by the ensemble bandwidth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .rng import ROLE_SOURCE, item_uniforms

TWO_PI = 2.0 * math.pi

# sigma = FWHM / (2 sqrt(2 ln 2)) for a Gaussian.
FWHM_TO_SIGMA = 0.5 / math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class SpectralModel:
    """Spectral description of the pair source.

    f0: center frequency (Hz); half the pump frequency.
    delta: ensemble FWHM bandwidth (Hz) of the single-photon detuning.
    pump_linewidth: pump FWHM (Hz); jitters the sum frequency of each pair.
    tau_ind: individual-photon coherence time (s).
    pair_rate: mean pair emission rate (pairs/s).
    """

    f0: float = 3.7e14
    delta: float = 1e12
    pump_linewidth: float = 0.0
    tau_ind: float = 10e-9
    pair_rate: float = 1e6

    def validate(self) -> list[str]:
        """Check invariants; returns configuration warnings, raises on errors."""
        if not self.f0 > 0:
            raise ValueError(f"f0 must be > 0, got {self.f0}")
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if not self.tau_ind > 0:
            raise ValueError(f"tau_ind must be > 0, got {self.tau_ind}")
        if not self.pair_rate > 0:
            raise ValueError(f"pair_rate must be > 0, got {self.pair_rate}")
        if self.pump_linewidth < 0:
            raise ValueError(f"pump_linewidth must be >= 0, got {self.pump_linewidth}")
        if self.tau_ind * self.delta < 1.0:
            raise ValueError(
                "tau_ind * delta must be >= 1 (individual coherence cannot be "
                f"shorter than the ensemble coherence), got {self.tau_ind * self.delta:g}"
            )
        warnings = []
        if self.delta >= 0.01 * self.f0:
            warnings.append(
                f"delta = {self.delta:g} Hz is not small against f0 = {self.f0:g} Hz "
                "(narrowband assumption delta < 0.01*f0 violated)"
            )
        return warnings


@dataclass(frozen=True)
class PhotonPair:
    """One emission event.

    df: signal detuning (Hz); the idler carries -df.
    dp: pump frequency jitter (Hz), shared as +dp/2 on both photons.
    xi: global phase (rad), uniform on [0, 2*pi); never observable.
    t0: emission time (s).
    eps: signal-idler relative delay (s).
    """

    id: int
    df: float
    dp: float
    xi: float
    t0: float
    eps: float

    @property
    def detuning_signal(self) -> float:
        return self.df + 0.5 * self.dp

    @property
    def detuning_idler(self) -> float:
        return 0.5 * self.dp - self.df

    def frequencies(self, f0: float) -> tuple[float, float]:
        """(signal, idler) absolute frequencies.

        The idler is computed as (2*f0 + dp) - f_signal so the pair sum is
        exact in floating point: with dp = 0, f_s + f_i == 2*f0 bitwise.
        """
        f_signal = f0 + (0.5 * self.dp + self.df)
        f_idler = (2.0 * f0 + self.dp) - f_signal
        return f_signal, f_idler


class PairEnsemble:
    """A sampled sequence of photon pairs, stored column-wise.

    Pair ``j`` is a pure function of (model, seed, stream, start + j); see
    :func:`sample_pairs`.
    """

    def __init__(self, model: SpectralModel, ids, df, dp, xi, t0, eps, seed=None, stream=0):
        self.model = model
        self.ids = np.asarray(ids, dtype=np.int64)
        self.df = np.asarray(df, dtype=np.float64)
        self.dp = np.asarray(dp, dtype=np.float64)
        self.xi = np.asarray(xi, dtype=np.float64)
        self.t0 = np.asarray(t0, dtype=np.float64)
        self.eps = np.asarray(eps, dtype=np.float64)
        self.seed = seed
        self.stream = stream

    def __len__(self) -> int:
        return self.df.size

    def __getitem__(self, j: int) -> PhotonPair:
        return PhotonPair(
            id=int(self.ids[j]),
            df=float(self.df[j]),
            dp=float(self.dp[j]),
            xi=float(self.xi[j]),
            t0=float(self.t0[j]),
            eps=float(self.eps[j]),
        )

    def __iter__(self):
        return (self[j] for j in range(len(self)))

    @property
    def detuning_signal(self) -> np.ndarray:
        return self.df + 0.5 * self.dp

    @property
    def detuning_idler(self) -> np.ndarray:
        return 0.5 * self.dp - self.df


def _gaussian_from_uniform(u: np.ndarray, fwhm: float) -> np.ndarray:
    # fwhm == 0 collapses to exact zeros (degenerate distribution).
    return ndtri(u) * (fwhm * FWHM_TO_SIGMA)


def _pair_columns(model: SpectralModel, u: np.ndarray):
    """Map one block of uniforms (n, 8) to pair fields; fixed column layout."""
    df = _gaussian_from_uniform(u[:, 0], model.delta)
    dp = _gaussian_from_uniform(u[:, 1], model.pump_linewidth)
    xi = TWO_PI * u[:, 2] % TWO_PI
    eps_fwhm = 1.0 / model.delta if model.delta > 0 else 0.0
    eps = _gaussian_from_uniform(u[:, 3], eps_fwhm)
    gaps = -np.log(u[:, 4]) / model.pair_rate
    return df, dp, xi, eps, gaps


def sample_pairs(
    model: SpectralModel,
    n: int,
    seed: int,
    stream: int = 0,
    start: int = 0,
    t_origin: float = 0.0,
) -> PairEnsemble:
    """Sample pairs start .. start+n-1 of the stream keyed by (seed, stream).

    Each pair consumes a fixed counter block, so the sequence is defined by
    the pair index alone and disjoint ranges can be drawn concurrently.
    Emission times accumulate from ``t_origin`` across the sampled range.
    """
    u = item_uniforms(seed, (int(stream), ROLE_SOURCE), n, start=start)
    df, dp, xi, eps, gaps = _pair_columns(model, u)
    t0 = t_origin + np.cumsum(gaps)
    ids = np.arange(start, start + n, dtype=np.int64)
    ens = PairEnsemble(model, ids, df, dp, xi, t0, eps, seed=seed, stream=stream)
    _check_finite(ens)
    return ens


def _check_finite(ens: PairEnsemble) -> None:
    for name in ("df", "dp", "xi", "t0", "eps"):
        col = getattr(ens, name)
        if not np.all(np.isfinite(col)):
            raise AssertionError(f"non-finite {name} sampled from model {ens.model}")
