"""Photon-pair source.

Models a cw-pumped down-conversion source emitting frequency-anticorrelated
photon pairs.  Pair ``j`` carries a signal detuning ``+df_j`` and an idler
detuning ``-df_j`` around the center frequency ``f0``, a shared pump-frequency
jitter ``dp_j`` (which shifts both photons by ``dp_j / 2`` so only the sum
frequency jitters), a Poisson emission time, and a small signal-idler
relative delay ``eps_j``.  No global phase is drawn: it enters no observable.

All spectral widths are full widths at half maximum (FWHM).  The single-photon
detuning distribution has FWHM ``delta``; the pair relative delay has FWHM
``1 / delta`` (the pair correlation time set by the ensemble bandwidth).
Times are int64 picoseconds from the emission time on, below ``MAX_TIME_PS``.

:func:`sample_pairs` computes df and dp at once.  Emission times and pair
delays matter only to coincidence timing, so it computes them, and checks
their reach against ``MAX_TIME_PS``, the first time either is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import ROLE_SOURCE, item_uniforms, normal_quantile, stream_key

PS_PER_S = 1e12

# The bound (~13 days) on every time quantity: an emission time plus its pair
# delay, an interferometer delay, a jitter draw, a correlator time, a dumped
# (18-digit) time.  A tag sums three and a correlator delay differences two
# tags, or a tag and tau_max, so neither can leave int64 (2**63 ps).
MAX_TIME_PS = 2**60

# sigma = FWHM / (2 sqrt(2 ln 2)) for a Gaussian.
FWHM_TO_SIGMA = 0.5 / math.sqrt(2.0 * math.log(2.0))


def to_picoseconds(seconds) -> np.ndarray:
    """Round seconds to the integer-picosecond grid."""
    return np.rint(np.asarray(seconds, dtype=np.float64) * PS_PER_S).astype(np.int64)


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


class PairEnsemble:
    """A sampled sequence of photon pairs, stored column-wise.

    Columns, one entry per pair: ids; df, the signal detuning (Hz, the idler
    carries -df); dp, the pump jitter (Hz, +dp/2 on both photons); t0_ps, the
    emission time (int64 picoseconds); eps, the signal-idler delay (s).  Pair
    ``j`` is a pure function of (model, seed, stream, start + j).

    A hand-built ensemble holds all five columns from the start.  One from
    :func:`sample_pairs` holds ids, df and dp, and computes t0_ps and eps
    together the first time either is read, with their ``MAX_TIME_PS`` reach
    check: only coincidence timing reads them, so the crossover sweep, which
    reads only detunings, never pays for them.
    """

    def __init__(self, ids, df, dp, t0_ps, eps):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.df = np.asarray(df, dtype=np.float64)
        self.dp = np.asarray(dp, dtype=np.float64)
        self._times = (np.asarray(t0_ps, dtype=np.int64), np.asarray(eps, dtype=np.float64))

    @classmethod
    def _with_pending_times(cls, ids, df, dp, pending) -> PairEnsemble:
        """An ensemble whose (t0_ps, eps) ``pending()`` computes on first read."""
        pairs = cls.__new__(cls)
        pairs.ids, pairs.df, pairs.dp, pairs._times = ids, df, dp, pending
        return pairs

    def _time_columns(self) -> tuple[np.ndarray, np.ndarray]:
        if callable(self._times):
            self._times = self._times()  # drops what the computation kept
        return self._times

    @property
    def t0_ps(self) -> np.ndarray:
        return self._time_columns()[0]

    @property
    def eps(self) -> np.ndarray:
        return self._time_columns()[1]

    def __len__(self) -> int:
        return self.df.size

    @property
    def detuning_signal(self) -> np.ndarray:
        return self.df + 0.5 * self.dp

    @property
    def detuning_idler(self) -> np.ndarray:
        return 0.5 * self.dp - self.df


def _gaussian_from_uniform(u: np.ndarray, fwhm: float) -> np.ndarray:
    if fwhm == 0:
        return np.zeros(u.shape)  # degenerate distribution: no draw needed
    z = normal_quantile(u)
    z *= fwhm * FWHM_TO_SIGMA
    return z


def sample_pairs(model: SpectralModel, n: int, seed: int, stream=0, start: int = 0) -> PairEnsemble:
    """Sample pairs start .. start+n-1 of the stream keyed by (seed, stream).

    ``stream`` is a key path such as ``(KIND_FRINGE, point)``; an int k is
    the path (k,).  Pair j takes item j's 4 uniforms (df, dp, eps, gap), so
    disjoint ranges can be drawn apart.  df and dp are computed here, and a
    detuning that overflows is rejected here.  The emission times and pair
    delays are computed when the ensemble's ``t0_ps`` or ``eps`` is first
    read (see :func:`_pair_times`), and the range's reach is checked then.
    """
    u = item_uniforms(seed, (*stream_key(stream), ROLE_SOURCE), n, 4, start=start)
    with np.errstate(over="ignore"):  # what overflows to inf is rejected below
        df = _gaussian_from_uniform(u[:, 0], model.delta)
        dp = _gaussian_from_uniform(u[:, 1], model.pump_linewidth)
    if not (np.isfinite(df).all() and np.isfinite(dp).all()):
        raise ValueError(f"source.delta or source.pump_linewidth overflows a detuning: {model}")
    ids = np.arange(start, start + n, dtype=np.int64)
    # Compact copies of columns 2 and 3, so that the whole block goes now.
    u_eps, u_gap = u[:, 2].copy(), u[:, 3].copy()
    return PairEnsemble._with_pending_times(ids, df, dp, lambda: _pair_times(model, u_eps, u_gap))


def _pair_times(model: SpectralModel, u_eps, u_gap) -> tuple[np.ndarray, np.ndarray]:
    """(t0_ps, eps) of the pairs whose eps and gap uniforms are ``u_eps`` and ``u_gap``.

    Emission times sum whole-picosecond gaps from 0 across the range; a range
    whose times and pair delays would reach ``MAX_TIME_PS`` is rejected
    before any int cast.
    """
    with np.errstate(over="ignore"):  # what overflows to inf is rejected below
        eps = _gaussian_from_uniform(u_eps, 1.0 / model.delta if model.delta > 0 else 0.0)
        gaps_ps = np.log(u_gap)
        gaps_ps *= -PS_PER_S / model.pair_rate
        reach_ps = gaps_ps.sum() + np.abs(eps).max(initial=0.0) * PS_PER_S
    if not reach_ps < MAX_TIME_PS:
        raise ValueError(
            f"source.pair_rate = {model.pair_rate:g} and source.delta = {model.delta:g} carry "
            f"{len(u_gap)} pairs' emission times and delays to {reach_ps:.3g} ps, past 2**60 ps: "
            "raise the rate or the bandwidth, or draw fewer pairs"
        )
    t0_ps = np.rint(gaps_ps, out=gaps_ps).astype(np.int64)
    np.cumsum(t0_ps, out=t0_ps)
    return t0_ps, eps
