"""Photon-pair source.

Models a cw-pumped down-conversion source emitting frequency-anticorrelated
photon pairs.  Pair ``j`` carries a signal detuning ``+df_j`` and an idler
detuning ``-df_j`` around the center frequency ``f0``, a shared pump-frequency
jitter ``dp_j`` (which shifts both photons by ``dp_j / 2`` so only the sum
frequency jitters), a Poisson emission time, and a small signal-idler
relative delay ``eps_j``.  No global phase is drawn: it enters no observable.
A pair is known by its index ``j`` in its stream alone; no id is stored.

All spectral widths are full widths at half maximum (FWHM).  The single-photon
detuning distribution has FWHM ``delta``; the pair relative delay has FWHM
``1 / delta`` (the pair correlation time set by the ensemble bandwidth).
Times are int64 picoseconds from the emission time on, below ``MAX_TIME_PS``.

:func:`sample_pairs` draws all four columns on :func:`_draw`, which gives
the detunings of any number of models from the same draws; readers of the
interference alone, such as the local visibility, call it directly: emission
times and pair delays matter only to coincidence timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import ROLE_SOURCE, item_uniforms, normal_quantile

PS_PER_S = 1e12

# The bound (~13 days) on every time quantity: an emission time plus its pair
# delay, an interferometer delay, a jitter draw, a correlator time.  A tag
# sums three, so a dumped time has at most 19 digits, and a correlator delay
# differences two tags, or a tag and tau_max, so neither can leave int64
# (2**63 ps).
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

    Columns, one entry per pair: df, the signal detuning (Hz, the idler
    carries -df); dp, the pump jitter (Hz, +dp/2 on both photons); t0_ps, the
    emission time (int64 picoseconds); eps, the signal-idler delay (s).  Pair
    ``j`` is a pure function of (model, seed, stream, start + j).
    """

    def __init__(self, df, dp, t0_ps, eps):
        self.df = np.asarray(df, dtype=np.float64)
        self.dp = np.asarray(dp, dtype=np.float64)
        self.t0_ps = np.asarray(t0_ps, dtype=np.int64)
        self.eps = np.asarray(eps, dtype=np.float64)

    def __len__(self) -> int:
        return self.df.size

    @property
    def detuning_signal(self) -> np.ndarray:
        return self.df + 0.5 * self.dp

    @property
    def detuning_idler(self) -> np.ndarray:
        return 0.5 * self.dp - self.df


def _gaussians(u: np.ndarray, fwhms: list[float]) -> list[np.ndarray]:
    """Gaussian deviates of each FWHM in ``fwhms`` from the uniforms ``u``: the
    normal quantiles, taken once, times each width's sigma.  A zero width
    gives zeros (a degenerate distribution) and needs no quantile."""
    z = normal_quantile(u) if any(fwhms) else None
    out = z if len(fwhms) == 1 else None  # one width scales the quantiles in place
    return [np.multiply(z, f * FWHM_TO_SIGMA, out=out) if f else np.zeros(u.shape) for f in fwhms]


def _draw(models: list[SpectralModel], n: int, seed: int, stream, start: int):
    """Pairs start .. start+n-1's (n, 4) uniform block and each model's (df, dp).

    Pair j takes item j's 4 uniforms (df, dp, eps, gap) of the stream keyed
    by (seed, stream), so disjoint ranges can be drawn apart.  The models
    scale the same quantiles, so each is bitwise its one-model draw, and a
    detuning that overflows is rejected here, naming its model.
    """
    u = item_uniforms(seed, (*stream, ROLE_SOURCE), n, start=start)
    with np.errstate(over="ignore"):  # what overflows to inf is rejected below
        dfs = _gaussians(u[:, 0], [model.delta for model in models])
        dps = _gaussians(u[:, 1], [model.pump_linewidth for model in models])
    for model, df, dp in zip(models, dfs, dps):
        if not (np.isfinite(df).all() and np.isfinite(dp).all()):
            raise ValueError(f"source.delta or source.pump_linewidth overflows a detuning: {model}")
    return u, list(zip(dfs, dps))


def sample_pairs(
    model: SpectralModel,
    n: int,
    seed: int,
    stream=(0,),
    start: int = 0,
    origin_ps: int = 0,
    run_pairs: int | None = None,
) -> PairEnsemble:
    """Sample pairs start .. start+n-1 of the stream keyed by (seed, stream).

    ``stream`` is a key path, a tuple such as ``(KIND_FRINGE, point)``.
    Emission times sum whole-picosecond gaps from
    ``origin_ps`` across the range, so a run drawn in consecutive ranges,
    each passed the previous one's last emission time, continues exactly.  A
    range whose absolute times and pair delays would reach ``MAX_TIME_PS``
    is rejected before any int cast, naming the ``run_pairs`` pairs of its
    run (``n`` by default).
    """
    return _sample([model], n, seed, stream, start, origin_ps, run_pairs)[0]


def _sample(models, n, seed, stream, start=0, origin_ps=0, run_pairs=None) -> list[PairEnsemble]:
    """:func:`sample_pairs` of each model, from one draw: the models scale the
    same detuning quantiles, so each ensemble is bitwise its one-model call,
    and share the emission times and pair delays of ``models[0]``, which
    read only its ``delta`` and ``pair_rate``."""
    u, detunings = _draw(models, n, seed, stream, start)
    model = models[0]
    with np.errstate(over="ignore"):  # what overflows to inf is rejected below
        [eps] = _gaussians(u[:, 2], [1.0 / model.delta if model.delta > 0 else 0.0])
        gaps_ps = np.log(u[:, 3])
        gaps_ps *= -PS_PER_S / model.pair_rate
        reach_ps = origin_ps + gaps_ps.sum() + np.abs(eps).max(initial=0.0) * PS_PER_S
    if not reach_ps < MAX_TIME_PS:
        n_run = n if run_pairs is None else run_pairs
        raise ValueError(
            f"source.pair_rate = {model.pair_rate:g} and source.delta = {model.delta:g} carry "
            f"{n_run} pairs' emission times and delays to {reach_ps:.3g} ps, past 2**60 ps: "
            "raise the rate or the bandwidth, or draw fewer pairs"
        )
    t0_ps = np.rint(gaps_ps, out=gaps_ps).astype(np.int64)
    t0_ps[:1] += origin_ps
    np.cumsum(t0_ps, out=t0_ps)
    return [PairEnsemble(df, dp, t0_ps, eps) for df, dp in detunings]
