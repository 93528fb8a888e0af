"""Coincidence correlation of two time-sorted tag streams.

One vectorized pass pairs every tag of stream A with the stream-B tags inside
``+-tau_max`` of it (two binary searches per A tag), bins the delays
``tau = t_A - t_B``, and classifies them into the central peak (|tau| <= w,
the window is centred at tau = 0) and the two side peaks: LS at
tau = +t_sl^A (``side_offset_a``) and SL at tau = -t_sl^B
(``side_offset_b``), each within w.  The pass does O(N_A log N_B + matches)
work and uses only (party, port, time); diagnostic tag fields never enter.

All times are integer picoseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detection import PS_PER_S, TagStream, to_picoseconds
from .errors import StreamOrderError

HISTOGRAM_MAGIC = "# franson-histogram v1"


@dataclass(frozen=True)
class CorrelatorConfig:
    """window: coincidence half-width w (s); bin_width, tau_max: histogram
    geometry (s); side_offset_a, side_offset_b: distances (s) of the LS peak
    above and the SL peak below tau = 0, normally the interferometer delays
    t_sl^A and t_sl^B."""

    window: float = 10e-12
    bin_width: float = 2e-12
    tau_max: float = 200e-12
    side_offset_a: float = 100e-12
    side_offset_b: float = 100e-12

    def validate(self) -> list[str]:
        if not self.window > 0:
            raise ValueError(f"window must be > 0, got {self.window}")
        if not self.bin_width > 0:
            raise ValueError(f"bin_width must be > 0, got {self.bin_width}")
        for name in ("side_offset_a", "side_offset_b"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        # the picosecond grid is int64; tau_max, checked below to exceed both
        # side offsets, keeps them on it too
        for name in ("window", "bin_width", "tau_max"):
            if not getattr(self, name) * PS_PER_S < 2.0**63:
                raise ValueError(f"{name} must be below 2**63 ps, got {getattr(self, name)}")
        farthest = max(self.side_offset_a, self.side_offset_b)
        if self.tau_max < farthest + 5 * self.bin_width:
            raise ValueError(
                "tau_max must cover both side peaks: need tau_max >= "
                f"max(side_offset_a, side_offset_b) + 5*bin_width, got {self.tau_max} < "
                f"{farthest + 5 * self.bin_width}"
            )
        w_ps, bin_ps, side_a_ps, side_b_ps = (
            int(to_picoseconds(v))
            for v in (self.window, self.bin_width, self.side_offset_a, self.side_offset_b)
        )
        for name, ps in (("window", w_ps), ("bin_width", bin_ps)):
            if ps < 1:
                raise ValueError(f"{name} must be at least 1 ps, got {getattr(self, name)}")
        if _windows_overlap(w_ps, side_a_ps, side_b_ps):
            return [
                f"window w = {w_ps} ps >= min(side_offset_a, side_offset_b)/2 = "
                f"{min(side_a_ps, side_b_ps) / 2:g} ps: peak windows overlap"
            ]
        return []


def _windows_overlap(w_ps: int, side_a_ps: int, side_b_ps: int) -> bool:
    """Whether the central window [-w, w] shares a delay with the nearer side
    window [s - w, s + w]: 2w >= s on the integer picoseconds the windows use."""
    return 2 * w_ps >= min(side_a_ps, side_b_ps)


@dataclass
class CoincidenceHistogram:
    """Binned coincidences per port pair plus peak-window totals.

    counts[a, b, k]: port indices (0 -> 5, 1 -> 6) and bin index k over
    [-tau_max, tau_max]; tau = tau_max falls into the last bin.  Totals are
    window sums, not bin sums, so they are exact for any bin geometry.
    n_matches counts the (A, B) tag pairs with |tau| <= tau_max;
    n_comparisons = N_A + n_matches, the number of A tags searched plus the
    pairs emitted.
    """

    window_ps: int
    bin_width_ps: int
    tau_max_ps: int
    side_offset_a_ps: int
    side_offset_b_ps: int
    counts: np.ndarray
    central: np.ndarray
    side_plus: np.ndarray
    side_minus: np.ndarray
    n_matches: int
    n_comparisons: int
    overlap_warning: bool
    warnings: list[str] = field(default_factory=list)

    @property
    def n_bins(self) -> int:
        return self.counts.shape[2]

    def bin_centers_ps(self) -> np.ndarray:
        edges = self.bin_width_ps * np.arange(self.n_bins + 1, dtype=np.int64) - self.tau_max_ps
        return (edges[:-1] + edges[1:]) // 2

    @property
    def central_fraction(self) -> float:
        """Central-window share of all peak-window events, about 1/2 (NaN if none)."""
        central = int(self.central.sum())
        total = central + int(self.side_plus.sum() + self.side_minus.sum())
        return central / total if total else math.nan


def sweep_matches(t_a: np.ndarray, t_b: np.ndarray, tau_lo: int, tau_hi: int):
    """All index pairs (i, j) with tau_lo <= t_a[i] - t_b[j] <= tau_hi.

    Returns (ia, ib, n_comparisons) with the pairs in A-major, then B order,
    and n_comparisons = N_A + matches.  Inputs must be sorted.
    """
    t_a = np.asarray(t_a, dtype=np.int64)
    t_b = np.asarray(t_b, dtype=np.int64)
    # tau = t_a - t_b in [tau_lo, tau_hi] means t_b in [t_a - tau_hi, t_a - tau_lo]
    first = np.searchsorted(t_b, t_a - tau_hi, side="left")
    per_a = np.maximum(np.searchsorted(t_b, t_a - tau_lo, side="right") - first, 0)
    ia = np.repeat(np.arange(t_a.size, dtype=np.int64), per_a)
    # The k-th pair overall, if it belongs to A tag i, has ib = first[i] + k - run_start[i].
    run_start = np.cumsum(per_a) - per_a
    ib = np.arange(ia.size, dtype=np.int64) + np.repeat(first - run_start, per_a)
    return ia, ib, t_a.size + ia.size


def _require_sorted(stream: TagStream, name: str) -> None:
    if stream.time_ps.size > 1 and np.any(np.diff(stream.time_ps) < 0):
        raise StreamOrderError(f"stream {name} is not sorted by time")


def correlate(
    stream_a: TagStream, stream_b: TagStream, cfg: CorrelatorConfig
) -> CoincidenceHistogram:
    """Build the coincidence histogram of tau = t_A - t_B.

    The central peak is looked for at tau = 0, side_plus (LS) at
    +side_offset_a and side_minus (SL) at -side_offset_b.
    """
    config_warnings = cfg.validate()
    _require_sorted(stream_a, "A")
    _require_sorted(stream_b, "B")

    w_ps = int(to_picoseconds(cfg.window))
    bin_ps = int(to_picoseconds(cfg.bin_width))
    tau_max_ps = int(to_picoseconds(cfg.tau_max))
    side_a_ps = int(to_picoseconds(cfg.side_offset_a))
    side_b_ps = int(to_picoseconds(cfg.side_offset_b))

    n_bins = -((-2 * tau_max_ps) // bin_ps)
    ia, ib, comparisons = sweep_matches(stream_a.time_ps, stream_b.time_ps, -tau_max_ps, tau_max_ps)
    tau = stream_a.time_ps[ia] - stream_b.time_ps[ib]
    # Row-major flat index of [port_a - 5, port_b - 5].
    key = 2 * stream_a.port[ia].astype(np.int64) + stream_b.port[ib] - 15

    bins = np.minimum((tau + tau_max_ps) // bin_ps, n_bins - 1)
    counts = np.bincount(key * n_bins + bins, minlength=4 * n_bins).reshape(2, 2, n_bins)

    def tally(selected):
        return np.bincount(key[selected], minlength=4).reshape(2, 2)

    central = tally(np.abs(tau) <= w_ps)
    side_plus = tally(np.abs(tau - side_a_ps) <= w_ps)
    side_minus = tally(np.abs(tau + side_b_ps) <= w_ps)

    return CoincidenceHistogram(
        window_ps=w_ps,
        bin_width_ps=bin_ps,
        tau_max_ps=tau_max_ps,
        side_offset_a_ps=side_a_ps,
        side_offset_b_ps=side_b_ps,
        counts=counts,
        central=central,
        side_plus=side_plus,
        side_minus=side_minus,
        n_matches=int(tau.size),
        n_comparisons=int(comparisons),
        overlap_warning=_windows_overlap(w_ps, side_a_ps, side_b_ps),
        warnings=config_warnings,
    )


def write_histogram_csv(hist: CoincidenceHistogram, path, seed: int, config_hash: str) -> None:
    """CSV dump: tau_ps (bin center), port_a, port_b, count.

    The header's center_ps is always 0: format v1 keeps the field, and the
    window is centred at tau = 0.
    """
    lines = [
        HISTOGRAM_MAGIC,
        f"# seed={seed}",
        f"# config_hash={config_hash}",
        f"# window_ps={hist.window_ps} bin_width_ps={hist.bin_width_ps} "
        f"tau_max_ps={hist.tau_max_ps} side_offset_a_ps={hist.side_offset_a_ps} "
        f"side_offset_b_ps={hist.side_offset_b_ps} center_ps=0",
        "tau_ps,port_a,port_b,count",
    ]
    centers = hist.bin_centers_ps()
    for k in range(hist.n_bins):
        for a in (0, 1):
            for b in (0, 1):
                lines.append(f"{centers[k]},{a + 5},{b + 5},{hist.counts[a, b, k]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
