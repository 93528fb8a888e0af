"""Coincidence correlation of two time-sorted tag streams.

Every tag of stream A is paired with the stream-B tags inside ``+-tau_max``
of it (two binary searches per A tag give its run of B tags), the delays
``tau = t_A - t_B`` are binned, and they are classified into the central
peak (|tau| <= w, the window is centred at tau = 0) and the two side peaks:
LS at tau = +t_sl^A and SL at tau = -t_sl^B, each within w, where t_sl^A
and t_sl^B are the interferometer delays.  The A tags are taken a block at a
time; a block's matches form one list, run after run, and the list is
binned and tallied a slice at a time.  This holds O(SWEEP_BATCH) memory
whatever the number of tags and matches, and does O(N_A log N_B + matches)
work.  A tag is (party, port, time), all that a detector reports.

All times are integer picoseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detection import TagStream, text_rows
from .source import MAX_TIME_PS, PS_PER_S, to_picoseconds

HISTOGRAM_MAGIC = "# franson-histogram v1"
_COMMA = ord(",")

# The most bins a histogram may have per port pair (four int64 counts each).
MAX_BINS = 2**22

# A tags per block of the match sweep, and the most index pairs one of its
# batches holds.
SWEEP_BATCH = 2**16

# Histogram bins, four CSV rows each, laid out per write.
CSV_CHUNK = 2**14


@dataclass(frozen=True)
class CorrelatorConfig:
    """window: coincidence half-width w (s); bin_width, tau_max: histogram
    geometry (s).  The side peaks sit at the interferometer delays, which
    :func:`correlate` takes beside this config."""

    window: float = 10e-12
    bin_width: float = 2e-12
    tau_max: float = 200e-12

    def __post_init__(self):
        for name in ("window", "bin_width", "tau_max"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
            if not value * PS_PER_S < MAX_TIME_PS:
                raise ValueError(f"{name} must be below 2**60 ps, got {value}")
        w_ps, bin_ps, tau_max_ps = self._picoseconds()
        for name, ps in (("window", w_ps), ("bin_width", bin_ps)):
            if ps < 1:
                raise ValueError(f"{name} must be at least 1 ps, got {getattr(self, name)}")
        n_bins = _bin_count(tau_max_ps, bin_ps)
        if n_bins > MAX_BINS:
            raise ValueError(
                "correlator.tau_max and correlator.bin_width give 2 * tau_max / bin_width = "
                f"{n_bins} histogram bins, more than the limit of 2**22 = {MAX_BINS}"
            )

    def _picoseconds(self, *t_sl: float) -> tuple[int, ...]:
        """window, bin_width, tau_max and then each delay of ``t_sl`` in whole picoseconds."""
        return tuple(int(ps) for ps in to_picoseconds((self.window, self.bin_width, self.tau_max, *t_sl)))


def _check_sides(cfg: CorrelatorConfig, t_sl: tuple[float, float]) -> list[str]:
    """Check that ``cfg``'s ``tau_max`` covers the farther side peak, at a
    delay of ``t_sl = (t_sl_a, t_sl_b)`` (s), plus 5 bins and plus its window.
    Returns the overlap warning when the central window [-w, w] shares a delay
    with the nearer side window [s - w, s + w]: 2w >= s in whole picoseconds."""
    farthest = max(t_sl)
    if cfg.tau_max < farthest + 5 * cfg.bin_width:
        raise ValueError(
            "tau_max must cover both side peaks: need tau_max >= "
            f"max(side_offset_a, side_offset_b) + 5*bin_width, got {cfg.tau_max} < "
            f"{farthest + 5 * cfg.bin_width}"
        )
    w_ps, _, tau_max_ps, side_a_ps, side_b_ps = cfg._picoseconds(*t_sl)
    if tau_max_ps < (reach_ps := max(side_a_ps, side_b_ps) + w_ps):
        raise ValueError(
            "tau_max must cover both side windows: need tau_max >= max(side_offset_a, "
            f"side_offset_b) + window = {reach_ps} ps, got {tau_max_ps} ps"
        )
    if 2 * w_ps >= min(side_a_ps, side_b_ps):
        return [
            f"window w = {w_ps} ps >= min(side_offset_a, side_offset_b)/2 = "
            f"{min(side_a_ps, side_b_ps) / 2:g} ps: peak windows overlap"
        ]
    return []


def _bin_count(tau_max_ps: int, bin_ps: int) -> int:
    """Bins of width bin_ps that cover [-tau_max, tau_max]."""
    return -((-2 * tau_max_ps) // bin_ps)


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
    """Yield all index pairs (ia, ib) with tau_lo <= t_a[ia] - t_b[ib] <= tau_hi,
    in batches of at most ``SWEEP_BATCH`` pairs.  Inputs must be sorted and
    tau_lo <= tau_hi.

    The A tags are taken ``SWEEP_BATCH`` at a time.  Two binary searches give
    each of them the run of B tags inside its window.  The block's matches
    are one list, run after run: with ``stop`` the running sum of the run
    lengths, entry k of tag i is B tag ``end[i] - stop[i] + k``.  The list is
    yielded in consecutive slices of ``SWEEP_BATCH`` entries, and two binary
    searches in ``stop`` give the tags of a slice.  Memory is O(SWEEP_BATCH),
    whatever the number of tags and matches; work is O(N_A log N_B + matches).
    """
    t_a = np.asarray(t_a, dtype=np.int64)
    t_b = np.asarray(t_b, dtype=np.int64)
    for lo in range(0, t_a.size, SWEEP_BATCH):
        block = t_a[lo : lo + SWEEP_BATCH]
        # tau in [tau_lo, tau_hi] means t_b in [t_a - tau_hi, t_a - tau_lo]
        first = np.searchsorted(t_b, block - tau_hi, side="left")
        end = np.searchsorted(t_b, block - tau_lo, side="right")
        stop = np.cumsum(end - first)  # where each tag's run stops in the list
        end -= stop  # entry k of tag i is B tag end[i] + k
        total = int(stop[-1])
        for k0 in range(0, total, SWEEP_BATCH):
            k1 = min(k0 + SWEEP_BATCH, total)
            # the tags whose runs overlap entries [k0, k1)
            i0 = np.searchsorted(stop, k0, side="right")
            i1 = np.searchsorted(stop, k1, side="left") + 1
            per_a = np.diff(np.minimum(stop[i0:i1], k1), prepend=k0)
            ia = np.repeat(np.arange(i0, i1), per_a)
            ib = end[ia]
            ib += np.arange(k0, k1)
            ia += lo
            yield ia, ib


def _port_keys(port_a, port_b, ia, ib) -> np.ndarray:
    """Each match's port pair as its flat index 0 to 3 over (port_a - 5, port_b - 5)."""
    return 2 * port_a[ia] + port_b[ib] - 15  # uint8


def _central_counts(stream_a: TagStream, streams_b, cfg: CorrelatorConfig) -> np.ndarray:
    """:func:`correlate`'s ``central`` table of stream A against each of
    ``streams_b``, stacked (n, 2, 2).  The B streams share their times (one
    detection, a port column each), so one sweep finds the matches in [-w, w]."""
    w_ps = cfg._picoseconds()[0]
    tables = np.zeros((len(streams_b), 4), dtype=np.int64)
    for ia, ib in sweep_matches(stream_a.time_ps, streams_b[0].time_ps, -w_ps, w_ps):
        for table, stream_b in zip(tables, streams_b):
            table += np.bincount(_port_keys(stream_a.port, stream_b.port, ia, ib), minlength=4)
    return tables.reshape(-1, 2, 2)


def correlate(
    stream_a: TagStream, stream_b: TagStream, cfg: CorrelatorConfig, t_sl: tuple[float, float]
) -> CoincidenceHistogram:
    """Build the coincidence histogram of tau = t_A - t_B.

    The central peak is looked for at tau = 0, side_plus (LS) at +t_sl_a and
    side_minus (SL) at -t_sl_b, the delays ``t_sl`` (s).  The matches of
    each batch of :func:`sweep_matches` are binned and tallied before the
    next batch, so no array holds one entry per match.
    """
    config_warnings = _check_sides(cfg, t_sl)
    w_ps, bin_ps, tau_max_ps, side_a_ps, side_b_ps = cfg._picoseconds(*t_sl)

    n_bins = _bin_count(tau_max_ps, bin_ps)
    counts = np.zeros(4 * n_bins, dtype=np.int64)
    # Row-major flat offset of [port_a - 5, port_b - 5] in counts.
    port_offset = n_bins * np.arange(4, dtype=np.int64)
    central, side_plus, side_minus = (np.zeros(4, dtype=np.int64) for _ in range(3))
    n_matches = 0
    for ia, ib in sweep_matches(stream_a.time_ps, stream_b.time_ps, -tau_max_ps, tau_max_ps):
        tau = stream_a.time_ps[ia]
        tau -= stream_b.time_ps[ib]
        key = _port_keys(stream_a.port, stream_b.port, ia, ib)
        for totals, center in ((central, 0), (side_plus, side_a_ps), (side_minus, -side_b_ps)):
            near = (tau >= center - w_ps) & (tau <= center + w_ps)
            totals += np.bincount(key[near], minlength=4)
        # tau becomes its flat histogram index in place
        tau += tau_max_ps
        tau //= bin_ps
        np.minimum(tau, n_bins - 1, out=tau)
        tau += port_offset[key]
        np.add.at(counts, tau, 1)
        n_matches += tau.size

    return CoincidenceHistogram(
        window_ps=w_ps,
        bin_width_ps=bin_ps,
        tau_max_ps=tau_max_ps,
        side_offset_a_ps=side_a_ps,
        side_offset_b_ps=side_b_ps,
        counts=counts.reshape(2, 2, n_bins),
        central=central.reshape(2, 2),
        side_plus=side_plus.reshape(2, 2),
        side_minus=side_minus.reshape(2, 2),
        n_matches=n_matches,
        n_comparisons=len(stream_a) + n_matches,
        overlap_warning=bool(config_warnings),
        warnings=config_warnings,
    )


def write_histogram_csv(hist: CoincidenceHistogram, path, seed: int, config_hash: str) -> None:
    """CSV dump: tau_ps (bin center), port_a, port_b, count.

    The header's center_ps is always 0: format v1 keeps the field, and the
    window is centred at tau = 0.  Rows run over bins, then port A, then
    port B; they are laid out and written ``CSV_CHUNK`` bins at a time.
    """
    header = [
        HISTOGRAM_MAGIC,
        f"# seed={seed}",
        f"# config_hash={config_hash}",
        f"# window_ps={hist.window_ps} bin_width_ps={hist.bin_width_ps} "
        f"tau_max_ps={hist.tau_max_ps} side_offset_a_ps={hist.side_offset_a_ps} "
        f"side_offset_b_ps={hist.side_offset_b_ps} center_ps=0",
        "tau_ps,port_a,port_b,count",
    ]
    centers = hist.bin_centers_ps()
    port_bytes = np.frombuffer(b"5566", dtype=np.uint8), np.frombuffer(b"5656", dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write("".join(f"{line}\n" for line in header).encode("ascii"))
        for lo in range(0, hist.n_bins, CSV_CHUNK):
            chunk = centers[lo : lo + CSV_CHUNK]
            columns = (
                np.repeat(chunk, 4),
                *(np.tile(port, chunk.size) for port in port_bytes),
                hist.counts[:, :, lo : lo + chunk.size].transpose(2, 0, 1).ravel(),
            )
            fh.write(text_rows(columns, _COMMA))
