"""Coincidence correlator: matching oracle, windows, complexity, blindness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from franson.correlator import (
    CorrelatorConfig,
    correlate,
    sweep_matches,
    write_histogram_csv,
)
from franson.config import parse_config
from franson.detection import DetectorModel, TagStream, simulate_tags
from franson.errors import ConfigError, StreamOrderError
from franson.experiment import simulate_point
from franson.interferometer import UmziConfig
from franson.source import SpectralModel, sample_pairs

from conftest import blinded

SIDES = {"side_offset_a": 100e-12, "side_offset_b": 100e-12}
CFG = CorrelatorConfig(window=10e-12, bin_width=2e-12, tau_max=200e-12, **SIDES)


def stream(times_ps, ports=None):
    n = len(times_ps)
    ports = ports if ports is not None else [5] * n
    zeros = np.zeros(n, dtype=np.int64)
    return TagStream(np.asarray(ports), np.asarray(times_ps, dtype=np.int64), zeros, zeros)


def brute_force_matches(t_a, t_b, tau_lo, tau_hi):
    """Quadratic all-pairs oracle for the sweep."""
    out = []
    for i, ta in enumerate(t_a):
        for j, tb in enumerate(t_b):
            if tau_lo <= ta - tb <= tau_hi:
                out.append((i, j))
    return sorted(out)


@settings(max_examples=80, deadline=None)
@given(
    t_a=st.lists(st.integers(0, 400), min_size=0, max_size=40),
    t_b=st.lists(st.integers(0, 400), min_size=0, max_size=40),
    tau_lo=st.integers(-60, 20),
    width=st.integers(0, 80),
)
def test_sweep_agrees_with_brute_force(t_a, t_b, tau_lo, width):
    t_a, t_b = sorted(t_a), sorted(t_b)
    tau_hi = tau_lo + width
    ia, ib, _ = sweep_matches(np.asarray(t_a, np.int64), np.asarray(t_b, np.int64), tau_lo, tau_hi)
    got = sorted(zip(ia.tolist(), ib.tolist()))
    assert got == brute_force_matches(t_a, t_b, tau_lo, tau_hi)


# Delays on and just beside every window edge: +-w, +-side_offset +- w for side
# offsets of 100 and 140 ps, and +-tau_max (ps).
EDGE_TAUS = [
    sign * (edge + nudge)
    for sign in (-1, 1)
    for edge in (0, 10, 90, 110, 130, 150, 200)
    for nudge in (-1, 0, 1)
]


def brute_force_histogram(tags_a, tags_b, w, bin_width, tau_max, side_a, side_b, center):
    """Quadratic all-pairs oracle for correlate's tallies."""
    n_bins = -((-2 * tau_max) // bin_width)
    counts = np.zeros((2, 2, n_bins), dtype=np.int64)
    central = np.zeros((2, 2), dtype=np.int64)
    side_plus = np.zeros((2, 2), dtype=np.int64)
    side_minus = np.zeros((2, 2), dtype=np.int64)
    n_matches = 0
    for ta, pa in zip(tags_a.time_ps.tolist(), tags_a.port.tolist()):
        for tb, pb in zip(tags_b.time_ps.tolist(), tags_b.port.tolist()):
            rel = ta - tb - center
            if not -tau_max <= rel <= tau_max:
                continue
            n_matches += 1
            # last bin whose lower edge is <= rel; rel == +tau_max lands in the last bin
            k = max(j for j in range(n_bins) if -tau_max + j * bin_width <= rel)
            counts[pa - 5, pb - 5, k] += 1
            if abs(rel) <= w:
                central[pa - 5, pb - 5] += 1
            if abs(rel - side_a) <= w:
                side_plus[pa - 5, pb - 5] += 1
            if abs(rel + side_b) <= w:
                side_minus[pa - 5, pb - 5] += 1
    return counts, central, side_plus, side_minus, n_matches


@settings(max_examples=60, deadline=None)
@given(
    t_b=st.lists(st.integers(0, 600), min_size=0, max_size=25),
    offsets=st.lists(
        st.tuples(
            st.integers(0, 24),
            st.one_of(st.sampled_from(EDGE_TAUS), st.integers(-260, 260)),
        ),
        min_size=0,
        max_size=25,
    ),
    ports=st.lists(st.sampled_from([5, 6]), min_size=50, max_size=50),
    bin_ps=st.sampled_from([2, 3, 7]),
    center_ps=st.sampled_from([0, -50]),
    side_b_ps=st.sampled_from([100, 140]),
)
def test_correlate_tallies_agree_with_brute_force(t_b, offsets, ports, bin_ps, center_ps, side_b_ps):
    # A tags sit at chosen delays from B tags, so edge taus and duplicate
    # timestamps occur often; every tag gets a random port.  The oracle looks
    # for the peaks around tau = center; correlate sees the B stream shifted
    # by center instead, which gives the same matches.
    t_a = [t_b[j % len(t_b)] + center_ps + tau for j, tau in offsets] if t_b else []
    tags_a = stream(t_a, ports[: len(t_a)])
    tags_b = stream(t_b, ports[25 : 25 + len(t_b)])
    shifted_b = stream([t + center_ps for t in t_b], ports[25 : 25 + len(t_b)])
    cfg = CorrelatorConfig(
        window=10e-12,
        bin_width=bin_ps * 1e-12,
        tau_max=200e-12,
        side_offset_a=100e-12,
        side_offset_b=side_b_ps * 1e-12,
    )
    hist = correlate(tags_a, shifted_b, cfg)
    counts, central, side_plus, side_minus, n_matches = brute_force_histogram(
        tags_a, tags_b, 10, bin_ps, 200, 100, side_b_ps, center_ps
    )
    assert np.array_equal(hist.counts, counts)
    assert np.array_equal(hist.central, central)
    assert np.array_equal(hist.side_plus, side_plus)
    assert np.array_equal(hist.side_minus, side_minus)
    assert hist.n_matches == n_matches
    assert hist.n_comparisons == len(tags_a) + n_matches


def test_empty_streams_give_empty_histogram():
    hist = correlate(stream([]), stream([]), CFG)
    assert hist.counts.sum() == 0
    assert hist.central.sum() == 0
    assert hist.n_matches == 0


def test_known_delays_land_in_their_windows():
    # three coincidences at tau = 0, -100, +100 ps and one accidental at 57 ps
    t_a = [1_000, 2_000, 3_100, 4_057]
    t_b = [1_000, 2_100, 3_000, 4_000]
    ports_a = [5, 5, 6, 6]
    ports_b = [5, 6, 5, 6]
    hist = correlate(stream(t_a, ports_a), stream(t_b, ports_b), CFG)
    assert hist.n_matches == 4
    assert hist.central[0, 0] == 1  # (5,5) at tau 0
    assert hist.side_minus[0, 1] == 1  # (5,6) at tau -100
    assert hist.side_plus[1, 0] == 1  # (6,5) at tau +100
    # the 57 ps accidental is binned but in no peak window
    assert hist.central.sum() + hist.side_plus.sum() + hist.side_minus.sum() == 3
    assert hist.counts.sum() == 4


def test_window_totals_are_window_sums_not_bin_sums():
    hist = correlate(stream([1000]), stream([1009]), CFG)
    assert hist.central[0, 0] == 1  # tau = -9 inside w = 10
    hist2 = correlate(stream([1000]), stream([1011]), CFG)
    assert hist2.central.sum() == 0  # tau = -11 outside


def test_unsorted_stream_is_a_hard_error():
    bad = TagStream.__new__(TagStream)
    bad.port = np.array([5, 5], dtype=np.uint8)
    bad.time_ps = np.array([10, 5], dtype=np.int64)
    bad._diag_branch = np.zeros(2, dtype=np.int8)
    bad._diag_pair_id = np.zeros(2, dtype=np.int64)
    with pytest.raises(StreamOrderError):
        correlate(bad, stream([1, 2]), CFG)


def test_overlap_warning_flag():
    wide = CorrelatorConfig(window=60e-12, bin_width=2e-12, tau_max=200e-12, **SIDES)
    hist = correlate(stream([100]), stream([105]), wide)
    assert hist.overlap_warning
    assert any("overlap" in w for w in hist.warnings)
    assert not correlate(stream([100]), stream([105]), CFG).overlap_warning
    # the rule holds on the rounded picoseconds the windows use: 49.6 ps is a
    # 50 ps window, so [-50, 50] and the LS window [50, 150] share tau = 50
    for window, overlaps in ((49.6e-12, True), (49.4e-12, False)):
        cfg = CorrelatorConfig(window=window, bin_width=2e-12, tau_max=200e-12, **SIDES)
        hist = correlate(stream([100]), stream([105]), cfg)
        assert hist.overlap_warning is overlaps
        assert any("overlap" in w for w in hist.warnings) is overlaps


def test_validation_requires_room_for_side_peaks():
    with pytest.raises(ValueError, match="tau_max"):
        CorrelatorConfig(window=10e-12, bin_width=2e-12, tau_max=50e-12, **SIDES).validate()
    # the farther side peak sets the bound, and the nearer one the overlap warning
    unequal = {"window": 10e-12, "bin_width": 2e-12, "side_offset_a": 100e-12}
    with pytest.raises(ValueError, match="both side peaks"):
        CorrelatorConfig(tau_max=150e-12, side_offset_b=145e-12, **unequal).validate()
    assert CorrelatorConfig(tau_max=160e-12, side_offset_b=145e-12, **unequal).validate() == []
    assert CorrelatorConfig(tau_max=160e-12, side_offset_b=15e-12, **unequal).validate()
    with pytest.raises(ConfigError, match="tau_max"):
        parse_config('{"umzi_b": {"t_sl": 195e-12}}')


def test_side_peaks_sit_at_each_partys_delay():
    # SL lands at tau = -t_sl^B and LS at +t_sl^A: with unequal delays each
    # side window still holds a quarter of the pairs
    cfg = parse_config('{"seed": 4, "umzi_b": {"t_sl": 140e-12}, "detector": {"jitter": 0.0}}')
    n = 50_000
    _, _, _, hist = simulate_point(cfg, (0,), n, 0.0, 0.0)
    assert (hist.side_offset_a_ps, hist.side_offset_b_ps) == (100, 140)
    sigma = math.sqrt(n * 0.25 * 0.75)
    assert abs(hist.side_plus.sum() - n / 4) <= 4.0 * sigma
    assert abs(hist.side_minus.sum() - n / 4) <= 4.0 * sigma


def _simulated_streams(n=30_000, seed=2, jitter=2e-12):
    model = SpectralModel(f0=3.7e14, delta=1e12, tau_ind=10e-9, pair_rate=1e6)
    pairs = sample_pairs(model, n, seed=seed)
    det = DetectorModel(jitter=jitter, efficiency=1.0)
    cfg_a = UmziConfig(t_sl=100e-12, phase=0.0, gamma=1.0)
    cfg_b = UmziConfig(t_sl=100e-12, phase=0.0, gamma=1.0)
    return simulate_tags(pairs, cfg_a, cfg_b, det, seed=seed)


def test_counts_are_monotone_in_the_window():
    tags_a, tags_b = _simulated_streams()
    totals = []
    for w in (2e-12, 5e-12, 10e-12, 20e-12, 40e-12):
        cfg = CorrelatorConfig(window=w, bin_width=2e-12, tau_max=200e-12, **SIDES)
        totals.append(correlate(tags_a, tags_b, cfg).central.sum())
    assert all(a <= b for a, b in zip(totals, totals[1:]))


def test_vanishing_window_starves_the_central_peak():
    # with heavy jitter, shrinking w empties the central window
    tags_a, tags_b = _simulated_streams(n=20_000, jitter=20e-12)
    wide = CorrelatorConfig(window=10e-12, bin_width=2e-12, tau_max=200e-12, **SIDES)
    narrow = CorrelatorConfig(window=1e-12, bin_width=2e-12, tau_max=200e-12, **SIDES)
    n_wide = correlate(tags_a, tags_b, wide).central.sum()
    n_narrow = correlate(tags_a, tags_b, narrow).central.sum()
    assert n_narrow < 0.2 * n_wide


def test_candidate_comparisons_stay_linear():
    # dense synthetic streams: the sweep bound N_A + N_B + matches must hold
    rng = np.random.default_rng(5)
    t_a = np.sort(rng.integers(0, 50_000, 20_000)).astype(np.int64)
    t_b = np.sort(rng.integers(0, 50_000, 20_000)).astype(np.int64)
    ia, ib, comparisons = sweep_matches(t_a, t_b, -200, 200)
    assert comparisons <= t_a.size + t_b.size + ia.size
    hist = correlate(stream(t_a), stream(t_b), CFG)
    assert hist.n_comparisons <= len(t_a) + len(t_b) + hist.n_matches


def test_correlator_is_blind_to_diagnostics():
    tags_a, tags_b = _simulated_streams(n=20_000)
    h1 = correlate(tags_a, tags_b, CFG)
    h2 = correlate(blinded(tags_a), blinded(tags_b), CFG)
    assert np.array_equal(h1.counts, h2.counts)
    assert np.array_equal(h1.central, h2.central)
    assert np.array_equal(h1.side_plus, h2.side_plus)


def test_determinism():
    tags_a, tags_b = _simulated_streams(n=10_000)
    h1 = correlate(tags_a, tags_b, CFG)
    h2 = correlate(tags_a, tags_b, CFG)
    assert np.array_equal(h1.counts, h2.counts)
    assert h1.n_comparisons == h2.n_comparisons


def test_off_center_window():
    # delaying B by d shifts the peak structure to tau = -d, out of every
    # window; taking d off the B stream brings it back
    t_a = [1_000, 2_000, 3_100]
    t_b = [1_050, 2_050, 3_050]
    delayed = correlate(stream(t_a), stream(t_b), CFG)
    assert delayed.n_matches == 3  # tau = -50 twice, +50 once
    assert delayed.central.sum() + delayed.side_plus.sum() + delayed.side_minus.sum() == 0
    hist = correlate(stream(t_a), stream([t - 50 for t in t_b]), CFG)
    assert hist.central.sum() == 2  # tau = 0 twice
    assert hist.side_plus.sum() == 1  # tau = +100 = side_offset_a


def test_peak_counts_and_fraction():
    tags_a, tags_b = _simulated_streams(n=30_000)
    hist = correlate(tags_a, tags_b, CFG)
    central = hist.central.sum()
    assert hist.central_fraction == central / (central + hist.side_plus.sum() + hist.side_minus.sum())
    assert 0.45 < hist.central_fraction < 0.55


def test_histogram_csv_format(tmp_path):
    tags_a, tags_b = _simulated_streams(n=5_000)
    hist = correlate(tags_a, tags_b, CFG)
    path = tmp_path / "hist.csv"
    write_histogram_csv(hist, path, seed=2, config_hash="beef")
    lines = path.read_text().splitlines()
    assert lines[0] == "# franson-histogram v1"
    assert "# seed=2" in lines
    assert "# config_hash=beef" in lines
    header_idx = lines.index("tau_ps,port_a,port_b,count")
    rows = [ln.split(",") for ln in lines[header_idx + 1 :]]
    assert len(rows) == hist.n_bins * 4
    total = sum(int(r[3]) for r in rows)
    assert total == hist.counts.sum()
