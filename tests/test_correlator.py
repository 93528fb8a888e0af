"""Coincidence correlator: matching oracle, windows, complexity."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from franson import correlator
from franson.correlator import (
    CorrelatorConfig,
    correlate,
    sweep_matches,
    write_histogram_csv,
)
from franson.config import config_from_dict, load_config, parse_config
from franson.detection import (
    DetectorModel,
    TagStream,
    read_timetags,
    simulate_run,
    simulate_tags,
    write_timetag_chunks,
)
from franson.errors import ConfigError
from franson.rng import KIND_TIMETAGS
from franson.interferometer import UmziConfig
from franson.source import SpectralModel, sample_pairs

from conftest import simulate_point
from oracles import window_totals


SIDES = {"side_offset_a": 100e-12, "side_offset_b": 100e-12}
CFG = CorrelatorConfig(window=10e-12, bin_width=2e-12, tau_max=200e-12, **SIDES)


def stream(times_ps, ports=None):
    ports = ports if ports is not None else [5] * len(times_ps)
    return TagStream(np.asarray(ports), np.asarray(times_ps, dtype=np.int64))


def brute_force_matches(t_a, t_b, tau_lo, tau_hi):
    """Quadratic all-pairs oracle for the sweep."""
    out = []
    for i, ta in enumerate(t_a):
        for j, tb in enumerate(t_b):
            if tau_lo <= ta - tb <= tau_hi:
                out.append((i, j))
    return sorted(out)


def batches(t_a, t_b, tau_lo, tau_hi, batch):
    """The sweep's batches, with SWEEP_BATCH set to ``batch``."""
    t_a, t_b = (np.asarray(t, dtype=np.int64) for t in (t_a, t_b))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(correlator, "SWEEP_BATCH", batch)
        return list(sweep_matches(t_a, t_b, tau_lo, tau_hi))


@settings(max_examples=80, deadline=None)
@given(
    t_a=st.lists(st.integers(0, 400), min_size=0, max_size=40),
    t_b=st.lists(st.integers(0, 400), min_size=0, max_size=40),
    tau_lo=st.integers(-60, 20),
    width=st.integers(0, 80),
    batch=st.sampled_from([1, 2, 3, 7, 2**16]),
)
# three A tags with runs of 17, 13 and 6 B tags in one block of 7: six slices,
# two of which hold the end of one run and the start of the next
@example(t_a=[100, 355, 390], t_b=list(range(0, 400, 5)), tau_lo=-60, width=80, batch=7)
# runs of 7, 0, 0 and 7 B tags in one block of 7: the first run ends on the
# slice boundary, and the two empty runs sit at it
@example(
    t_a=[30, 150, 160, 350],
    t_b=list(range(0, 35, 5)) + list(range(300, 400, 5)),
    tau_lo=0,
    width=30,
    batch=7,
)
# one run of 17 B tags spans six slices of 3
@example(t_a=[200], t_b=list(range(0, 400, 5)), tau_lo=-60, width=80, batch=3)
def test_sweep_agrees_with_brute_force(t_a, t_b, tau_lo, width, batch):
    # small batches split the A tags into blocks and each block's list of
    # matches into many slices; the largest takes each list whole
    t_a, t_b = sorted(t_a), sorted(t_b)
    tau_hi = tau_lo + width
    passes = batches(t_a, t_b, tau_lo, tau_hi, batch)
    got = sorted(pair for ia, ib in passes for pair in zip(ia.tolist(), ib.tolist()))
    assert got == brute_force_matches(t_a, t_b, tau_lo, tau_hi)
    assert all(0 < ia.size == ib.size <= batch for ia, ib in passes)


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


def assert_equals_oracle(hist, oracle, n_a):
    counts, central, side_plus, side_minus, n_matches = oracle
    assert np.array_equal(hist.counts, counts)
    assert np.array_equal(hist.central, central)
    assert np.array_equal(hist.side_plus, side_plus)
    assert np.array_equal(hist.side_minus, side_minus)
    assert hist.n_matches == n_matches
    assert hist.n_comparisons == n_a + n_matches


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
    oracle = brute_force_histogram(tags_a, tags_b, 10, bin_ps, 200, 100, side_b_ps, center_ps)
    assert_equals_oracle(hist, oracle, len(tags_a))


@settings(max_examples=40, deadline=None)
@given(
    t_b=st.lists(st.integers(0, 100), min_size=1, max_size=50),
    offsets=st.lists(
        st.tuples(st.integers(0, 49), st.one_of(st.sampled_from(EDGE_TAUS), st.integers(-60, 60))),
        min_size=0,
        max_size=20,
    ),
    ports=st.lists(st.sampled_from([5, 6]), min_size=70, max_size=70),
    batch=st.sampled_from([1, 5, 64, 2**16]),
)
@example(
    t_b=list(range(0, 100, 2)), offsets=[(j, 0) for j in range(20)], ports=[5, 6] * 35, batch=5
)
# runs of 26 to 50 B tags, 20 A tags in one block of 64: slices of 64 that
# split runs
@example(
    t_b=list(range(0, 100, 2)),
    offsets=[(j, 15 * j - 150) for j in range(20)],
    ports=[5, 6] * 35,
    batch=64,
)
def test_correlate_tallies_agree_with_brute_force_on_dense_streams(t_b, offsets, ports, batch):
    # up to 50 B tags within 100 ps: an A tag near them matches up to 50 of
    # them, so a block's list of matches spans many slices, or a few
    t_a = [t_b[j % len(t_b)] + tau for j, tau in offsets]
    tags_a = stream(t_a, ports[: len(t_a)])
    tags_b = stream(t_b, ports[20 : 20 + len(t_b)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(correlator, "SWEEP_BATCH", batch)
        hist = correlate(tags_a, tags_b, CFG)
    oracle = brute_force_histogram(tags_a, tags_b, 10, 2, 200, 100, 100, 0)
    assert_equals_oracle(hist, oracle, len(tags_a))


@settings(max_examples=60, deadline=None)
@given(
    t_b=st.lists(st.integers(0, 300), min_size=0, max_size=30),
    offsets=st.lists(
        st.tuples(st.integers(0, 29), st.one_of(st.sampled_from(EDGE_TAUS), st.integers(-60, 60))),
        min_size=0,
        max_size=30,
    ),
    ports=st.lists(st.sampled_from([5, 6]), min_size=90, max_size=90),
    batch=st.sampled_from([1, 2, 3, 7, 2**16]),
    side_b_ps=st.sampled_from([100, 140]),
)
# duplicate B times, and A tags at them and on both central window edges
@example(
    t_b=[50, 50, 50, 60, 60],
    offsets=[(0, 0), (1, 10), (2, -10), (3, 11), (4, -11), (3, 100), (0, -140)],
    ports=[5, 6, 6] * 30,
    batch=2,
    side_b_ps=140,
)
def test_central_counts_are_correlates_central_tables(t_b, offsets, ports, batch, side_b_ps):
    # two port columns on one set of B times, as the steps of a sweep give:
    # one sweep of [-w, w] counts each B column as correlate counts it alone
    t_a = [t_b[j % len(t_b)] + tau for j, tau in offsets] if t_b else []
    tags_a = stream(t_a, ports[: len(t_a)])
    streams_b = [stream(t_b, ports[30 * s : 30 * s + len(t_b)]) for s in (1, 2)]
    cfg = CorrelatorConfig(window=10e-12, bin_width=2e-12, tau_max=200e-12, side_offset_a=100e-12,
                           side_offset_b=side_b_ps * 1e-12)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(correlator, "SWEEP_BATCH", batch)
        tables = correlator._central_counts(tags_a, streams_b, cfg)
    assert tables.shape == (2, 2, 2)
    for table, tags_b in zip(tables, streams_b):
        assert np.array_equal(table, correlate(tags_a, tags_b, cfg).central)


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


def test_tag_stream_columns_are_read_only(tmp_path):
    # a stream is sorted once, when built, and no write in place can unsort it:
    # the correlator, the central counter and the dump writer check no order
    given_ports, given_times = np.array([5, 6, 5]), np.array([10, 5, 7], dtype=np.int64)
    built = TagStream(given_ports, given_times)
    pairs = sample_pairs(SpectralModel(), 200, seed=3)
    simulated = simulate_tags(pairs, UmziConfig(), UmziConfig(), DetectorModel(), 3)
    write_timetag_chunks(tmp_path / "tags.dat", [(*simulated, None)], 3, "0")
    read = read_timetags(tmp_path / "tags.dat")[:2]
    for tags in (built, *simulated, *read):
        assert len(tags) > 0
        for column in (tags.port, tags.time_ps):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[-1]
            with pytest.raises(ValueError, match="read-only"):
                column += 0
            with pytest.raises(ValueError, match="read-only"):
                column.sort()
    assert np.array_equal(built.time_ps, [5, 7, 10]) and np.array_equal(built.port, [6, 5, 5])
    # the given arrays are not frozen
    given_ports[0] = given_times[0] = 6


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


def test_tau_max_must_reach_past_the_farther_side_window():
    # correlate finds matches only within +-tau_max, so a side window past it
    # would lose counts unseen: all three pairs lie in the LS window [70, 130] ps
    short = CorrelatorConfig(window=30e-12, bin_width=2e-12, tau_max=112e-12, **SIDES)
    with pytest.raises(ValueError, match=r"^tau_max must cover both side windows: .* = 130 ps"):
        short.validate()
    with pytest.raises(ConfigError, match=r"^correlator\.tau_max must cover both side windows"):
        config_from_dict({"correlator": {"window": 30e-12, "tau_max": 112e-12}})
    reach = CorrelatorConfig(window=30e-12, bin_width=2e-12, tau_max=130e-12, **SIDES)
    assert reach.validate() == []
    hist = correlate(stream([95, 10_125, 20_105]), stream([0, 10_000, 20_000]), reach)
    assert hist.side_plus.sum() == hist.n_matches == 3
    # compared on the whole picoseconds the windows use: 129.6 ps is 130 ps
    for tau_max, ok in ((129.6e-12, True), (129.4e-12, False)):
        cfg = CorrelatorConfig(window=30e-12, bin_width=2e-12, tau_max=tau_max, **SIDES)
        if ok:
            assert cfg.validate() == []
        else:
            with pytest.raises(ValueError, match="tau_max"):
                cfg.validate()


@pytest.mark.parametrize("side_a_ps, side_b_ps", [(100, 140), (140, 100)], ids=["b-farther", "a-farther"])
@pytest.mark.parametrize("short_ps", [0.0, 0.4, 0.6, 1.0])
def test_tau_max_bound_follows_the_farther_side_window(side_a_ps, side_b_ps, short_ps):
    # the bound is the farther side offset + w, whichever party's it is, on the
    # whole picoseconds the windows use: 0.4 ps short rounds onto it, 0.6 ps not
    reach_ps = max(side_a_ps, side_b_ps) + 30
    cfg = CorrelatorConfig(
        window=30e-12,
        bin_width=2e-12,
        tau_max=(reach_ps - short_ps) * 1e-12,
        side_offset_a=side_a_ps * 1e-12,
        side_offset_b=side_b_ps * 1e-12,
    )
    if short_ps > 0.5:
        with pytest.raises(ValueError, match=rf"^tau_max must cover both side windows: .* = {reach_ps} ps"):
            cfg.validate()
        return
    assert cfg.validate() == []
    # a pair on the far edge of each side window, LS at +(t_A + w) and SL at
    # -(t_B + w), is matched and counted in its window
    edge_a, edge_b = side_a_ps + 30, side_b_ps + 30
    hist = correlate(stream([10_000 + edge_a, 20_000]), stream([10_000, 20_000 + edge_b]), cfg)
    assert hist.side_plus.sum() == hist.side_minus.sum() == 1
    assert hist.n_matches == 2

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
    matches = sum(ia.size for ia, _ in sweep_matches(t_a, t_b, -200, 200))
    hist = correlate(stream(t_a), stream(t_b), CFG)
    assert hist.n_matches == matches
    assert hist.n_comparisons == t_a.size + matches <= len(t_a) + len(t_b) + hist.n_matches


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


def _traced(fn, *args):
    """The return value of one call and its traced peak (bytes)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_correlate_memory_does_not_grow_with_matches():
    # the same 200 000 A tags, 2 ns apart on average; B holds each one's
    # partner plus k - 1 accidentals inside +-tau_max of a random A tag, so
    # there are about k matches per A tag
    rng = np.random.default_rng(8)
    n = 200_000
    tags_a = stream(np.sort(rng.integers(0, 2_000 * n, n)))

    def peak(k):
        m = (k - 1) * n
        near = tags_a.time_ps[rng.integers(0, n, m)] + rng.integers(-190, 191, m)
        partners = tags_a.time_ps + rng.integers(-5, 6, n)
        tags_b = stream(np.sort(np.concatenate([partners, near])))
        hist, peak = _traced(correlate, tags_a, tags_b, CFG)
        assert hist.n_matches >= 0.9 * k * n
        return peak

    assert peak(5) <= 1.5 * peak(1)


@pytest.mark.parametrize("chunk", [1, 3, 2**14])
def test_histogram_csv_bytes_equal_the_row_by_row_rendering(tmp_path, monkeypatch, chunk):
    # counts of every width from 1 to 19 digits, over bins below, at and above tau = 0
    hist = correlate(stream([1000]), stream([1000]), CFG)
    rng = np.random.default_rng(3)
    shape = hist.counts.shape
    hist.counts = rng.integers(0, 2**63 - 1, shape) // 10 ** rng.integers(0, 19, shape)
    monkeypatch.setattr(correlator, "CSV_CHUNK", chunk)
    path = tmp_path / "hist.csv"
    write_histogram_csv(hist, path, seed=2, config_hash="beef")
    centers = hist.bin_centers_ps()
    rows = [
        f"{centers[k]},{a + 5},{b + 5},{hist.counts[a, b, k]}\n"
        for k in range(hist.n_bins)
        for a in (0, 1)
        for b in (0, 1)
    ]
    header = path.read_text().split("tau_ps,port_a,port_b,count\n")[0]
    assert header.startswith("# franson-histogram v1\n# seed=2\n# config_hash=beef\n")
    assert path.read_text() == header + "tau_ps,port_a,port_b,count\n" + "".join(rows)


DUMP_REPLAY = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "dump-replay.json"


@pytest.mark.parametrize(
    "variant",
    [
        {},
        {"umzi_b": {"t_sl": 70e-12}},
        {"detector": {"efficiency": 0.7, "jitter": 5e-12}, "source": {"pump_linewidth": 5e9}},
    ],
    ids=["dump-replay", "unequal-delays", "lossy-jittered-pump"],
)
@pytest.mark.parametrize("seed", [1, 2])
def test_dumped_run_window_totals_follow_the_closed_form(tmp_path, variant, seed):
    # the whole tag path, source to correlator through a dump, at 10**10
    # pairs/s, where accidentals make up a sixth of each same-port central
    # total: every window total of every port pair lies within 4 Poisson
    # standard deviations of the closed form
    raw = json.loads(DUMP_REPLAY.read_text())
    for section, keys in variant.items():
        raw[section] = {**raw[section], **keys}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    n_pairs = 200_000
    chunks = simulate_run(
        cfg.source, cfg.umzi_a, cfg.umzi_b, cfg.detector, n_pairs, seed, (KIND_TIMETAGS,)
    )
    dump = tmp_path / "timetags.dat"
    write_timetag_chunks(dump, chunks, seed, "c0ffee")
    tags_a, tags_b, _ = read_timetags(dump)
    hist = correlate(tags_a, tags_b, cfg.correlator)
    for name, expected in window_totals(raw, n_pairs).items():
        pulls = (getattr(hist, name) - expected) / np.sqrt(expected)
        assert np.all(np.abs(pulls) <= 4.0), (name, pulls)
