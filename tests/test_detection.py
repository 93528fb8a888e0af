"""Detection sampling: time assembly, post-selection split, efficiency."""

import hashlib
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from franson import correlator, detection
from franson.cli import main
from franson.correlation import fringe_term
from franson.detection import (
    DetectorModel,
    TagStream,
    read_timetags,
    simulate_run,
    simulate_tags,
    write_timetag_chunks,
    write_timetags,
)
from franson.interferometer import UmziConfig
from franson.rng import KIND_TIMETAGS
from franson.source import PairEnsemble, SpectralModel, sample_pairs, to_picoseconds

from conftest import chi2_quantile
from oracles import BRANCHES, branch_from_tau, outcome_table

T_SL = 100e-12
T_SL_PS = 100
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
HEADER = "# franson-timetags v1\n# seed=0\n# config_hash=c0ffee\n# columns: party port time_ps\n"


def umzi(phase=0.0, gamma=1.0):
    return UmziConfig(t_sl=T_SL, phase=phase, gamma=gamma)


def model(delta=1e12):
    return SpectralModel(f0=3.7e14, delta=delta, tau_ind=10e-9, pair_rate=1e6)


def clean_ensemble(n):
    """Pairs with eps = 0 and spaced emission times; exact tau arithmetic."""
    zeros = np.zeros(n)
    t0_ps = 10**6 * (1 + np.arange(n))
    return PairEnsemble(zeros, zeros, t0_ps, zeros)


def detect(pairs, cfg_a, cfg_b, *args, **kwargs):
    """The per-pair step of ``simulate_tags(pairs, cfg_a, cfg_b, *args,
    **kwargs)``, the port-B choice included: the branch and each party's
    (port, time_ps, kept), in pair order."""
    branch, same, (port_a, t_a, kept_a), (t_b, kept_b) = detection._detect(
        pairs, cfg_a, cfg_b, *args, **kwargs
    )
    port_b = detection._port_b(fringe_term(pairs.df, pairs.dp, cfg_a, cfg_b), branch, same, port_a)
    return branch, (port_a, t_a, kept_a), (port_b, t_b, kept_b)


def per_pair(*args, **kwargs):
    """The per-pair step of ``simulate_tags(*args, **kwargs)``, every tag kept:
    (branch, port_a, port_b, tau = t_A - t_B), in pair order."""
    branch, (port_a, t_a, kept_a), (port_b, t_b, kept_b) = detect(*args, **kwargs)
    assert kept_a.all() and kept_b.all()
    return branch, port_a, port_b, t_a - t_b


def test_central_branch_has_zero_delay_without_jitter():
    pairs = clean_ensemble(2_000)
    det = DetectorModel(jitter=0.0, efficiency=1.0)
    branches, _, _, tau = per_pair(pairs, umzi(), umzi(), det, seed=1)
    assert np.all(tau[branches == 0] == 0)
    assert np.all(tau[branches == 1] == -T_SL_PS)  # short at A, long at B
    assert np.all(tau[branches == 2] == +T_SL_PS)
    for t, b in zip(tau[:100], branches[:100]):
        assert branch_from_tau(int(t), T_SL_PS) == BRANCHES[b]


def test_side_branch_delay_includes_eps():
    n = 500
    eps = np.full(n, 3e-12)
    ens = PairEnsemble(np.zeros(n), np.zeros(n), 10**6 * (1 + np.arange(n)), eps)
    det = DetectorModel(jitter=0.0, efficiency=1.0)
    branches, _, _, tau = per_pair(ens, umzi(), umzi(), det, seed=2)
    assert np.all(tau[branches == 1] == -T_SL_PS - 3)
    assert np.all(tau[branches == 2] == +T_SL_PS - 3)


def test_half_of_all_pairs_are_centrally_coincident():
    # ideal parameters, joint phase 0: the post-selection keeps 50%
    mdl = model()
    pairs = sample_pairs(mdl, 100_000, seed=3)
    det = DetectorModel(jitter=2e-12, efficiency=1.0)
    _, _, _, tau = per_pair(pairs, umzi(), umzi(), det, seed=3)
    inside = np.abs(tau) < T_SL_PS / 10
    n = len(pairs)
    sigma = 0.5 / math.sqrt(n)
    assert abs(inside.mean() - 0.5) < 3.0 * sigma


def test_branch_probabilities_follow_the_joint_phase():
    # at joint phase 0 all central events sit in the equal-port pairs
    pairs = clean_ensemble(20_000)
    det = DetectorModel(jitter=0.0, efficiency=1.0)
    branches, ports_a, ports_b, _ = per_pair(pairs, umzi(0.0), umzi(0.0), det, seed=4)
    central = branches == 0
    assert np.all(ports_a[central] == ports_b[central])


# False-alarm rate of each statistical check in one example of the oracle test.
ORACLE_ALPHA = 1e-4


@settings(max_examples=6, deadline=None)
@given(
    phase=st.floats(0.0, 2.0 * math.pi),
    gamma_a=st.floats(0.0, 1.0),
    gamma_b=st.floats(0.0, 1.0),
    t_sl_b_ps=st.sampled_from([60, 100, 140]),
)
@example(phase=0.0, gamma_a=1.0, gamma_b=1.0, t_sl_b_ps=100)
@example(phase=math.pi, gamma_a=1.0, gamma_b=1.0, t_sl_b_ps=140)
@example(phase=2.0, gamma_a=0.9, gamma_b=0.48, t_sl_b_ps=60)
def test_sampled_outcomes_follow_the_scalar_oracle(phase, gamma_a, gamma_b, t_sl_b_ps):
    # 2**20 pairs with df = dp = 0, so every pair has the joint phase `phase`
    n = 2**20
    cfg_a = UmziConfig(t_sl=T_SL, phase=phase, gamma=gamma_a)
    cfg_b = UmziConfig(t_sl=t_sl_b_ps * 1e-12, phase=0.0, gamma=gamma_b)
    # the oracle gets the visibility the test states, V = gamma_A gamma_B, and
    # unit-overlap configs, so the package's own folding is what is checked
    unit_a, unit_b = replace(cfg_a, gamma=1.0), replace(cfg_b, gamma=1.0)
    oracle = outcome_table(0.0, 0.0, unit_a, unit_b, gamma_a * gamma_b).ravel()
    expected = n * oracle
    # a cell either expects at least 5 counts or is impossible: built from
    # amplitudes, an impossible cell carries a rounding residue, and one count
    # in a cell that expects below ORACLE_ALPHA fails it at that rate
    impossible = expected < ORACLE_ALPHA
    assume(np.all(impossible | (expected >= 5.0)))

    det = DetectorModel(jitter=0.0, efficiency=1.0)
    branch, port_a, port_b, tau = per_pair(clean_ensemble(n), cfg_a, cfg_b, det, seed=12)
    # the branch label is the one the delays show: SL at -t_sl^B, LS at +t_sl^A,
    # central at 0 (S-S) or t_sl^A - t_sl^B (L-L)
    central = branch == 0
    assert np.array_equal(tau[~central], np.array([0, -t_sl_b_ps, T_SL_PS])[branch[~central]])
    assert np.all((tau[central] == 0) | (tau[central] == T_SL_PS - t_sl_b_ps))

    # 12-cell frequencies: index port_a * 6 + port_b * 3 + branch, as in .ravel()
    port_a = port_a.astype(np.int64) - 5
    port_b = port_b.astype(np.int64) - 5
    counts = np.bincount(port_a * 6 + port_b * 3 + branch, minlength=12)
    possible = ~impossible
    assert np.all(counts[impossible] == 0)
    chi2 = np.sum((counts[possible] - expected[possible]) ** 2 / expected[possible])
    assert chi2 <= chi2_quantile(int(possible.sum()) - 1, ORACLE_ALPHA)

    # no-signaling: each party's port marginal is 1/2
    z = NormalDist().inv_cdf(1.0 - ORACLE_ALPHA / 2.0)
    for ports in (port_a, port_b):
        assert abs(np.count_nonzero(ports == 0) - n / 2) <= z * math.sqrt(n / 4)


@pytest.mark.parametrize("eta", [0.6, 1.0])
def test_packed_draws_are_fair_follow_the_efficiency_and_are_independent(eta):
    # column 3 of the detection block packs b_A, b_B, port A, keep_A and keep_B;
    # without jitter or pair delay each one reads off the per-pair step
    n = 2**20
    pairs = clean_ensemble(n)
    det = DetectorModel(jitter=0.0, efficiency=eta)
    _, (port_a, t_a, keep_a), (_, t_b, keep_b) = detect(
        pairs, umzi(), umzi(), det, seed=14
    )
    draws = {
        "b_A": (t_a - pairs.t0_ps) == T_SL_PS,
        "b_B": (t_b - pairs.t0_ps) == T_SL_PS,
        "port A": port_a == 6,
        "keep_A": keep_a,
        "keep_B": keep_b,
    }
    z = NormalDist().inv_cdf(1.0 - ORACLE_ALPHA / 2.0)
    kept = math.ceil(eta * 2**25) / 2**25  # the probability at the 2**-25 resolution
    for name, p in (("b_A", 0.5), ("b_B", 0.5), ("port A", 0.5), ("keep_A", kept), ("keep_B", kept)):
        count = np.count_nonzero(draws[name])
        assert abs(count - n * p) <= z * math.sqrt(n * p * (1.0 - p)) + n * 2.0**-26, name
    if eta == 1.0:
        assert keep_a.all() and keep_b.all()
    # pairwise independence: each 2x2 table against the product of its marginals
    varied = [name for name, d in draws.items() if 0 < np.count_nonzero(d) < n]
    for i, first in enumerate(varied):
        for second in varied[i + 1 :]:
            table = np.bincount(2 * draws[first] + draws[second], minlength=4).reshape(2, 2)
            expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
            chi2 = np.sum((table - expected) ** 2 / expected)
            assert chi2 <= chi2_quantile(1, ORACLE_ALPHA), (first, second)


def test_efficiency_scales_singles_and_coincidences():
    pairs = clean_ensemble(40_000)
    eta = 0.6
    det = DetectorModel(jitter=0.0, efficiency=eta)
    tags_a, tags_b = simulate_tags(pairs, umzi(), umzi(), det, seed=5)
    n = len(pairs)
    sigma_singles = math.sqrt(n * eta * (1 - eta))
    assert abs(len(tags_a) - eta * n) < 3.0 * sigma_singles
    assert abs(len(tags_b) - eta * n) < 3.0 * sigma_singles
    _, (_, _, kept_a), (_, _, kept_b) = detect(pairs, umzi(), umzi(), det, seed=5)
    both = np.count_nonzero(kept_a & kept_b)
    sigma_coinc = math.sqrt(n * eta**2 * (1 - eta**2))
    assert abs(both - eta**2 * n) < 3.0 * sigma_coinc


def test_streams_are_time_sorted_and_deterministic():
    pairs = sample_pairs(model(), 10_000, seed=6)
    det = DetectorModel(jitter=2e-12, efficiency=0.8)
    a1, b1 = simulate_tags(pairs, umzi(), umzi(), det, seed=6)
    a2, b2 = simulate_tags(pairs, umzi(), umzi(), det, seed=6)
    assert np.all(np.diff(a1.time_ps) >= 0)
    assert np.array_equal(a1.time_ps, a2.time_ps)
    assert np.array_equal(a1.port, a2.port)
    assert np.array_equal(b1.time_ps, b2.time_ps)


def test_simulate_tags_can_drop_tags():
    args = (clean_ensemble(400), umzi(), umzi(), DetectorModel(jitter=0.0, efficiency=0.4))
    tags_a, tags_b = simulate_tags(*args, seed=9)
    _, (_, _, kept_a), (_, _, kept_b) = detect(*args, seed=9)
    assert (len(tags_a), len(tags_b)) == (kept_a.sum(), kept_b.sum())
    counts = kept_a.astype(int) + kept_b  # tags per pair
    assert set(counts.tolist()) == {0, 1, 2}
    assert np.mean(counts) == pytest.approx(2 * 0.4, abs=0.1)


def test_simulated_streams_are_the_kept_tags_stably_sorted_by_time():
    # equal emission times, no pair delay and no jitter: each party's tags tie
    # at two times, short path and long, and only pair order ranks a tie
    n = 1_000
    pairs = PairEnsemble(np.zeros(n), np.zeros(n), np.full(n, 5_000), np.zeros(n))
    args = (pairs, umzi(), umzi(), DetectorModel(jitter=0.0, efficiency=0.7))
    _, *parties = detect(*args, seed=13)
    for stream, (port, time_ps, kept) in zip(simulate_tags(*args, seed=13), parties):
        assert np.unique(stream.time_ps).tolist() == [5_000, 5_000 + T_SL_PS]
        # the order of a sort by time, then by pair index
        order = np.lexsort((np.flatnonzero(kept), time_ps[kept]))
        assert np.array_equal(stream.time_ps, time_ps[kept][order])
        assert np.array_equal(stream.port, port[kept][order])
        # a tag is its port and its time, 9 bytes, and nothing else
        assert vars(stream).keys() == {"port", "time_ps"}
        assert (stream.port.dtype, stream.time_ps.dtype) == (np.uint8, np.int64)
        assert stream.port.nbytes + stream.time_ps.nbytes == 9 * len(stream)


def test_timetag_dump_round_trips_exactly(tmp_path):
    pairs = sample_pairs(model(), 5_000, seed=10)
    det = DetectorModel(jitter=2e-12, efficiency=0.9)
    tags_a, tags_b = simulate_tags(pairs, umzi(), umzi(), det, seed=10)
    path = tmp_path / "tags.dat"
    write_timetags(path, tags_a, tags_b, seed=10, config_hash="cafe0123")
    got_a, got_b, header = read_timetags(path)
    assert header["seed"] == "10"
    assert header["config_hash"] == "cafe0123"
    assert np.array_equal(got_a.time_ps, tags_a.time_ps)
    assert np.array_equal(got_a.port, tags_a.port)
    assert np.array_equal(got_b.time_ps, tags_b.time_ps)
    assert np.array_equal(got_b.port, tags_b.port)


def test_loaded_streams_keep_only_port_and_time(tmp_path):
    # what the reader leaves allocated is its streams' ports and times, with
    # no other per-tag arrays beside them
    pairs = sample_pairs(model(), 200_000, seed=12)
    tags_a, tags_b = simulate_tags(pairs, umzi(), umzi(), DetectorModel(), seed=12)
    path = tmp_path / "tags.dat"
    write_timetags(path, tags_a, tags_b, seed=12, config_hash="c0ffee")
    del pairs, tags_a, tags_b
    tracemalloc.start()
    try:
        got_a, got_b, _ = read_timetags(path)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(got_a) == len(got_b) == 200_000
    assert kept <= 1.5 * sum(s.port.nbytes + s.time_ps.nbytes for s in (got_a, got_b))


def test_read_timetags_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.dat"
    path.write_text("not a dump\n")
    with pytest.raises(ValueError, match="magic"):
        read_timetags(path)
    for record, problem in (
        ("A 7 1000", "port must be 5 or 6"),
        ("A 5", "expected 'party port time_ps'"),
        ("C 5 1000", "party must be A or B"),
        ("A 5 1.5e3", "time_ps must be an integer"),
        ("A 5 12345678901234567890", "time_ps must be an integer"),
        # only the writer's single-space form is a record
        ("A\t5\t1000", "expected 'party port time_ps'"),
        ("A  5 1000", "expected 'party port time_ps'"),
        (" A 5 1000", "expected 'party port time_ps'"),
        ("A 5 1000 ", "expected 'party port time_ps'"),
        ("A 5 +1000", "time_ps must be an integer"),
        ("A 5 1_000", "time_ps must be an integer"),
        ("A 5 1:0", "time_ps must be an integer"),  # ':' and '/' flank the digits
        ("A 5 1/0", "time_ps must be an integer"),
        ("A 5 1000\r", "time_ps must be an integer"),
        ("A 5 -", "time_ps must be an integer"),
        ("A 5 -12345678901234567890", "time_ps must be an integer"),
        # 19 digits parse; a magnitude of 2**62 or more fails for its size
        ("A 5 4611686018427387904", "|time_ps| must be below 2**62"),
        ("A 5 -9999999999999999999", "|time_ps| must be below 2**62"),
    ):
        path.write_text(f"# franson-timetags v1\nA 5 1000\n{record}\nB 5 1000\n")
        with pytest.raises(ValueError, match=rf"junk.dat:3: {re.escape(problem)}"):
            read_timetags(path)


def hand_stream(ports, times):
    return TagStream(np.asarray(ports), np.asarray(times, dtype=np.int64))


def test_the_party_of_a_dumped_stream_is_its_position(tmp_path):
    # one interferometer config for both photons still dumps a B stream
    pairs = sample_pairs(SpectralModel(), 3, seed=11)
    tags_a, tags_b = simulate_tags(pairs, umzi(), umzi(), DetectorModel(), seed=11)
    path = tmp_path / "tags.dat"
    write_timetags(path, tags_a, tags_b, seed=11, config_hash="c0ffee")
    parties = [line[0] for line in path.read_text().splitlines() if line[0] != "#"]
    assert sorted(parties) == ["A"] * 3 + ["B"] * 3
    got_a, got_b, _ = read_timetags(path)
    assert len(got_a) == len(got_b) == 3
    assert np.array_equal(got_b.time_ps, tags_b.time_ps)


def test_timetag_dump_round_trips_signs_and_widths(tmp_path):
    big = 2**62 - 1  # the widest time a record holds: 19 digits
    tags_a = hand_stream([5, 6, 5, 6, 5, 6], [-big, -10, -1, 0, 9, big])
    tags_b = hand_stream([6, 5, 6, 5], [-big, 0, 10, 10**18])
    path = tmp_path / "tags.dat"
    write_timetags(path, tags_a, tags_b, seed=0, config_hash="c0ffee")
    text = path.read_text()
    assert text.startswith(HEADER)
    assert f"A 5 -{big}\nB 6 -{big}\n" in text and "A 6 0\nB 5 0\n" in text
    got_a, got_b, _ = read_timetags(path)
    for got, want in ((got_a, tags_a), (got_b, tags_b)):
        assert np.array_equal(got.time_ps, want.time_ps)
        assert np.array_equal(got.port, want.port)


def test_a_dump_past_ten_to_the_eighteen_ps_reads_back(tmp_path):
    # at 1 pair/s a run reaches 10**18 ps, a 19-digit time, after ~10**6 pairs
    pairs = sample_pairs(SpectralModel(pair_rate=1.0), 500, seed=3, origin_ps=10**18 - 10**14)
    tags_a, tags_b = simulate_tags(pairs, umzi(), umzi(), DetectorModel(), seed=3)
    path = tmp_path / "tags.dat"
    write_timetags(path, tags_a, tags_b, seed=3, config_hash="c0ffee")
    got_a, got_b, _ = read_timetags(path)
    assert got_b.time_ps.max() >= 10**18
    for got, want in ((got_a, tags_a), (got_b, tags_b)):
        assert np.array_equal(got.time_ps, want.time_ps)
        assert np.array_equal(got.port, want.port)


def test_an_empty_dump_reads_and_a_cut_one_fails(tmp_path):
    path = tmp_path / "tags.dat"
    write_timetags(path, hand_stream([], []), hand_stream([], []), 0, "c0ffee")
    assert path.read_text() == HEADER
    got_a, got_b, header = read_timetags(path)
    assert len(got_a) == len(got_b) == 0 and header["config_hash"] == "c0ffee"
    path.write_text("# franson-timetags v1")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: .*magic"):
        read_timetags(path)
    path.write_text(HEADER + "B 6 -7\nA 5 12")  # read whole, the last record would be 12 ps
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:6: the file ends inside"):
        read_timetags(path)


@pytest.mark.parametrize("port", [0, 261])
def test_tag_streams_reject_ports_other_than_5_and_6(port):
    # 261 would wrap to 5 in the uint8 cast, and port 0 would fail only inside correlate
    with pytest.raises(ValueError, match="ports must be 5 or 6"):
        TagStream([port, 5], [0, 1])


@pytest.mark.parametrize(
    "times, bad",
    [([1.7, 0.2], "1.7"), ([3.0, np.nan], "nan"), ([0.0, 2.0**63], "9.223372036854776e+18")],
)
def test_tag_streams_reject_times_the_int64_cast_would_change(times, bad):
    # 1.7 would read as 1 and 2**63 would wrap; whole float picoseconds are kept
    message = f"^time_ps must be integer picoseconds, got {re.escape(bad)}$"
    with pytest.raises(ValueError, match=message):
        TagStream([5, 6], times)
    assert TagStream([5, 6], [2.0, -(2.0**61)]).time_ps.tolist() == [-(2**61), 2]


@pytest.mark.parametrize("time_ps", [2**62, -(2**62), -(2**63) + 3])
def test_tag_streams_reject_times_a_dump_could_not_hold(time_ps):
    # a tag at 2**62 would be written to a dump its reader refuses, and tags
    # near -2**63 would wrap the correlator's window bound and lose matches
    with pytest.raises(ValueError, match=rf"^\|time_ps\| must be below 2\*\*62, got {time_ps}$"):
        hand_stream([5, 6], [0, time_ps])


@pytest.mark.parametrize("ports, times", [([5, 6, 5], [1, 2]), ([5], [3, 1, 2])])
def test_tag_streams_reject_ports_and_times_of_different_lengths(ports, times):
    with pytest.raises(ValueError, match=rf"differ in length, got {len(ports)} and {len(times)}$"):
        TagStream(ports, times)


def test_write_timetags_rejects_records_the_reader_would():
    with pytest.raises(ValueError, match="ports must be 5 or 6"):
        write_timetags("unused", hand_stream([7], [0]), hand_stream([], []), 0, "x")


HAND_BUILT_PIN = "ceb5776a8664d3b7"


def write_pinned_hand_built_dump(path):
    times = [(-1) ** k * (7 * 10**k + k) for k in range(18)] + [0, 0, 5, -5]  # every width
    ports = [5 + (k % 3 == 0) for k in range(len(times))]
    tags_a = hand_stream(ports, times)
    tags_b = hand_stream(ports[::-1], [t // 3 for t in times])  # ties with A at 0
    write_timetags(path, tags_a, tags_b, seed=7, config_hash="0123456789abcdef")


def test_timetag_format_bytes_are_pinned_on_hand_built_streams(tmp_path):
    # format v1 is a data product: its bytes must not move, whatever the sampler
    path = tmp_path / "tags.dat"
    write_pinned_hand_built_dump(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == HAND_BUILT_PIN


@pytest.mark.parametrize(
    "config, digest",
    [("ideal.json", "48572182e8976bc0"), ("pump_jitter.json", "1eb6a9c3c41147f0")],
    ids=["ideal.json", "pump_jitter.json"],  # a re-pin keeps the test ids
)
def test_timetags_dump_bytes_are_pinned(tmp_path, config, digest):
    # the simulated dump is pinned too: it moves only with a deliberate stream
    # change; so are the correlator's products of it, which hold integer counts
    # and one ratio of two integers
    argv = ["--config", str(CONFIGS / config), "--out", str(tmp_path)]
    assert main(["timetags", *argv, "--pairs", "20000"]) == 0
    assert main(["correlate", *argv, "--input", str(tmp_path / "timetags.dat")]) == 0
    got = [
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
        for name in ("timetags.dat", "histogram.csv", "correlate.json")
    ]
    assert got == [digest, *CORRELATE_PINS[config]]


def test_pinned_dump_and_products_hold_in_small_chunks(tmp_path, monkeypatch):
    # 20 000 pairs simulated in 20 chunks, their 40 000 records written 1000
    # at a time and read in 4 KiB blocks, the histogram written 7 bins at a
    # time: every pin holds
    monkeypatch.setattr(detection, "WRITE_CHUNK", 1000)
    monkeypatch.setattr(detection, "READ_BLOCK", 4096)
    monkeypatch.setattr(correlator, "CSV_CHUNK", 7)
    test_timetags_dump_bytes_are_pinned(tmp_path, "ideal.json", "48572182e8976bc0")


@settings(max_examples=60, deadline=None)
@given(
    n_pairs=st.integers(0, 2_000),
    chunk=st.integers(1, 300),
    pair_rate=st.floats(1e8, 1e12),
    delta=st.floats(1e9, 1e13),
    t_sl_ps=st.tuples(st.integers(1, 400), st.integers(1, 400)),
    jitter_ps=st.floats(0.0, 50.0),
    efficiency=st.sampled_from([1.0, 0.6]),
    seed=st.integers(0, 2**64),
)
# ~1 ps between pairs against pair delays of ~0.4 ns sigma: tags of pairs
# thousands apart interleave, across many chunk edges
@example(
    n_pairs=2_000,
    chunk=97,
    pair_rate=1e12,
    delta=1e9,
    t_sl_ps=(100, 37),
    jitter_ps=20.0,
    efficiency=1.0,
    seed=3,
)
def test_chunked_dump_equals_the_one_shot_dump(
    tmp_path_factory, n_pairs, chunk, pair_rate, delta, t_sl_ps, jitter_ps, efficiency, seed
):
    mdl = SpectralModel(delta=delta, pair_rate=pair_rate)
    cfg_a, cfg_b = (UmziConfig(t_sl=t * 1e-12) for t in t_sl_ps)
    det = DetectorModel(jitter=jitter_ps * 1e-12, efficiency=efficiency)
    folder = tmp_path_factory.mktemp("dumps")
    # the one-shot dump: the whole run sampled, detected and written at once
    pairs = sample_pairs(mdl, n_pairs, seed, stream=(KIND_TIMETAGS,))
    tags = simulate_tags(pairs, cfg_a, cfg_b, det, seed, stream=(KIND_TIMETAGS,))
    write_timetags(folder / "one-shot.dat", *tags, seed, "c0ffee")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detection, "WRITE_CHUNK", chunk)
        chunks = simulate_run(mdl, cfg_a, cfg_b, det, n_pairs, seed, (KIND_TIMETAGS,))
        write_timetag_chunks(folder / "chunked.dat", chunks, seed, "c0ffee")
    assert (folder / "chunked.dat").read_bytes() == (folder / "one-shot.dat").read_bytes()
    assert sorted(p.name for p in folder.iterdir()) == ["chunked.dat", "one-shot.dat"]


def test_a_chunk_below_the_previous_watermark_fails_and_leaves_no_dump(tmp_path):
    path = tmp_path / "tags.dat"
    none = hand_stream([], [])
    chunks = [(hand_stream([5], [10]), none, 8), (hand_stream([6], [7]), none, None)]
    with pytest.raises(ValueError, match="^a chunk has tags below the previous watermark, 8 ps$"):
        write_timetag_chunks(path, chunks, 0, "c0ffee")
    assert list(tmp_path.iterdir()) == []


# sha256 prefixes of (histogram.csv, correlate.json) from the pinned dumps
CORRELATE_PINS = {
    "ideal.json": ("e6cd9d610a59963e", "5f060b5a92ebdb27"),
    "pump_jitter.json": ("ba14ebde1b6b7453", "21715f913825152a"),
}


RECORDS = st.lists(
    st.tuples(st.sampled_from("AB"), st.sampled_from([5, 6]), st.integers(-(2**62) + 1, 2**62 - 1)),
    min_size=1,
    max_size=30,
)
# Records per write and bytes per read: a few, or the defaults.
CHUNKS = st.one_of(st.integers(1, 8), st.just(detection.WRITE_CHUNK))
BLOCKS = st.one_of(st.integers(1, 64), st.just(detection.READ_BLOCK))


def streams_of(records):
    return [
        hand_stream([r[1] for r in records if r[0] == p], [r[2] for r in records if r[0] == p])
        for p in "AB"
    ]


def read_outcome(path):
    """What read_timetags makes of a file: its streams and header, or its error."""
    try:
        got_a, got_b, header = read_timetags(path)
    except ValueError as err:
        return str(err)
    return [(s.port.tolist(), s.time_ps.tolist()) for s in (got_a, got_b)], header


@settings(max_examples=60, deadline=None)
@given(records=RECORDS, chunk=CHUNKS)
def test_chunked_writes_equal_the_one_shot_bytes(tmp_path_factory, records, chunk):
    path = tmp_path_factory.mktemp("dumps") / "tags.dat"
    write_timetags(path, *streams_of(records), 0, "c0ffee")
    one_shot = path.read_bytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detection, "WRITE_CHUNK", chunk)
        write_timetags(path, *streams_of(records), 0, "c0ffee")
        assert path.read_bytes() == one_shot
        pin_path = path.with_name("pinned.dat")
        write_pinned_hand_built_dump(pin_path)
        assert hashlib.sha256(pin_path.read_bytes()).hexdigest()[:16] == HAND_BUILT_PIN


@settings(max_examples=100, deadline=None)
@given(records=RECORDS, chunk=CHUNKS, block=st.integers(1, 64))
def test_blocked_reads_equal_the_one_shot_parse(tmp_path_factory, records, chunk, block):
    # a dump written `chunk` records at a time reads back exactly, whatever
    # the block edges split: records, header lines or the magic line
    path = tmp_path_factory.mktemp("dumps") / "tags.dat"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detection, "WRITE_CHUNK", chunk)
        write_timetags(path, *streams_of(records), 0, "c0ffee")
    want = read_outcome(path)
    assert want == (
        [(s.port.tolist(), s.time_ps.tolist()) for s in streams_of(records)],
        {"seed": "0", "config_hash": "c0ffee"},
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detection, "READ_BLOCK", block)
        assert read_outcome(path) == want


def test_every_block_edge_reads_like_the_one_shot_parse(tmp_path, monkeypatch):
    # every cut, for the writer's grammar and each line outside it: a blank
    # line, a '#' line after the first record, a line over 64 bytes (its
    # newline not counted), a last line without its newline, a header line's
    # or the first record's included, and the magic line's own cases
    path = tmp_path / "tags.dat"
    magic = "# franson-timetags v1\n"
    long_record = "B 6 " + "1" * 70
    texts = {
        magic + "# run=7\n# k=" + "x" * 60 + "\nA 5 1000\nB 6 -20\nA 6 123456\n": (
            [([5, 6], [1000, 123456]), ([6], [-20])],
            {"run": "7", "k": "x" * 60},  # a header line of 64 bytes is read whole
        ),
        magic + "# run=7\n": ([([], []), ([], [])], {"run": "7"}),
        magic: ([([], []), ([], [])], {}),
        magic + "# run=7\n\nA 5 1000\n": f"{path}:3: expected 'party port time_ps', got ''",
        magic + "A 5 1000\n# run=8\nB 6 -20\n": (
            f"{path}:3: expected 'party port time_ps', got '# run=8'"
        ),
        magic + "A 5 1000\n" + long_record + "\nA 7 5\n": f"{path}:3: line longer than 64 bytes",
        magic + "A 5 1000\n" + long_record: f"{path}:3: line longer than 64 bytes",
        magic + "# k=" + "x" * 61 + "\n": f"{path}:2: line longer than 64 bytes",
        magic + "A 5 1000\n" + " " * 65: f"{path}:3: line longer than 64 bytes",
        magic + "A 5 1000\n" + " " * 64: (
            f"{path}:3: the file ends inside this line, before its newline"
        ),
        magic + "A 5 1000\nA 7 5\n" + long_record + "\n": f"{path}:3: port must be 5 or 6, got '7'",
        magic + "A 5 1000\nB 6 12": f"{path}:3: the file ends inside this line, before its newline",
        magic + "A 5 1000\nB 6": f"{path}:3: the file ends inside this line, before its newline",
        magic + "# run=7": f"{path}:2: the file ends inside this line, before its newline",
        magic + "# run=7\nA 5 1": f"{path}:3: the file ends inside this line, before its newline",
        magic[:-1]: None,
        "# franson-timetags v2\nA 5 1\n": None,
        "not a dump": None,
        "": None,
    }
    for text, want in texts.items():
        path.write_text(text)
        if want is None:  # not a dump at all
            want = f"{path}:1: not a time-tag dump: bad magic line {text[:22]!r}, not {magic!r}"
        for block in [*range(1, len(text) + 2), detection.READ_BLOCK]:
            monkeypatch.setattr(detection, "READ_BLOCK", block)
            assert read_outcome(path) == want, (text, block)


@pytest.mark.parametrize("first", ["x", "#", "A"])
@pytest.mark.parametrize("ended", [True, False])
def test_long_lines_keep_the_read_memory_within_the_block(tmp_path, monkeypatch, first, ended):
    # a line of 10 or 1 000 blocks fails at its line from its first block on,
    # so the traced peak stays within a fixed multiple of the block
    block = 4096
    monkeypatch.setattr(detection, "READ_BLOCK", block)
    path = tmp_path / "tags.dat"
    path.write_text(HEADER + "A 5 10\n")
    read_timetags(path)  # NumPy's first-call allocations are not the reader's
    for n_blocks in (10, 1000):
        path.write_text(HEADER + "A 5 10\n" + first * (n_blocks * block) + "\n" * ended)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf":6: line longer than 64 bytes$"):
                read_timetags(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * block, n_blocks


@settings(max_examples=20, deadline=None)
@given(records=RECORDS, block=st.sampled_from([1, 2, 3, 7, 64, detection.READ_BLOCK]))
def test_a_dump_cut_inside_its_last_record_fails_at_that_line(tmp_path_factory, records, block):
    # a dump cut at any byte of its last record, its newline included, fails
    # at that record's line: no cut record reads as a shorter time
    path = tmp_path_factory.mktemp("dumps") / "tags.dat"
    write_timetags(path, *streams_of(records), 0, "c0ffee")
    data = path.read_bytes()
    last_line = data.count(b"\n")
    record_start = data.rindex(b"\n", 0, len(data) - 1) + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detection, "READ_BLOCK", block)
        for cut in range(record_start + 1, len(data)):
            path.write_bytes(data[:cut])
            want = f"{path}:{last_line}: the file ends inside this line, before its newline"
            assert read_outcome(path) == want, cut


@settings(max_examples=100, deadline=None)
@given(
    records=RECORDS,
    bad_at=st.integers(0, 10**6),
    corruption=st.sampled_from(["insert", "insert_in_time", "drop", "widen"]),
    char=st.sampled_from(list("x+_./:\t\r ")),  # "/" and ":" flank the digits
    where=st.integers(0, 40),
    later=st.booleans(),
    chunk=CHUNKS,
    block=BLOCKS,
)
def test_a_corrupt_record_fails_at_its_own_line(
    tmp_path_factory, records, bad_at, corruption, char, where, later, chunk, block
):
    # the dump is written `chunk` records and read `block` bytes at a time
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detection, "WRITE_CHUNK", chunk)
        mp.setattr(detection, "READ_BLOCK", block)
        check_corrupt_record(tmp_path_factory, records, bad_at, corruption, char, where, later)


def check_corrupt_record(tmp_path_factory, records, bad_at, corruption, char, where, later):
    path = tmp_path_factory.mktemp("dumps") / "tags.dat"
    streams = {
        p: hand_stream([r[1] for r in records if r[0] == p], [r[2] for r in records if r[0] == p])
        for p in "AB"
    }
    write_timetags(path, streams["A"], streams["B"], 0, "c0ffee")
    # the writer's bytes equal the one-record-at-a-time rendering
    order = sorted(range(len(records)), key=lambda i: (records[i][2], records[i][0], i))
    lines = [f"{records[i][0]} {records[i][1]} {records[i][2]}" for i in order]
    assert path.read_text() == HEADER + "".join(f"{line}\n" for line in lines)
    got = read_timetags(path)
    for stream, want in zip(got, (streams["A"], streams["B"])):
        assert np.array_equal(stream.time_ps, want.time_ps)
        assert np.array_equal(stream.port, want.port)

    lines = HEADER.splitlines() + lines
    k = len(HEADER.splitlines()) + bad_at % len(records)

    def corrupt(line):
        if corruption.startswith("insert"):
            first = 4 if corruption == "insert_in_time" else 0
            cut = first + where % (len(line) + 1 - first)
            return line[:cut] + char + line[cut:]
        if corruption == "drop":
            return line.rsplit(" ", 1)[0]
        return line + "0" * 19  # 20 digits or more

    lines[k] = corrupt(lines[k])
    if later and k + 1 < len(lines):
        lines[-1] = corrupt(lines[-1])
    path.write_text("".join(f"{line}\n" for line in lines))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{k + 1}: "):
        read_timetags(path)


def test_detector_validation():
    with pytest.raises(ValueError, match="efficiency"):
        DetectorModel(jitter=0.0, efficiency=0.0).validate()
    with pytest.raises(ValueError, match="jitter"):
        DetectorModel(jitter=-1e-12, efficiency=1.0).validate()


def test_to_picoseconds_rounds_to_grid():
    assert to_picoseconds(100e-12) == 100
    assert to_picoseconds(np.array([0.0, 1.5e-12, -1.5e-12])).tolist() == [0, 2, -2]


def test_branch_from_tau_rejects_off_peak_values():
    with pytest.raises(ValueError):
        branch_from_tau(17, 100)
