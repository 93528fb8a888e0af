"""Detection sampling: time assembly, post-selection split, efficiency."""

import hashlib
import math
import re
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from franson.cli import main
from franson.detection import (
    DetectorModel,
    TagStream,
    read_timetags,
    simulate_tags,
    to_picoseconds,
    write_timetags,
)
from franson.interferometer import UmziConfig
from franson.source import PairEnsemble, SpectralModel, sample_pairs

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


def clean_ensemble(n, joint="zero"):
    """Pairs with eps = 0 and spaced emission times; exact tau arithmetic."""
    mdl = model()
    zeros = np.zeros(n)
    t0 = 1e-6 * (1.0 + np.arange(n))
    return PairEnsemble(mdl, np.arange(n), zeros, zeros, zeros, t0, zeros)


def branch_labels(stream):
    idx, _ = stream.diagnostics()
    return idx


def test_central_branch_has_zero_delay_without_jitter():
    pairs = clean_ensemble(2_000)
    det = DetectorModel(jitter=0.0, efficiency=1.0)
    tags_a, tags_b = simulate_tags(pairs, umzi(), umzi(), det, seed=1)
    assert len(tags_a) == len(tags_b) == 2_000
    # align by pair id
    _, ids_a = tags_a.diagnostics()
    _, ids_b = tags_b.diagnostics()
    order_a, order_b = np.argsort(ids_a), np.argsort(ids_b)
    tau = tags_a.time_ps[order_a] - tags_b.time_ps[order_b]
    branches = branch_labels(tags_a)[order_a]
    assert np.all(tau[branches == 0] == 0)
    assert np.all(tau[branches == 1] == -T_SL_PS)  # short at A, long at B
    assert np.all(tau[branches == 2] == +T_SL_PS)
    for t, b in zip(tau[:100], branches[:100]):
        assert branch_from_tau(int(t), T_SL_PS) == BRANCHES[b]


def test_side_branch_delay_includes_eps():
    mdl = model()
    n = 500
    eps = np.full(n, 3e-12)
    ens = PairEnsemble(mdl, np.arange(n), np.zeros(n), np.zeros(n), np.zeros(n),
                       1e-6 * (1.0 + np.arange(n)), eps)
    det = DetectorModel(jitter=0.0, efficiency=1.0)
    tags_a, tags_b = simulate_tags(ens, umzi(), umzi(), det, seed=2)
    _, ids_a = tags_a.diagnostics()
    _, ids_b = tags_b.diagnostics()
    tau = tags_a.time_ps[np.argsort(ids_a)] - tags_b.time_ps[np.argsort(ids_b)]
    branches = branch_labels(tags_a)[np.argsort(ids_a)]
    assert np.all(tau[branches == 1] == -T_SL_PS - 3)
    assert np.all(tau[branches == 2] == +T_SL_PS - 3)


def test_half_of_all_pairs_are_centrally_coincident():
    # ideal parameters, joint phase 0: the post-selection keeps 50%
    mdl = model()
    pairs = sample_pairs(mdl, 100_000, seed=3)
    det = DetectorModel(jitter=2e-12, efficiency=1.0)
    tags_a, tags_b = simulate_tags(pairs, umzi(), umzi(), det, seed=3)
    _, ids_a = tags_a.diagnostics()
    _, ids_b = tags_b.diagnostics()
    tau = tags_a.time_ps[np.argsort(ids_a)] - tags_b.time_ps[np.argsort(ids_b)]
    inside = np.abs(tau) < T_SL_PS / 10
    n = len(pairs)
    sigma = 0.5 / math.sqrt(n)
    assert abs(inside.mean() - 0.5) < 3.0 * sigma


def test_branch_probabilities_follow_the_joint_phase():
    # at joint phase 0 all central events sit in the equal-port pairs
    pairs = clean_ensemble(20_000)
    det = DetectorModel(jitter=0.0, efficiency=1.0)
    tags_a, tags_b = simulate_tags(pairs, umzi(0.0), umzi(0.0), det, seed=4)
    branches = branch_labels(tags_a)
    _, ids_a = tags_a.diagnostics()
    _, ids_b = tags_b.diagnostics()
    ports_a = tags_a.port[np.argsort(ids_a)]
    ports_b = tags_b.port[np.argsort(ids_b)]
    central = branch_labels(tags_a)[np.argsort(ids_a)] == 0
    assert np.all(ports_a[central] == ports_b[central])


# False-alarm rate of each statistical check in one example of the oracle test.
ORACLE_ALPHA = 1e-4


@settings(max_examples=6, deadline=None)
@given(
    phase=st.floats(0.0, 2.0 * math.pi),
    envelope=st.floats(0.0, 1.0),
    gamma_a=st.floats(0.0, 1.0),
    gamma_b=st.floats(0.0, 1.0),
    t_sl_b_ps=st.sampled_from([60, 100, 140]),
)
@example(phase=0.0, envelope=1.0, gamma_a=1.0, gamma_b=1.0, t_sl_b_ps=100)
@example(phase=math.pi, envelope=1.0, gamma_a=1.0, gamma_b=1.0, t_sl_b_ps=140)
@example(phase=2.0, envelope=0.6, gamma_a=0.9, gamma_b=0.8, t_sl_b_ps=60)
def test_sampled_outcomes_follow_the_scalar_oracle(phase, envelope, gamma_a, gamma_b, t_sl_b_ps):
    # 2**20 pairs with df = dp = 0, so every pair has the joint phase `phase`
    n = 2**20
    cfg_a = UmziConfig(t_sl=T_SL, phase=phase, gamma=gamma_a)
    cfg_b = UmziConfig(t_sl=t_sl_b_ps * 1e-12, phase=0.0, gamma=gamma_b)
    # the oracle gets the visibility the test states, V = envelope gamma_A gamma_B,
    # and unit-overlap configs, so the package's own folding is what is checked
    unit_a, unit_b = replace(cfg_a, gamma=1.0), replace(cfg_b, gamma=1.0)
    oracle = outcome_table(0.0, 0.0, unit_a, unit_b, envelope * gamma_a * gamma_b).ravel()
    expected = n * oracle
    # a cell is either impossible or expects at least 5 counts
    assume(np.all((oracle == 0.0) | (expected >= 5.0)))

    det = DetectorModel(jitter=0.0, efficiency=1.0)
    tags_a, tags_b = simulate_tags(clean_ensemble(n), cfg_a, cfg_b, det, seed=12, envelope=envelope)
    (branch_a, ids_a), (branch_b, ids_b) = tags_a.diagnostics(), tags_b.diagnostics()
    order_a, order_b = np.argsort(ids_a), np.argsort(ids_b)
    branch = branch_a[order_a]
    assert np.array_equal(branch, branch_b[order_b])
    # the branch label is the one the delays show: SL at -t_sl^B, LS at +t_sl^A,
    # central at 0 (S-S) or t_sl^A - t_sl^B (L-L)
    tau = tags_a.time_ps[order_a] - tags_b.time_ps[order_b]
    central = branch == 0
    assert np.array_equal(tau[~central], np.array([0, -t_sl_b_ps, T_SL_PS])[branch[~central]])
    assert np.all((tau[central] == 0) | (tau[central] == T_SL_PS - t_sl_b_ps))

    # 12-cell frequencies: index port_a * 6 + port_b * 3 + branch, as in .ravel()
    port_a = tags_a.port[order_a].astype(np.int64) - 5
    port_b = tags_b.port[order_b].astype(np.int64) - 5
    counts = np.bincount(port_a * 6 + port_b * 3 + branch, minlength=12)
    possible = oracle > 0.0
    assert np.all(counts[~possible] == 0)
    chi2 = np.sum((counts[possible] - expected[possible]) ** 2 / expected[possible])
    assert chi2 <= chi2_quantile(int(possible.sum()) - 1, ORACLE_ALPHA)

    # no-signaling: each party's port marginal is 1/2
    z = NormalDist().inv_cdf(1.0 - ORACLE_ALPHA / 2.0)
    for ports in (port_a, port_b):
        assert abs(np.count_nonzero(ports == 0) - n / 2) <= z * math.sqrt(n / 4)


def test_efficiency_scales_singles_and_coincidences():
    pairs = clean_ensemble(40_000)
    eta = 0.6
    det = DetectorModel(jitter=0.0, efficiency=eta)
    tags_a, tags_b = simulate_tags(pairs, umzi(), umzi(), det, seed=5)
    n = len(pairs)
    sigma_singles = math.sqrt(n * eta * (1 - eta))
    assert abs(len(tags_a) - eta * n) < 3.0 * sigma_singles
    assert abs(len(tags_b) - eta * n) < 3.0 * sigma_singles
    _, ids_a = tags_a.diagnostics()
    _, ids_b = tags_b.diagnostics()
    both = np.intersect1d(ids_a, ids_b).size
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


def test_global_phase_never_reaches_the_tags():
    pairs = sample_pairs(model(), 5_000, seed=7)
    scrambled = PairEnsemble(
        pairs.model, pairs.ids, pairs.df, pairs.dp,
        np.random.default_rng(0).uniform(0, 2 * math.pi, len(pairs)),
        pairs.t0, pairs.eps,
    )
    det = DetectorModel(jitter=2e-12, efficiency=1.0)
    a1, b1 = simulate_tags(pairs, umzi(), umzi(), det, seed=7)
    a2, b2 = simulate_tags(scrambled, umzi(), umzi(), det, seed=7)
    assert np.array_equal(a1.time_ps, a2.time_ps)
    assert np.array_equal(a1.port, a2.port)
    assert np.array_equal(b1.port, b2.port)


def test_simulate_tags_can_drop_tags():
    det = DetectorModel(jitter=0.0, efficiency=0.4)
    tags_a, tags_b = simulate_tags(clean_ensemble(400), umzi(), umzi(), det, seed=9)
    _, ids_a = tags_a.diagnostics()
    _, ids_b = tags_b.diagnostics()
    counts = np.bincount(ids_a, minlength=400) + np.bincount(ids_b, minlength=400)
    assert set(counts.tolist()) <= {0, 1, 2}
    assert np.mean(counts) == pytest.approx(2 * 0.4, abs=0.1)


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
    # the dump is correlator-facing: no diagnostics survive
    branch, pid = got_a.diagnostics()
    assert np.all(branch == 0) and np.all(pid == 0)


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
        ("A 5 1234567890123456789", "time_ps must be an integer"),
    ):
        path.write_text(f"# franson-timetags v1\nA 5 1000\n{record}\nB 5 1000\n")
        with pytest.raises(ValueError, match=rf"junk.dat:3: {re.escape(problem)}"):
            read_timetags(path)


def hand_stream(ports, times):
    ids = np.arange(len(times))
    return TagStream(np.asarray(ports), np.asarray(times, dtype=np.int64), ids * 0, ids)


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
    big = 10**18 - 1  # the widest time a record holds: 18 digits
    tags_a = hand_stream([5, 6, 5, 6, 5, 6], [-big, -10, -1, 0, 9, big])
    tags_b = hand_stream([6, 5, 6, 5], [-big, 0, 10, 10**17])
    path = tmp_path / "tags.dat"
    write_timetags(path, tags_a, tags_b, seed=0, config_hash="c0ffee")
    text = path.read_text()
    assert text.startswith(HEADER)
    assert f"A 5 -{big}\nB 6 -{big}\n" in text and "A 6 0\nB 5 0\n" in text
    got_a, got_b, _ = read_timetags(path)
    for got, want in ((got_a, tags_a), (got_b, tags_b)):
        assert np.array_equal(got.time_ps, want.time_ps)
        assert np.array_equal(got.port, want.port)


def test_empty_dump_and_missing_final_newline_read(tmp_path):
    path = tmp_path / "tags.dat"
    write_timetags(path, hand_stream([], []), hand_stream([], []), 0, "c0ffee")
    assert path.read_text() == HEADER
    got_a, got_b, header = read_timetags(path)
    assert len(got_a) == len(got_b) == 0 and header["config_hash"] == "c0ffee"
    path.write_text("# franson-timetags v1")
    assert len(read_timetags(path)[0]) == 0
    path.write_text("# franson-timetags v1\n\n  \nB 6 -7\n  # note=kept\nA 5 12")
    got_a, got_b, header = read_timetags(path)
    assert got_a.time_ps.tolist() == [12] and got_b.time_ps.tolist() == [-7]
    assert got_b.port.tolist() == [6] and header == {"note": "kept"}


def test_write_timetags_rejects_records_the_reader_would():
    with pytest.raises(ValueError, match="ports must be 5 or 6"):
        write_timetags("unused", hand_stream([7], [0]), hand_stream([], []), 0, "x")


def test_timetag_format_bytes_are_pinned_on_hand_built_streams(tmp_path):
    # format v1 is a data product: its bytes must not move, whatever the sampler
    times = [(-1) ** k * (7 * 10**k + k) for k in range(18)] + [0, 0, 5, -5]  # every width
    ports = [5 + (k % 3 == 0) for k in range(len(times))]
    tags_a = hand_stream(ports, times)
    tags_b = hand_stream(ports[::-1], [t // 3 for t in times])  # ties with A at 0
    path = tmp_path / "tags.dat"
    write_timetags(path, tags_a, tags_b, seed=7, config_hash="0123456789abcdef")
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == "ceb5776a8664d3b7"


@pytest.mark.parametrize(
    "config, digest", [("ideal.json", "79f3345400579811"), ("pump_jitter.json", "5eb52cb5c13a9ad3")]
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


# sha256 prefixes of (histogram.csv, correlate.json) from the pinned dumps
CORRELATE_PINS = {
    "ideal.json": ("833132f208c7afa2", "52b79ec37fd1909e"),
    "pump_jitter.json": ("b380bb4195b20651", "3638cc3ac1ef669a"),
}


RECORDS = st.lists(
    st.tuples(st.sampled_from("AB"), st.sampled_from([5, 6]), st.integers(-(10**18) + 1, 10**18 - 1)),
    min_size=1,
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(
    records=RECORDS,
    extra=st.lists(st.tuples(st.integers(0, 40), st.sampled_from(["", "  ", "# x=1", " #"]))),
    bad_at=st.integers(0, 10**6),
    corruption=st.sampled_from(["insert", "insert_in_time", "drop", "widen"]),
    char=st.sampled_from(list("x+_./:\t\r ")),  # "/" and ":" flank the digits
    where=st.integers(0, 40),
    later=st.booleans(),
    final_newline=st.booleans(),
)
def test_a_corrupt_record_fails_at_its_own_line(
    tmp_path_factory, records, extra, bad_at, corruption, char, where, later, final_newline
):
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
    for at, text in sorted(extra, reverse=True):
        lines.insert(1 + at % len(lines), text)  # never before the magic line
    candidates = [i for i, line in enumerate(lines) if line[:1] in ("A", "B")]
    k = candidates[bad_at % len(candidates)]

    def corrupt(line):
        if corruption.startswith("insert"):
            first = 4 if corruption == "insert_in_time" else 0
            cut = first + where % (len(line) + 1 - first)
            return line[:cut] + char + line[cut:]
        if corruption == "drop":
            return line.rsplit(" ", 1)[0]
        return line + "0" * 18  # 19 digits or more

    lines[k] = corrupt(lines[k])
    if later and k + 1 < len(lines) and lines[-1][:1] in ("A", "B"):
        lines[-1] = corrupt(lines[-1])
    path.write_text("\n".join(lines) + ("\n" if final_newline else ""))
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
