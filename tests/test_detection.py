"""Detection sampling: time assembly, post-selection split, efficiency."""

import math

import numpy as np
import pytest

from franson.detection import (
    DetectorModel,
    branch_from_tau,
    read_timetags,
    simulate_tags,
    to_picoseconds,
    write_timetags,
)
from franson.interferometer import UmziConfig
from franson.source import PairEnsemble, SpectralModel, sample_pairs

T_SL = 100e-12
T_SL_PS = 100


def umzi(phase=0.0, party="A", gamma=1.0):
    return UmziConfig(t_sl=T_SL, phase=phase, party=party, gamma=gamma)


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
    tags_a, tags_b = simulate_tags(pairs, umzi(), umzi(party="B"), det, seed=1)
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
        assert branch_from_tau(int(t), T_SL_PS) == ("central", "SL", "LS")[b]


def test_side_branch_delay_includes_eps():
    mdl = model()
    n = 500
    eps = np.full(n, 3e-12)
    ens = PairEnsemble(mdl, np.arange(n), np.zeros(n), np.zeros(n), np.zeros(n),
                       1e-6 * (1.0 + np.arange(n)), eps)
    det = DetectorModel(jitter=0.0, efficiency=1.0)
    tags_a, tags_b = simulate_tags(ens, umzi(), umzi(party="B"), det, seed=2)
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
    tags_a, tags_b = simulate_tags(pairs, umzi(), umzi(party="B"), det, seed=3)
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
    tags_a, tags_b = simulate_tags(pairs, umzi(0.0), umzi(0.0, party="B"), det, seed=4)
    branches = branch_labels(tags_a)
    _, ids_a = tags_a.diagnostics()
    _, ids_b = tags_b.diagnostics()
    ports_a = tags_a.port[np.argsort(ids_a)]
    ports_b = tags_b.port[np.argsort(ids_b)]
    central = branch_labels(tags_a)[np.argsort(ids_a)] == 0
    assert np.all(ports_a[central] == ports_b[central])


def test_efficiency_scales_singles_and_coincidences():
    pairs = clean_ensemble(40_000)
    eta = 0.6
    det = DetectorModel(jitter=0.0, efficiency=eta)
    tags_a, tags_b = simulate_tags(pairs, umzi(), umzi(party="B"), det, seed=5)
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
    a1, b1 = simulate_tags(pairs, umzi(), umzi(party="B"), det, seed=6)
    a2, b2 = simulate_tags(pairs, umzi(), umzi(party="B"), det, seed=6)
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
    a1, b1 = simulate_tags(pairs, umzi(), umzi(party="B"), det, seed=7)
    a2, b2 = simulate_tags(scrambled, umzi(), umzi(party="B"), det, seed=7)
    assert np.array_equal(a1.time_ps, a2.time_ps)
    assert np.array_equal(a1.port, a2.port)
    assert np.array_equal(b1.port, b2.port)


def test_simulate_tags_can_drop_tags():
    det = DetectorModel(jitter=0.0, efficiency=0.4)
    tags_a, tags_b = simulate_tags(clean_ensemble(400), umzi(), umzi(party="B"), det, seed=9)
    _, ids_a = tags_a.diagnostics()
    _, ids_b = tags_b.diagnostics()
    counts = np.bincount(ids_a, minlength=400) + np.bincount(ids_b, minlength=400)
    assert set(counts.tolist()) <= {0, 1, 2}
    assert np.mean(counts) == pytest.approx(2 * 0.4, abs=0.1)


def test_timetag_dump_round_trips_exactly(tmp_path):
    pairs = sample_pairs(model(), 5_000, seed=10)
    det = DetectorModel(jitter=2e-12, efficiency=0.9)
    tags_a, tags_b = simulate_tags(pairs, umzi(), umzi(party="B"), det, seed=10)
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
    ):
        path.write_text(f"# franson-timetags v1\nA 5 1000\n{record}\n")
        with pytest.raises(ValueError, match=rf"junk.dat:3: {problem}"):
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
