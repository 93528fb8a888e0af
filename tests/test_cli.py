"""Command-line surface: dispatch, determinism, pipeline equivalence."""

import json
import math

import numpy as np
import pytest

import franson as fr
from franson.cli import main
from franson.correlator import correlate
from franson.detection import simulate_tags
from franson.rng import KIND_TIMETAGS
from franson.source import sample_pairs

IDEAL = """
{
  "seed": 1,
  "umzi_a": {"t_sl": 100e-12, "phase": 0.0, "gamma": 1.0},
  "umzi_b": {"t_sl": 100e-12, "phase": 0.0, "gamma": 1.0},
  "scan": {"n_points": 8, "pairs_per_point": 4000,
           "chsh_settings": [0.0, 1.5707963267948966,
                             -0.7853981633974483, 0.7853981633974483]}
}
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(IDEAL)
    return path


def run(argv):
    return main([str(a) for a in argv])


def strict_json(path):
    """Parse a data product, rejecting NaN and Infinity as invalid JSON."""

    def reject(name):
        raise ValueError(f"{path.name}: non-standard JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_missing_config_fails_with_nonzero_exit(tmp_path, capsys):
    rc = run(["fringe-scan", "--config", tmp_path / "nope.json", "--out", tmp_path])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_debug_raises_with_the_traceback(tmp_path, capsys):
    argv = ["timetags", "--config", tmp_path / "nope.json", "--out", tmp_path]
    with pytest.raises(FileNotFoundError):
        run(argv + ["--debug"])
    assert run(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_negative_pairs_is_rejected_by_its_flag_name(config_path, tmp_path, capsys):
    rc = run(["timetags", "--config", config_path, "--pairs", "-5", "--out", tmp_path])
    assert rc == 2
    assert "error: --pairs must be >= 0, got -5" in capsys.readouterr().err
    assert not (tmp_path / "timetags.dat").exists()


def test_invalid_config_reports_the_problem(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"source": {"delta": -1}}')
    rc = run(["chsh", "--config", bad, "--out", tmp_path])
    assert rc == 2
    assert "delta" in capsys.readouterr().err


def test_fringe_scan_outputs_are_byte_identical_across_reruns(config_path, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["fringe-scan", "--config", config_path, "--seed", 1, "--out", out1]) == 0
    assert run(["fringe-scan", "--config", config_path, "--seed", 1, "--out", out2]) == 0
    assert (out1 / "fringe-scan.csv").read_bytes() == (out2 / "fringe-scan.csv").read_bytes()
    assert (out1 / "fringe-scan.json").read_bytes() == (out2 / "fringe-scan.json").read_bytes()
    # volatile run info lives in the meta file, not in the data products
    meta = json.loads((out1 / "fringe-scan.meta.json").read_text())
    assert "wall_time_s" in meta and "config_hash" in meta


def test_seed_override_changes_the_data(config_path, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    run(["fringe-scan", "--config", config_path, "--seed", 1, "--out", out1])
    run(["fringe-scan", "--config", config_path, "--seed", 2, "--out", out2])
    assert (out1 / "fringe-scan.csv").read_bytes() != (out2 / "fringe-scan.csv").read_bytes()
    # the meta file describes the run that was made, override included
    meta = json.loads((out2 / "fringe-scan.meta.json").read_text())
    summary = json.loads((out2 / "fringe-scan.json").read_text())
    assert meta["seed"] == summary["seed"] == 2
    assert meta["config_hash"] == summary["config_hash"]


def test_chsh_json_reports_the_quantum_bound(config_path, tmp_path):
    assert run(["chsh", "--config", config_path, "--mode", "analytic", "--out", tmp_path]) == 0
    payload = json.loads((tmp_path / "chsh.json").read_text())
    assert payload["s_value"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    assert payload["config_hash"]


def test_timetags_then_correlate_matches_the_in_memory_pipeline(config_path, tmp_path):
    assert run(["timetags", "--config", config_path, "--pairs", 4000, "--out", tmp_path]) == 0
    dump = tmp_path / "timetags.dat"
    assert dump.exists()
    assert run(["correlate", "--config", config_path, "--input", dump, "--out", tmp_path]) == 0

    cfg = fr.load_config(config_path)
    pairs = sample_pairs(cfg.source, 4000, cfg.seed, stream=KIND_TIMETAGS)
    tags_a, tags_b = simulate_tags(
        pairs, cfg.umzi_a, cfg.umzi_b, cfg.detector, cfg.seed, stream=KIND_TIMETAGS
    )
    expected = correlate(tags_a, tags_b, cfg.correlator)

    payload = json.loads((tmp_path / "correlate.json").read_text())
    assert payload["n_matches"] == expected.n_matches
    assert payload["n_comparisons"] == expected.n_comparisons == len(tags_a) + expected.n_matches
    assert np.array_equal(np.asarray(payload["central"]), expected.central)

    csv_rows = [
        line.split(",")
        for line in (tmp_path / "histogram.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("tau_ps")
    ]
    assert sum(int(r[3]) for r in csv_rows) == expected.counts.sum()


def test_zero_pair_dump_correlates_to_an_empty_histogram(config_path, tmp_path):
    assert run(["timetags", "--config", config_path, "--pairs", 0, "--out", tmp_path]) == 0
    dump = tmp_path / "timetags.dat"
    records = [ln for ln in dump.read_text().splitlines() if not ln.startswith("#")]
    assert records == []
    assert run(["correlate", "--config", config_path, "--input", dump, "--out", tmp_path]) == 0
    payload = strict_json(tmp_path / "correlate.json")
    assert payload["n_matches"] == 0
    assert payload["central_fraction"] is None


def test_local_scan_and_crossover_and_tau_decay_run(config_path, tmp_path):
    assert run(["local-scan", "--config", config_path, "--out", tmp_path]) == 0
    assert (tmp_path / "local-scan.csv").exists()
    strict_json(tmp_path / "local-scan.json")
    assert run(["crossover", "--config", config_path, "--out", tmp_path]) == 0
    summary = strict_json(tmp_path / "crossover.json")
    assert summary["extras"]["max_abs_deviation"] < 0.05
    assert summary["visibility_err"] is None and summary["phase_offset"] is None
    assert run(["tau-decay", "--config", config_path, "--mode", "analytic", "--out", tmp_path]) == 0
    assert (tmp_path / "tau-decay.csv").exists()
    assert strict_json(tmp_path / "tau-decay.json")["phase_offset"] is None


def test_outputs_embed_the_config_hash(config_path, tmp_path):
    run(["fringe-scan", "--config", config_path, "--out", tmp_path])
    cfg_hash = fr.config_hash(fr.load_config(config_path))
    assert f"# config_hash={cfg_hash}" in (tmp_path / "fringe-scan.csv").read_text()
    assert json.loads((tmp_path / "fringe-scan.json").read_text())["config_hash"] == cfg_hash


def test_correlate_prints_each_config_warning_once(config_path, tmp_path, capsys):
    # a 49.6 ps window rounds to 50 ps, half the 100 ps side offset: windows overlap
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({**json.loads(IDEAL), "correlator": {"window": 49.6e-12}}))
    assert run(["timetags", "--config", wide, "--pairs", 50, "--out", tmp_path]) == 0
    capsys.readouterr()
    dump = tmp_path / "timetags.dat"
    assert run(["correlate", "--config", wide, "--input", dump, "--out", tmp_path]) == 0
    assert capsys.readouterr().err.count("peak windows overlap") == 1
    assert any("overlap" in w for w in strict_json(tmp_path / "correlate.json")["warnings"])


def test_config_warnings_are_surfaced(config_path, tmp_path, capsys):
    cfg = tmp_path / "warn.json"
    cfg.write_text('{"source": {"delta": 1e10}, "scan": {"pairs_per_point": 500}}')
    assert run(["chsh", "--config", cfg, "--mode", "analytic", "--out", tmp_path]) == 0
    assert "critical UMZI condition" in capsys.readouterr().err
