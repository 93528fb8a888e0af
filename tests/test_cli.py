"""Command-line surface: dispatch, determinism, pipeline equivalence."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import franson as fr
from franson import detection
from franson.cli import main
from franson.correlator import correlate
from franson.detection import simulate_tags
from franson.rng import KIND_TIMETAGS
from franson.source import SpectralModel, sample_pairs

ROOT = Path(__file__).resolve().parent.parent

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


PUBLIC_API = {
    "__version__",
    "ChshRun", "CoincidenceHistogram", "ConfigError", "CorrelatorConfig", "DetectorModel",
    "FitError", "PairEnsemble", "RunConfig", "ScanResult", "SpectralModel",
    "TagStream", "UmziConfig", "UndefinedCorrelationError",
    "config_hash", "correlate", "default_config", "ensemble_local_fringe", "joint_phase",
    "load_config", "local_intensities", "local_visibility_oracle", "overlap_envelope",
    "parse_config", "read_timetags", "regime_flags", "run_chsh", "run_crossover_sweep",
    "run_fringe_scan", "run_local_scan", "run_pump_sweep", "run_tau_decay", "sample_pairs",
    "simulate_tags",
}


def test_public_api_is_pinned():
    # the sampled twins and the one-chunk writer are module functions kept for
    # the tests and the benchmark tracer, not part of the package's surface
    assert len(fr.__all__) == len(set(fr.__all__))
    assert set(fr.__all__) == PUBLIC_API
    for name in fr.__all__:
        assert getattr(fr, name) is not None, name
    for name in ("ChshResult", "StreamOrderError", "chsh_value", "ensemble_fringe", "write_timetags"):
        assert not hasattr(fr, name), name


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


@pytest.mark.parametrize(
    "source", [{"pair_rate": 1e-3}, {"delta": 1e-9, "tau_ind": 1e10}, {"pair_rate": 1e-296}]
)
def test_emission_reach_past_the_grid_fails_before_any_tag(source, tmp_path, capsys):
    # 20 000 pairs at 1e-3 pairs/s span ~2e19 ps, and a pair delay of 1e9 s
    # FWHM reaches ~1e21 ps: both past the 2**60 ps grid bound, where a tag
    # time would wrap in int64.  At 1e-296 pairs/s a gap overflows the floats.
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"source": source}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run(["timetags", "--config", path, "--pairs", 20_000, "--out", tmp_path])
    assert rc == 2
    err = capsys.readouterr().err
    assert "source.pair_rate" in err and "source.delta" in err and "carry 20000 pairs" in err
    assert not (tmp_path / "timetags.dat").exists()


def test_a_pair_delay_width_past_the_float_range_fails_at_the_reach_check(tmp_path, capsys):
    # sigma_eps ~ 4e299 s: the watermark's bound is capped, not cast from inf
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"source": {"delta": 1e-300, "tau_ind": 1e300}}))
    rc = run(["timetags", "--config", path, "--pairs", 10, "--out", tmp_path / "out"])
    assert rc == 2
    assert "carry 10 pairs' emission times and delays to inf ps" in capsys.readouterr().err


def test_a_reach_past_the_grid_in_a_later_chunk_leaves_no_dump(tmp_path, monkeypatch, capsys):
    # 20 000 gaps of mean 1e14 ps pass 2**60 ps after ~11 500 pairs: the run's
    # first chunks are written before its twelfth fails
    monkeypatch.setattr(detection, "WRITE_CHUNK", 1000)
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"source": {"pair_rate": 1e-2}}))
    first = sample_pairs(SpectralModel(pair_rate=1e-2), 1000, seed=1, stream=(KIND_TIMETAGS,))
    assert first.t0_ps[-1] < 2**60 // 10
    rc = run(["timetags", "--config", path, "--pairs", 20_000, "--out", tmp_path / "out"])
    assert rc == 2
    assert "carry 20000 pairs" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


# Runs the command in its argv in a child and prints the child's exit code and
# peak resident memory (ru_maxrss, kB).  A child inherits its parent's peak at
# exec, so a child started straight from the test process would read the test
# process's peak; the launcher imports no NumPy, so its own few MB are the
# floor of what its child reads.
LAUNCHER = """
import os, sys
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.argv[1], sys.argv[1:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def launched_peak_mb(argv, env=None) -> float:
    """Peak resident memory (MB) of ``argv`` run from :data:`LAUNCHER`; it must exit 0."""
    run = subprocess.run([sys.executable, "-c", LAUNCHER, *map(str, argv)], env=env,
                         capture_output=True, text=True, check=True)
    code, peak_kb = map(int, run.stdout.splitlines()[-1].split())
    assert code == 0, run.stderr
    return peak_kb / 1024.0


def test_the_launcher_reads_its_child_not_the_test_process():
    # the test process holds 64 MB more than a bare interpreter needs, and the
    # launched interpreter's peak does not see it
    ballast = np.ones(2**23)
    assert launched_peak_mb([sys.executable, "-c", "pass"]) < 40.0
    del ballast


def test_dump_memory_does_not_grow_with_the_run(tmp_path):
    # each run in a fresh process: its peak resident memory is set by the
    # chunk, not by the pair count
    def peak_mb(n_pairs):
        config = ROOT / "perfbench" / "configs" / "dump-replay.json"
        out = tmp_path / str(n_pairs)
        argv = ["timetags", "--config", config, "--pairs", n_pairs, "--out", out]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return launched_peak_mb([sys.executable, "-m", "franson.cli", *argv], env)

    small, large = peak_mb(100_000), peak_mb(1_000_000)
    assert large - small <= 15.0, (small, large)


def test_invalid_config_reports_the_problem(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"source": {"delta": -1}}')
    rc = run(["chsh", "--config", bad, "--out", tmp_path])
    assert rc == 2
    assert "delta" in capsys.readouterr().err


def test_a_config_integer_past_the_digit_limit_fails_naming_the_file(tmp_path, capsys):
    # json.loads raises a bare ValueError for an integer of over 4,300 digits
    bad = tmp_path / "huge.json"
    bad.write_text('{"source": {"pair_rate": 1' + "0" * 4999 + "}}")
    rc = run(["chsh", "--mode", "analytic", "--config", bad, "--out", tmp_path])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err


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


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_seed_override_out_of_range_fails_naming_the_flag(seed, config_path, tmp_path, capsys):
    # analytic mode draws nothing, so no random stream would reject the seed
    argv = ["chsh", "--config", config_path, "--mode", "analytic", "--seed", seed]
    assert run([*argv, "--out", tmp_path]) == 2
    assert f"error: --seed must be an integer in [0, 2**128), got {seed}" in capsys.readouterr().err
    assert not (tmp_path / "chsh.json").exists()


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
    pairs = sample_pairs(cfg.source, 4000, cfg.seed, stream=(KIND_TIMETAGS,))
    tags_a, tags_b = simulate_tags(
        pairs, cfg.umzi_a, cfg.umzi_b, cfg.detector, cfg.seed, stream=(KIND_TIMETAGS,)
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


def test_correlate_warns_when_the_dump_was_made_under_another_seed_or_config(
    config_path, tmp_path, capsys
):
    # the products are stamped with the correlating config's seed and hash,
    # so a dump made under others is named on stderr
    dump = tmp_path / "timetags.dat"
    argv = ["timetags", "--config", config_path, "--pairs", 50, "--seed", 42, "--out", tmp_path]
    assert run(argv) == 0
    capsys.readouterr()
    assert run(["correlate", "--config", config_path, "--input", dump, "--out", tmp_path]) == 0
    err = capsys.readouterr().err
    assert "warning: dump was produced under seed 42, correlating under 1\n" in err
    assert "config_hash" not in err
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**json.loads(IDEAL), "seed": 42, "correlator": {"window": 8e-12}}))
    assert run(["correlate", "--config", other, "--input", dump, "--out", tmp_path]) == 0
    err = capsys.readouterr().err
    assert "seed" not in err
    cfg_hash = fr.config_hash(fr.load_config(other))
    assert f"produced under config_hash {fr.config_hash(fr.load_config(config_path))}, " in err
    assert f"correlating under {cfg_hash}\n" in err
    argv = ["correlate", "--config", config_path, "--input", dump, "--seed", 42, "--out", tmp_path]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""


def test_config_warnings_are_surfaced(config_path, tmp_path, capsys):
    cfg = tmp_path / "warn.json"
    cfg.write_text('{"source": {"delta": 1e10}, "scan": {"pairs_per_point": 500}}')
    assert run(["chsh", "--config", cfg, "--mode", "analytic", "--out", tmp_path]) == 0
    assert "critical UMZI condition" in capsys.readouterr().err
