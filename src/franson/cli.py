"""Command-line interface.

Every subcommand reads a JSON run config, runs one experiment and writes its
data products (CSV plus a JSON summary) into the output directory.  Data
products are byte-identical for identical (config, seed); volatile run
information (wall time, timestamp) goes to a separate ``*.meta.json`` file so
it never breaks the determinism contract.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import rng as rng_mod
from .config import RunConfig, config_hash, load_config
from .correlator import correlate, write_histogram_csv
from .detection import read_timetags, simulate_tags, write_timetags
from .experiment import (
    ScanResult,
    run_chsh,
    run_crossover_sweep,
    run_fringe_scan,
    run_local_scan,
    run_tau_decay,
)
from .source import sample_pairs


def _finite_or_null(value):
    """The payload with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(_finite_or_null(payload), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _write_meta(out: Path, name: str, cfg_hash: str, seed: int, t_start: float) -> None:
    _write_json(
        out / f"{name}.meta.json",
        {
            "command": name,
            "version": __version__,
            "seed": seed,
            "config_hash": cfg_hash,
            "wall_time_s": time.monotonic() - t_start,
            "created_utc": datetime.now(timezone.utc).isoformat(),
        },
    )


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    for w in cfg.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return cfg


def _cmd_scan(args) -> RunConfig:
    cfg = _load(args)
    options = {"mode": args.mode} if "mode" in args else {}
    result = args.runner(cfg, **options)
    if isinstance(result, ScanResult):
        (args.out / f"{args.command}.csv").write_text(result.to_csv_text(), encoding="utf-8")
    _write_json(args.out / f"{args.command}.json", result.to_summary_dict())
    return cfg


def _cmd_timetags(args) -> RunConfig:
    if args.pairs is not None and args.pairs < 0:
        raise ValueError(f"--pairs must be >= 0, got {args.pairs}")
    cfg = _load(args)
    n_pairs = args.pairs if args.pairs is not None else cfg.scan.pairs_per_point
    pairs = sample_pairs(cfg.source, n_pairs, cfg.seed, stream=rng_mod.KIND_TIMETAGS)
    tags_a, tags_b = simulate_tags(
        pairs, cfg.umzi_a, cfg.umzi_b, cfg.detector, cfg.seed, stream=rng_mod.KIND_TIMETAGS
    )
    write_timetags(args.out / "timetags.dat", tags_a, tags_b, cfg.seed, config_hash(cfg))
    return cfg


def _cmd_correlate(args) -> RunConfig:
    cfg = _load(args)
    tags_a, tags_b, header = read_timetags(args.input)
    cfg_hash = config_hash(cfg)
    if header.get("config_hash") not in (None, cfg_hash):
        print(
            f"warning: dump was produced under config {header['config_hash']}, "
            f"correlating under {cfg_hash}",
            file=sys.stderr,
        )
    # hist.warnings are the correlator's config warnings, which _load printed
    hist = correlate(tags_a, tags_b, cfg.correlator)
    write_histogram_csv(hist, args.out / "histogram.csv", cfg.seed, cfg_hash)
    _write_json(
        args.out / "correlate.json",
        {
            "kind": "correlate",
            "seed": cfg.seed,
            "config_hash": cfg_hash,
            "n_matches": hist.n_matches,
            "n_comparisons": hist.n_comparisons,
            "central": hist.central.tolist(),
            "side_plus": hist.side_plus.tolist(),
            "side_minus": hist.side_minus.tolist(),
            "central_fraction": hist.central_fraction,
            "overlap_warning": hist.overlap_warning,
            "warnings": list(hist.warnings),
        },
    )
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="franson",
        description=(
            "Two-photon interferometry simulator: paired unbalanced "
            "Mach-Zehnder interferometers, time-tag generation and "
            "coincidence correlation."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, mode_choice=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, type=Path, help="run config JSON path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument(
            "--debug", action="store_true", help="on error, raise with the full traceback"
        )
        if mode_choice:
            p.add_argument(
                "--mode", choices=["analytic", "montecarlo"], default="montecarlo"
            )
        p.set_defaults(func=func)
        return p

    # Looked up when the parser is built, so a runner patched into this module
    # (as the benchmark's tracer does) is the one that runs.
    for name, runner, mode_choice, help_text in (
        ("fringe-scan", run_fringe_scan, True, "nonlocal fringe vs joint phase"),
        ("local-scan", run_local_scan, False, "local intensities and nonlocal fringe vs phase"),
        ("crossover", run_crossover_sweep, False, "local visibility vs delta * t_sl"),
        ("tau-decay", run_tau_decay, True, "nonlocal visibility vs coincidence offset"),
        ("chsh", run_chsh, True, "four-setting CHSH sum"),
    ):
        add(name, _cmd_scan, help_text, mode_choice).set_defaults(runner=runner)
    p_tags = add("timetags", _cmd_timetags, "dump raw time-tag streams")
    p_tags.add_argument("--pairs", type=int, default=None, help="number of pairs to emit")
    p_corr = add("correlate", _cmd_correlate, "histogram a time-tag dump")
    p_corr.add_argument("--input", required=True, type=Path, help="time-tag dump path")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t_start = time.monotonic()
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        cfg = args.func(args)
        _write_meta(args.out, args.command, config_hash(cfg), cfg.seed, t_start)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
