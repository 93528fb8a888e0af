#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of benchmark runs of the same code.

    python3 perfbench/steady.py --runs 10

For each workload in BENCHMARK.json, run ``i`` of set A (seed ``1 + i``) and
run ``i`` of set B (seed ``1001 + i``) follow each other, the set going first
alternating with ``i``.  For every end-to-end metric the report gives each
set's median and quartiles, the quartile spread as a share of the median, the
spread of all runs pooled, and whether set B's median is worse than set A's by
no more than the metric's bound.  It also checks that the share of failed
operations is the same in every run.  ``probe_s``, the run's machine-speed
probe loop, is reported the same way: its spread is the shared machine's
drift, which no run length removes.  Exit status 0 means every check held.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def run_once(bench: dict, workload: str, seed: int, seconds: int) -> dict:
    """The run's result line, with the mean of its probe loops as ``probe_s``."""
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    result["probe_s"] = statistics.mean(p["loop_s"] for p in info["probe"].values())
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    results = {w: ([], []) for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            for which in ((0, 1) if i % 2 == 0 else (1, 0)):
                seed = 1 + i + 1000 * which
                out = run_once(bench, w, seed, seconds)
                results[w][which].append(out)
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items())
                print(f"# {w} set {'AB'[which]} seed {seed}: {values} probe_s={out['probe_s']:.4f}", flush=True)

    ok = True
    for w, sets in results.items():
        runs = sets[0] + sets[1]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok = ok and correct and len(shares) == 1
        print(f"\n{w}: correct in every run: {correct}; failed shares: {sorted(shares)}")
        print(f"  {'metric':<12} {'set':<4} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}")
        for which, s in enumerate(sets):
            vals = [r["probe_s"] for r in s]
            q1, med, q3 = quartiles(vals)
            print(f"  {'probe_s':<12} {'AB'[which]:<4} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread(vals):8.2%}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in s] for s in sets]
            for which, vals in enumerate(values):
                q1, med, q3 = quartiles(vals)
                print(f"  {name:<12} {'AB'[which]:<4} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread(vals):8.2%}")
            med_a, med_b = (statistics.median(v) for v in values)
            worse = (med_b - med_a) / med_a * (1 if metric["better"] == "lower" else -1)
            widest = max(spread(values[0]), spread(values[1]))
            agree = worse <= bound
            steady = widest <= bound
            ok = ok and agree and steady
            print(
                f"  {name:<12} B vs A worse by {worse:+.2%} (bound {bound:.0%}): "
                f"{'agree' if agree else 'DISAGREE'}; widest set spread {widest:.2%} "
                f"{'within bound' if steady else 'OVER bound'}; "
                f"pooled spread {spread(values[0] + values[1]):.2%}"
            )
    print(f"\nsteady: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
