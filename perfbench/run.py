#!/usr/bin/env python3
"""franson-sim benchmark: one workload in one single-threaded process.

    python3 perfbench/run.py --workload mc-scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; franson is imported from ``src/``.
The run makes one warm-up round, then runs whole rounds of the workload's
operations until ``--seconds`` have passed, checking every output.  Between
rounds it measures the set-up time in fresh interpreters.  Standard output ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``, which
are the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  The line before it records the environment and a
machine-speed probe.
"""

import os

# One thread per run: pin the BLAS and OpenMP pools before NumPy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 15

# Runs in a fresh interpreter: import franson and parse one config.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import franson
franson.load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


# Runs in a fresh interpreter, so that its arrays stay out of the measured
# process's peak memory: fixed work that never touches franson.
PROBE_CODE = """\
import json, time
import numpy as np
x = np.random.default_rng(12345).random(1_000_000)
t0 = time.perf_counter()
np.sort(x)
t1 = time.perf_counter()
acc = 0
for i in range(1_000_000):
    acc += i * i % 7
t2 = time.perf_counter()
print(json.dumps({"sort_s": t1 - t0, "loop_s": t2 - t1}))
"""


def child_output(code: str, *args: str) -> str:
    """Last line that ``code`` prints when run in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60, check=True
    )
    return done.stdout.strip().splitlines()[-1]


def setup_seconds(config: Path) -> float:
    """Set-up time of one fresh interpreter."""
    return float(child_output(SETUP_CODE, str(SRC), str(config)))


def machine_probe() -> dict:
    """A NumPy sort of 10^6 doubles and a 10^6-step Python loop, in seconds."""
    return json.loads(child_output(PROBE_CODE))


def environment() -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": has_numba,
    }


def run_round(ops) -> tuple[float, list]:
    """Time each operation's call and check its output apart from the timing.

    Returns (seconds inside the calls, [(op, errors)]).
    """
    seconds = 0.0
    results = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # the operation failed; count it and go on
            seconds += time.perf_counter() - t0
            results.append((op, [f"raised {type(exc).__name__}: {exc}"]))
            continue
        seconds += time.perf_counter() - t0
        try:
            errors = op.check(out)
        except Exception as exc:  # an output the check cannot read is wrong
            errors = [f"check raised {type(exc).__name__}: {exc}"]
        results.append((op, errors))
    return seconds, results


class Tally:
    """Operations attempted and failed; a failure other than a known fault
    makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._reported = set()

    def add(self, results) -> None:
        for op, errors in results:
            self.attempted += 1
            if not errors:
                continue
            self.failed += 1
            self.correct = self.correct and op.known_fault
            if op.name not in self._reported:
                self._reported.add(op.name)
                kind = "known fault" if op.known_fault else "FAILED"
                print(f"{kind}: {op.name}: {'; '.join(errors)}", file=sys.stderr)


def round_seed(seed: int, index: int) -> int:
    """Config seed of round ``index`` (0 is the warm-up) of a run seeded ``seed``."""
    return seed * 1_000_000 + index


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["mc-scan", "dump-replay", "analytic"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "franson" / "__init__.py").is_file():
        print(f"error: no franson sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    probe_before = machine_probe()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        run_round(workload.make_round(round_seed(args.seed, 0), workdir))  # warm-up
        if args.trace:
            metrics, round_s = traced(args, workload, workdir, tally)
        else:
            metrics, round_s = untraced(args, workload, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "round_s": [round(x, 4) for x in round_s],
        "environment": environment(),
        "probe": {"before": probe_before, "after": machine_probe()},
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def untraced(args, workload, workdir, tally):
    """Whole rounds until ``--seconds`` have passed.  After each round, set-up
    samples are taken until their count keeps pace with the elapsed share of
    the run, so that SETUP_SAMPLES of them spread over its whole length."""
    round_s, setup = [], []
    pairs = 0
    start = time.perf_counter()
    while not round_s or time.perf_counter() - start < args.seconds:
        ops = workload.make_round(round_seed(args.seed, len(round_s) + 1), workdir)
        seconds, results = run_round(ops)
        round_s.append(seconds)
        pairs = sum(op.pairs for op in ops)
        tally.add(results)
        while len(setup) < min(SETUP_SAMPLES, SETUP_SAMPLES * (time.perf_counter() - start) / args.seconds):
            setup.append(setup_seconds(workload.config))
    setup_s = statistics.median(setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "pairs_per_s": {"value": pairs * len(round_s) / sum(round_s), "unit": "pairs/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return metrics, round_s


def traced(args, workload, workdir, tally):
    """Each round runs untraced, then traced on the same inputs; the
    difference of their wall times is the tracing overhead."""
    from spans import Tracer

    tracer = Tracer()
    untraced_s, traced_s = [], []
    pairs = 0
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < args.seconds:
        seed = round_seed(args.seed, len(traced_s) + 1)
        seconds, results = run_round(workload.make_round(seed, workdir))
        untraced_s.append(seconds)
        tally.add(results)
        ops = workload.make_round(seed, workdir)
        with tracer:
            seconds, results = run_round(ops)
        traced_s.append(seconds)
        tally.add(results)
        pairs += sum(op.pairs for op in ops)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    return tracer.metrics(len(traced_s), pairs, sum(traced_s), sum(untraced_s)), traced_s

if __name__ == "__main__":
    sys.exit(main())
