"""Per-layer tracing from outside the program.

While a :class:`Tracer` is entered, each public function named in ``LAYERS``
is replaced by a wrapper in every ``franson`` module that holds it, which is
where its callers look the name up (``franson.experiment.sample_pairs``,
``franson.correlation.sample_pairs``, ``franson.cli.read_timetags``, ...).
A wrapper records a span (name, start, end, parent span) in memory and adds
counters taken from the call's arguments and return value.  A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from franson import cli, config, correlation, correlator, detection, experiment, fitting
from franson import interferometer, source

RUNNERS = (
    "run_fringe_scan",
    "run_local_scan",
    "run_pump_sweep",
    "run_chsh",
    "run_tau_decay",
    "run_crossover_sweep",
)


def _two_streams(a, b) -> int:
    return len(a) + len(b)


# layer name -> (function, counters from (bound arguments, return value))
LAYERS = {
    "source.sample_pairs": (source.sample_pairs, lambda a, r: {"pairs": len(r)}),
    "detection.simulate_tags": (
        detection.simulate_tags,
        lambda a, r: {"pairs": len(a["pairs"]), "tags": _two_streams(*r)},
    ),
    "detection.write_timetags": (
        detection.write_timetags,
        lambda a, r: {
            "tags": _two_streams(a["stream_a"], a["stream_b"]),
            "bytes": os.path.getsize(a["path"]),
        },
    ),
    "detection.read_timetags": (
        detection.read_timetags,
        lambda a, r: {"tags": _two_streams(r[0], r[1]), "bytes": os.path.getsize(a["path"])},
    ),
    "correlator.correlate": (
        correlator.correlate,
        lambda a, r: {
            "tags": _two_streams(a["stream_a"], a["stream_b"]),
            "matches": r.n_matches,
            "comparisons": r.n_comparisons,
        },
    ),
    "correlator.write_histogram_csv": (
        correlator.write_histogram_csv,
        lambda a, r: {"bytes": os.path.getsize(a["path"])},
    ),
    "correlation.ensemble_fringe": (correlation.ensemble_fringe, lambda a, r: {"pairs": a["n_pairs"]}),
    "correlation.chsh_value": (correlation.chsh_value, None),
    "interferometer.ensemble_local_fringe": (
        interferometer.ensemble_local_fringe,
        lambda a, r: {"pairs": a["n_pairs"]},
    ),
    "fitting.fit_cosine": (fitting.fit_cosine, None),
    "config.load_config": (config.load_config, None),
    "config.config_hash": (config.config_hash, None),
    "cli.main": (cli.main, None),
    **{f"experiment.{name}": (getattr(experiment, name), None) for name in RUNNERS},
}

# The per-layer metrics a traced run reports, all per round, as BENCHMARK.json
# lists them: name -> unit.
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PER_LAYER = {
    m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
}

# Rates over the whole run: metric key -> (numerator, denominator, scale).
RATES = {
    "pairs_per_s": ("pairs", "busy_s", 1.0),
    "tags_per_s": ("tags", "busy_s", 1.0),
    "mb_per_s": ("bytes", "busy_s", 1e-6),
    "match_ratio": ("matches", "comparisons", 1.0),
}


class Tracer:
    """Context manager that patches the wrappers in and takes them out again.

    Spans and counters accumulate over every entry until :meth:`metrics`.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._wrappers = {id(fn): (fn, self._wrap(name, fn, count)) for name, (fn, count) in LAYERS.items()}

    def _wrap(self, name, fn, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in count(bound.arguments, out).items():
                    self.counts[f"{name}.{key}"] += value
            return out

        return wrapper

    def __enter__(self):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "franson" and not mod_name.startswith("franson."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))
        return self

    def __exit__(self, *exc):
        while self._patches:
            mod, attr, value = self._patches.pop()
            setattr(mod, attr, value)
        return False

    def layer_times(self) -> dict[str, dict[str, float]]:
        """calls, busy_s (span time) and self_s per layer, summed over spans."""
        duration = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += duration[i]
        times: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, _, _, _) in enumerate(self.spans):
            times[name]["calls"] += 1
            times[name]["busy_s"] += duration[i]
            times[name]["self_s"] += duration[i] - child[i]
        return times

    def metrics(self, rounds: int, nominal_pairs: int, traced_s: float, untraced_s: float) -> dict:
        """Every PER_LAYER metric, per round; a layer that did not run reads 0."""
        times = self.layer_times()

        def total(layer: str, key: str) -> float:
            if key in ("calls", "busy_s", "self_s"):
                return times[layer][key] if layer in times else 0.0
            return self.counts.get(f"{layer}.{key}", 0.0)

        def ratio(num: float, den: float) -> float:
            return num / den if den > 0 else 0.0

        values = {
            "source.useful_ratio": ratio(nominal_pairs, total("source.sample_pairs", "pairs")),
            "trace.wall_s": traced_s / rounds,
            "trace.overhead_s": (traced_s - untraced_s) / rounds,
            "trace.unaccounted_s": (traced_s - sum(t["self_s"] for t in times.values())) / rounds,
        }
        for name in PER_LAYER.keys() - values.keys():
            layer, _, key = name.rpartition(".")
            if key in RATES:
                num, den, scale = RATES[key]
                values[name] = ratio(total(layer, num) * scale, total(layer, den))
            else:
                values[name] = total(layer, key) / rounds
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n", encoding="utf-8")
