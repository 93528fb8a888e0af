"""The benchmark's workloads: what one round runs and how its outputs are checked.

A round is a fixed list of operations.  Each operation is one timed call into
franson plus a check of its output against numbers computed here, apart from
the program.  Every call goes through a module attribute (``experiment.run_*``,
``cli.main``, ``config.load_config``) at call time, so the tracer's wrappers
see it.  Nominal pairs come from each workload's own definition (scan points x
pairs per point, or pairs dumped), never from what the program samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from franson import cli, config, experiment

CONFIGS = Path(__file__).resolve().parent / "configs"

PORT_PAIRS = ((5, 5), (5, 6), (6, 5), (6, 6))
LN2 = math.log(2.0)
N_SIGMA = 5.0

# Scan sizes per round.  Points and pairs per point of fringe, local and CHSH
# scans come from each workload's config; pump and crossover sizes are fixed
# here because their runners take them as arguments.
PUMP_LINEWIDTHS_T_SL = (0.0, 0.25, 0.5, 0.75, 1.0)  # pump FWHM x t_sl
PUMP_POINTS = 16
MC_PUMP_PAIRS = 8_000
ANALYTIC_PUMP_PAIRS = 20_000
CROSSOVER_GRID = 10
CROSSOVER_PAIRS = 50_000
DUMP_PAIRS = 200_000
COUNT_CHUNK = 20_000  # A tags per step of the dump check's own coincidence count


@dataclass
class Op:
    """One timed call into the program.

    ``check`` takes the call's return value and returns the ways it is wrong
    (empty when right).  ``known_fault`` marks the one operation that fails
    on every seed because of a fault in the program.
    """

    name: str
    pairs: int
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    known_fault: bool = False


@dataclass(frozen=True)
class Workload:
    config: Path  # parsed by the set-up probe
    make_round: Callable[[int, Path], list[Op]]  # (round seed, work dir)


def _load(name: str, seed: int):
    return replace(config.load_config(CONFIGS / name), seed=seed)


def _raw(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text(encoding="utf-8"))


def _sign(port: int) -> int:
    return 1 if port == 5 else -1


def _gaussian_cf(x) -> np.ndarray:
    """|characteristic function| at lag t_sl of a Gaussian of FWHM x / t_sl."""
    return np.exp(-((math.pi * np.asarray(x, dtype=np.float64)) ** 2) / (4.0 * LN2))


def _far(name: str, got, want, limit) -> list[str]:
    got, want = np.broadcast_arrays(np.atleast_1d(got).astype(np.float64), want)
    bad = ~(np.abs(got - want) <= limit)
    if not bad.any():
        return []
    k = int(np.flatnonzero(bad)[0])
    return [f"{name}: {bad.sum()} of {bad.size} off, first [{k}] {float(got[k])!r} vs {float(want[k])!r}"]


def _check_central_rates(scan, gamma2: float, tol=None) -> list[str]:
    """Rates against (1/8)(1 + s_a s_b gamma_A gamma_B cos theta): to ``tol``,
    or to N_SIGMA of the scan's own standard errors when ``tol`` is None."""
    errors = []
    for pa, pb in PORT_PAIRS:
        want = 0.125 * (1.0 + _sign(pa) * _sign(pb) * gamma2 * np.cos(scan.x))
        limit = tol if tol is not None else N_SIGMA * scan.columns[f"stderr_{pa}{pb}"]
        errors += _far(f"rate_{pa}{pb}", scan.columns[f"rate_{pa}{pb}"], want, limit)
    return errors


def _check_pump(scan, gamma2: float, floor: float = 0.0) -> list[str]:
    """Visibility against gamma_A gamma_B exp(-(pi dp t_sl)^2 / (4 ln 2))."""
    want = gamma2 * _gaussian_cf(np.asarray(PUMP_LINEWIDTHS_T_SL))
    limit = N_SIGMA * scan.columns["visibility_err"] + floor
    return _far("pump visibility", scan.columns["visibility"], want, limit)


def _gamma2(raw: dict) -> float:
    return raw["umzi_a"]["gamma"] * raw["umzi_b"]["gamma"]


def _pump_grid(raw: dict) -> np.ndarray:
    return np.asarray(PUMP_LINEWIDTHS_T_SL) / raw["umzi_a"]["t_sl"]


# -- mc-scan -----------------------------------------------------------------


def mc_scan_round(seed: int, workdir: Path) -> list[Op]:
    name = "mc-scan.json"
    raw = _raw(name)
    g2 = _gamma2(raw)
    points, ppp = raw["scan"]["n_points"], raw["scan"]["pairs_per_point"]

    def check_fringe(scan):
        errors = _check_central_rates(scan, g2)
        if not scan.visibility >= 0.99:
            errors.append(f"fitted visibility {scan.visibility!r} < 0.99")
        return errors

    def check_local(scan):
        ex = scan.extras
        errors = [
            f"{k} = {ex[k]!r} >= 0.02"
            for k in ("visibility_singles_a", "visibility_singles_b")
            if not ex[k] < 0.02
        ]
        if not ex["visibility_nonlocal"] > 0.95:
            errors.append(f"visibility_nonlocal = {ex['visibility_nonlocal']!r} <= 0.95")
        return errors

    def check_chsh(run):
        return [] if run.s_value > 2.7 else [f"S = {run.s_value!r} <= 2.7"]

    return [
        Op(
            "run_fringe_scan",
            points * ppp,
            lambda: experiment.run_fringe_scan(_load(name, seed), mode="montecarlo"),
            check_fringe,
        ),
        Op(
            "run_local_scan",
            points * ppp,
            lambda: experiment.run_local_scan(_load(name, seed)),
            check_local,
        ),
        Op(
            "run_pump_sweep",
            len(PUMP_LINEWIDTHS_T_SL) * PUMP_POINTS * MC_PUMP_PAIRS,
            lambda: experiment.run_pump_sweep(
                _load(name, seed),
                linewidths=_pump_grid(raw),
                mode="montecarlo",
                n_points=PUMP_POINTS,
                pairs_per_point=MC_PUMP_PAIRS,
            ),
            lambda scan: _check_pump(scan, g2),
        ),
        Op(
            "run_chsh",
            4 * ppp,
            lambda: experiment.run_chsh(_load(name, seed), mode="montecarlo"),
            check_chsh,
        ),
    ]


# -- analytic ----------------------------------------------------------------


def analytic_round(seed: int, workdir: Path) -> list[Op]:
    ideal, overlap = "analytic.json", "analytic-overlap.json"
    raw, raw_overlap = _raw(ideal), _raw(overlap)
    points, ppp = raw["scan"]["n_points"], raw["scan"]["pairs_per_point"]

    def check_chsh(run, gamma2):
        want = 2.0 * math.sqrt(2.0) * gamma2
        return _far("CHSH S", run.s_value, want, 1e-6)

    def check_tau(scan):
        g2 = _gamma2(raw_overlap)
        delta = raw_overlap["source"]["delta"]
        want = g2 * np.exp(-2.0 * LN2 * (delta * scan.x) ** 2)
        return _far("tau-decay visibility", scan.columns["visibility"], want, 1e-12)

    def check_crossover(scan):
        want = raw["umzi_a"]["gamma"] * _gaussian_cf(scan.x)
        return _far("crossover visibility", scan.columns["visibility_local"], want, 0.02)

    def overlap_fringe_and_chsh():
        cfg = _load(overlap, seed)
        return (
            experiment.run_fringe_scan(cfg, mode="analytic"),
            experiment.run_chsh(cfg, mode="analytic"),
        )

    def check_overlap(out):
        g2 = _gamma2(raw_overlap)
        scan, chsh = out
        return _check_central_rates(scan, g2, tol=1e-9) + check_chsh(chsh, g2)

    return [
        Op(
            "run_fringe_scan",
            points * ppp,
            lambda: experiment.run_fringe_scan(_load(ideal, seed), mode="analytic"),
            lambda scan: _check_central_rates(scan, _gamma2(raw), tol=1e-9),
        ),
        Op(
            "run_chsh",
            4 * ppp,
            lambda: experiment.run_chsh(_load(ideal, seed), mode="analytic"),
            lambda run: check_chsh(run, _gamma2(raw)),
        ),
        # Analytic tau-decay samples no pairs: it evaluates the envelope only.
        Op(
            "run_tau_decay",
            0,
            lambda: experiment.run_tau_decay(_load(overlap, seed), mode="analytic"),
            check_tau,
        ),
        Op(
            "run_pump_sweep",
            len(PUMP_LINEWIDTHS_T_SL) * PUMP_POINTS * ANALYTIC_PUMP_PAIRS,
            lambda: experiment.run_pump_sweep(
                _load(ideal, seed),
                linewidths=_pump_grid(raw),
                mode="analytic",
                n_points=PUMP_POINTS,
                pairs_per_point=ANALYTIC_PUMP_PAIRS,
            ),
            # at zero linewidth every pair has the same rate: no error bar
            lambda scan: _check_pump(scan, _gamma2(raw), floor=1e-9),
        ),
        Op(
            "run_crossover_sweep",
            CROSSOVER_GRID * CROSSOVER_PAIRS,
            lambda: experiment.run_crossover_sweep(
                _load(ideal, seed),
                grid=np.geomspace(0.01, 100.0, CROSSOVER_GRID),
                pairs_per_point=CROSSOVER_PAIRS,
            ),
            check_crossover,
        ),
        # Fails until the analytic fringe scan and CHSH apply gamma_A gamma_B.
        Op(
            "overlap_fringe_chsh",
            points * ppp + 4 * ppp,
            overlap_fringe_and_chsh,
            check_overlap,
            known_fault=True,
        ),
    ]


# -- dump-replay -------------------------------------------------------------


def _read_dump(path: Path):
    """The benchmark's own parser: (party, port, time_ps) columns of a dump."""
    rows = np.loadtxt(path, dtype=[("party", "U1"), ("port", "i8"), ("time", "i8")], comments="#")
    return rows["party"], rows["port"], rows["time"]


def _ps(seconds: float) -> int:
    return int(round(seconds * 1e12))


def _count_coincidences(party, port, time_ps, raw: dict) -> dict:
    """Histogram and window totals of tau = t_A - t_B, made with searchsorted.

    Works through the A tags in chunks so that the check's own arrays stay
    small beside the program's peak memory, which ``peak_rss_mb`` measures.
    """
    w, bin_w = _ps(raw["correlator"]["window"]), _ps(raw["correlator"]["bin_width"])
    t_max, side = _ps(raw["correlator"]["tau_max"]), _ps(raw["umzi_a"]["t_sl"])
    a, b = party == "A", party == "B"
    ta_all, pa_all = time_ps[a], port[a]
    order = np.argsort(time_ps[b], kind="stable")
    tb, pb = time_ps[b][order], port[b][order]
    n_bins = -((-2 * t_max) // bin_w)
    edges = -t_max + bin_w * np.arange(n_bins + 1)
    out = {
        "centers": (edges[:-1] + edges[1:]) // 2,
        "hist": np.zeros((n_bins, 2, 2), dtype=np.int64),
        "central": np.zeros((2, 2), dtype=np.int64),
        "side_plus": np.zeros((2, 2), dtype=np.int64),
        "side_minus": np.zeros((2, 2), dtype=np.int64),
        "n_matches": 0,
    }
    for start in range(0, ta_all.size, COUNT_CHUNK):
        ta, pa = ta_all[start : start + COUNT_CHUNK], pa_all[start : start + COUNT_CHUNK]
        lo = np.searchsorted(tb, ta - t_max, side="left")
        n = np.searchsorted(tb, ta + t_max, side="right") - lo
        ia = np.repeat(np.arange(ta.size), n)
        ib = lo[ia] + np.arange(ia.size) - np.repeat(np.cumsum(n) - n, n)
        tau = ta[ia] - tb[ib]
        out["n_matches"] += tau.size
        for i, port_a in enumerate((5, 6)):
            for j, port_b in enumerate((5, 6)):
                t = tau[(pa[ia] == port_a) & (pb[ib] == port_b)]
                out["hist"][:, i, j] += np.histogram(t, bins=edges)[0]
                out["central"][i, j] += np.count_nonzero(np.abs(t) <= w)
                out["side_plus"][i, j] += np.count_nonzero(np.abs(t - side) <= w)
                out["side_minus"][i, j] += np.count_nonzero(np.abs(t + side) <= w)
    return out


def dump_replay_round(seed: int, workdir: Path) -> list[Op]:
    name = "dump-replay.json"
    cfg_path = str(CONFIGS / name)
    raw = _raw(name)
    dump = workdir / "timetags.dat"

    def timetags():
        argv = ["timetags", "--config", cfg_path, "--seed", str(seed)]
        return cli.main(argv + ["--pairs", str(DUMP_PAIRS), "--out", str(workdir)])

    def correlate():
        argv = ["correlate", "--config", cfg_path, "--seed", str(seed)]
        return cli.main(argv + ["--input", str(dump), "--out", str(workdir)])

    def check_timetags(code):
        if code != 0:
            return [f"franson timetags exited {code}"]
        party = _read_dump(dump)[0]
        errors = []
        for p in ("A", "B"):
            n = int(np.count_nonzero(party == p))
            if n != DUMP_PAIRS:
                errors.append(f"{n} {p} tags for {DUMP_PAIRS} pairs at unit efficiency")
        return errors

    def check_correlate(code):
        if code != 0:
            return [f"franson correlate exited {code}"]
        want = _count_coincidences(*_read_dump(dump), raw)
        text = (workdir / "histogram.csv").read_text(encoding="ascii")
        rows = [ln for ln in text.splitlines() if ln and ln[0] != "#"][1:]  # past column names
        csv = np.array([r.split(",") for r in rows], dtype=np.int64).reshape(-1, 2, 2, 4)
        summary = json.loads((workdir / "correlate.json").read_text(encoding="utf-8"))
        errors = []
        if not np.array_equal(csv[:, 0, 0, 0], want["centers"]):
            errors.append("histogram.csv bin centres differ from the config's geometry")
        if not np.array_equal(csv[..., 3], want["hist"]):
            errors.append("histogram.csv counts differ from the benchmark's own count")
        for key in ("central", "side_plus", "side_minus", "n_matches"):
            if not np.array_equal(np.asarray(summary[key]), want[key]):
                errors.append(f"correlate.json {key} {summary[key]} != {np.asarray(want[key]).tolist()}")
        return errors

    return [
        Op("cli.timetags", DUMP_PAIRS, timetags, check_timetags),
        # the correlate step replays the same pairs: they count once
        Op("cli.correlate", 0, correlate, check_correlate),
    ]


WORKLOADS = {
    "mc-scan": Workload(CONFIGS / "mc-scan.json", mc_scan_round),
    "dump-replay": Workload(CONFIGS / "dump-replay.json", dump_replay_round),
    "analytic": Workload(CONFIGS / "analytic.json", analytic_round),
}
