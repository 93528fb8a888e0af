"""Scripted experiment runners.

Each runner scans one knob, collects per-point rates with their standard
errors, fits the fringe and returns a ScanResult that serializes to CSV and a
JSON summary.  analytic mode is the exact ensemble expectation: zero errors,
no sampled pairs.  Every sampled point draws from an independent random
substream keyed by the seed and a tuple path (run kind, [sweep step,] point
index), so reruns are bit-identical and points are uncorrelated.

Scan sizes come from ``cfg.scan`` (analytic results report them as set);
only the pump and crossover sweeps take theirs as arguments.  The runners
share one skeleton: :func:`_point` gives a point's central-peak rates,
:func:`_fringe` runs it over a joint-phase grid, :func:`_fit_curves` fits and
packages the port-pair curves, and :func:`_stamped` builds every result with
its provenance and validates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rng_mod
from .config import RunConfig, config_hash
from .correlation import (
    chsh_combinations,
    chsh_sum,
    correlation_coefficient,
    expected_rates,
    fringe_visibility,
    overlap_envelope,
    stream_for_setting,
)
from .correlator import CoincidenceHistogram, correlate
from .detection import TagStream, simulate_tags
from .errors import FitError, UndefinedCorrelationError
from .fitting import CosineFit, fit_cosine
from .interferometer import ensemble_local_fringe, local_intensities, local_visibility_oracle
from .interferometer import TWO_PI, sampled_cf
from .source import PairEnsemble, sample_pairs

PORT_PAIRS = ((5, 5), (5, 6), (6, 5), (6, 6))

# tau-decay: the imposed offsets in units of 1/delta, and the joint-phase
# points of each Monte Carlo step's fringe scan
TAU_OFFSETS_DELTA = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
TAU_POINTS = 12


def wrap_phase(x: float) -> float:
    """Wrap to (-pi, pi]."""
    return float(-((-x + math.pi) % TWO_PI - math.pi))


@dataclass
class ScanResult:
    """One scan: grid, per-point columns, fits and provenance."""

    kind: str
    x_label: str
    x: np.ndarray
    columns: dict[str, np.ndarray]
    fits: dict[str, CosineFit] = field(default_factory=dict)
    visibility: float = math.nan
    visibility_err: float = math.nan
    phase_offset: float = math.nan
    extras: dict = field(default_factory=dict)
    seed: int = 0
    config_hash: str = ""
    mode: str = "analytic"
    pairs_per_point: int = 0
    warnings: list[str] = field(default_factory=list)

    def validate(self) -> None:
        if np.any(np.diff(self.x) <= 0):
            raise AssertionError("scan grid must be strictly increasing")
        if math.isfinite(self.visibility):
            # fit tolerance: a few standard errors beyond the physical range
            tol = 0.05 + 5.0 * (self.visibility_err if math.isfinite(self.visibility_err) else 0.0)
            if not -tol <= self.visibility <= 1.0 + tol:
                raise AssertionError(f"fitted visibility out of range: {self.visibility}")

    def to_csv_text(self) -> str:
        names = [self.x_label] + sorted(self.columns)
        lines = [
            "# franson-scan v1",
            f"# kind={self.kind} mode={self.mode}",
            f"# seed={self.seed}",
            f"# config_hash={self.config_hash}",
            ",".join(names),
        ]
        cols = [self.x] + [self.columns[k] for k in sorted(self.columns)]
        for row in zip(*cols):
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    def to_summary_dict(self) -> dict:
        fits = {
            name: {
                "visibility": f.visibility,
                "visibility_err": f.visibility_err,
                "phase": f.phase,
                "offset": f.offset,
                "visibility_maxmin": f.visibility_maxmin,
                "residual_rms": f.residual_rms,
            }
            for name, f in self.fits.items()
        }
        return {
            "kind": self.kind,
            "mode": self.mode,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "pairs_per_point": self.pairs_per_point,
            "visibility": self.visibility,
            "visibility_err": self.visibility_err,
            "phase_offset": self.phase_offset,
            "fits": fits,
            "extras": self.extras,
            "warnings": list(self.warnings),
        }


@dataclass
class ChshRun:
    """CHSH result with provenance."""

    s_value: float
    s_err: float
    correlations: dict[str, float]
    settings: tuple[float, float, float, float]
    mode: str
    seed: int
    config_hash: str
    pairs_per_setting: int
    warnings: list[str] = field(default_factory=list)

    def validate(self) -> None:
        # |E| <= 1 for every setting pair bounds S by 4 in any theory
        for name, e_val in self.correlations.items():
            if not abs(e_val) <= 1.0 + 1e-12:
                raise AssertionError(f"correlation E({name}) outside [-1, 1]: {e_val}")

    def to_summary_dict(self) -> dict:
        return {
            "kind": "chsh",
            "mode": self.mode,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "pairs_per_setting": self.pairs_per_setting,
            "s_value": self.s_value,
            "s_err": self.s_err,
            "correlations": self.correlations,
            "settings": list(self.settings),
            "warnings": list(self.warnings),
        }


def _stamped(cls, cfg: RunConfig, mode: str, warnings=(), **fields):
    """Build a ScanResult or ChshRun with its provenance and validate it.

    The provenance is the seed, the config hash, the mode, and the config's
    warnings ahead of the run's own; ``fields`` carries the rest, the pair
    count included.
    """
    result = cls(
        seed=cfg.seed,
        config_hash=config_hash(cfg),
        mode=mode,
        warnings=[*cfg.warnings, *warnings],
        **fields,
    )
    result.validate()
    return result


def _count(name: str, value: int | None, default: int, minimum: int = 1) -> int:
    """A pump or crossover sweep's count argument: None takes the default, and
    a count below ``minimum`` is an error naming the argument."""
    count = default if value is None else value
    if count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {count}")
    return count


def _check_sweep(name: str, values: np.ndarray, ok: np.ndarray, rule: str) -> None:
    """Reject a pump or crossover sweep's values unless ``ok`` holds for all
    (a NaN fails any rule), naming the argument and the first bad value."""
    if not ok.all():
        raise ValueError(f"{name} must be {rule}, got {values[~ok][0]:g}")


def _joint_phase_grid(n_points: int) -> np.ndarray:
    return np.linspace(0.0, TWO_PI, n_points, endpoint=False)


def simulate_point(
    cfg: RunConfig,
    stream,
    n_pairs: int,
    phase_a: float,
    phase_b: float,
    envelope: float = 1.0,
) -> tuple[PairEnsemble, TagStream, TagStream, CoincidenceHistogram]:
    """Full source -> detection -> correlator pipeline for one scan point.

    ``stream`` is the point's key path; source and detection draw from its
    two role substreams.
    """
    cfg_a = replace(cfg.umzi_a, phase=float(phase_a))
    cfg_b = replace(cfg.umzi_b, phase=float(phase_b))
    pairs = sample_pairs(cfg.source, n_pairs, cfg.seed, stream=stream)
    tags_a, tags_b = simulate_tags(
        pairs, cfg_a, cfg_b, cfg.detector, cfg.seed, stream=stream, envelope=envelope
    )
    hist = correlate(tags_a, tags_b, cfg.correlator)
    return pairs, tags_a, tags_b, hist


def _counted_rates(hist: CoincidenceHistogram, n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Central-window counts per pair and their Poisson errors, floored at one
    count; both (2, 2) over (port_a, port_b)."""
    return hist.central / n_pairs, np.sqrt(np.maximum(hist.central, 1.0)) / n_pairs


def _point(cfg, mode, stream, n_pairs, phase_a, phase_b, envelope=1.0):
    """One scan point: (pairs, central rates, stderr).

    Rates and errors are (2, 2) over (port_a, port_b).  analytic mode returns
    the closed-form :func:`expected_rates`, zero errors and pairs None;
    montecarlo mode draws the pairs and counts the central window of the full
    tag pipeline.  Both take the fringe visibility from
    ``fringe_visibility(envelope, cfg.umzi_a, cfg.umzi_b)``.
    """
    if mode == "analytic":
        cfg_a = replace(cfg.umzi_a, phase=float(phase_a))
        cfg_b = replace(cfg.umzi_b, phase=float(phase_b))
        return None, expected_rates(cfg.source, cfg_a, cfg_b, envelope), np.zeros((2, 2))
    pairs, _, _, hist = simulate_point(cfg, stream, n_pairs, phase_a, phase_b, envelope)
    return (pairs, *_counted_rates(hist, n_pairs))


def _fit_curves(port_x, rates, stderr, curves=None) -> tuple[dict, list[str]]:
    """Fit and package a scan's curves as ScanResult fields.

    Fits each named (x, y) curve in ``curves``, then the four port-pair rate
    curves against ``port_x`` weighted by their errors.  Returns the fields
    (rate and stderr columns, fits, and the port-55 fit as the headline
    visibility and phase) and one warning per fit that failed.
    """
    named = {name: (x, y, None) for name, (x, y) in (curves or {}).items()}
    columns = {}
    for pa, pb in PORT_PAIRS:
        name = f"{pa}{pb}"
        columns[f"rate_{name}"] = rates[pa - 5, pb - 5]
        columns[f"stderr_{name}"] = stderr[pa - 5, pb - 5]
        named[name] = (port_x, rates[pa - 5, pb - 5], stderr[pa - 5, pb - 5])
    fits = {}
    warnings = []
    for name, (x, y, sigma) in named.items():
        try:
            fits[name] = fit_cosine(x, y, sigma=sigma)
        except FitError as exc:
            what = f"port pair {name}" if name.isdigit() else name
            warnings.append(f"fit failed for {what}: {exc}")
    fields = {"columns": columns, "fits": fits}
    primary = fits.get("55")
    if primary:
        fields.update(
            visibility=primary.visibility,
            visibility_err=primary.visibility_err,
            phase_offset=wrap_phase(primary.phase),
        )
    return fields, warnings


def run_fringe_scan(cfg: RunConfig, mode: str = "analytic") -> ScanResult:
    """Central-peak rate per port pair against the joint phase phi + psi.

    analytic mode gives the exact ensemble-mean rates with zero errors and
    draws no pairs; montecarlo mode runs the full tag pipeline and counts
    window totals, point k drawing from the stream ``(KIND_FRINGE, k)``.
    """
    _check_mode(mode)
    scan = cfg.scan
    return _fringe(cfg, mode, (rng_mod.KIND_FRINGE,), scan.n_points, scan.pairs_per_point)


def _fringe(cfg, mode, key, n_points, n_pairs, envelope=1.0) -> ScanResult:
    """A fringe scan of ``n_points`` joint phases at ``n_pairs`` pairs each
    and the given envelope factor; point k draws from the stream ``(*key, k)``."""
    theta = _joint_phase_grid(n_points)
    psi = cfg.umzi_b.phase
    rates = np.zeros((2, 2, theta.size))
    stderr = np.zeros((2, 2, theta.size))
    for k, th in enumerate(theta):
        # [1:] lets the point's pairs go before the next point draws its own
        rates[..., k], stderr[..., k] = _point(
            cfg, mode, (*key, k), n_pairs, th - psi, psi, envelope
        )[1:]
    return _fringe_result(cfg, mode, theta, rates, stderr, n_pairs)


def _fringe_result(cfg, mode, theta, rates, stderr, n_pairs) -> ScanResult:
    """The fringe-scan ScanResult of a joint-phase grid's rates and errors."""
    fields, fit_warnings = _fit_curves(theta, rates, stderr)
    return _stamped(
        ScanResult,
        cfg,
        mode,
        fit_warnings,
        kind="fringe-scan",
        x_label="joint_phase_rad",
        x=theta,
        pairs_per_point=n_pairs,
        **fields,
    )


def run_local_scan(cfg: RunConfig) -> ScanResult:
    """Scan both local phases together: flat local intensities, fringing
    coincidences.

    Local port-5 intensities are the ensemble means of the single-photon
    interference at each party; the nonlocal curve is counted from the very
    same simulated tag streams (joint phase 2*theta), and the tag-stream
    singles fractions are reported alongside as a cross-check.
    """
    theta = _joint_phase_grid(cfg.scan.n_points)
    n_pairs = cfg.scan.pairs_per_point
    local_a = np.zeros(theta.size)
    local_b = np.zeros(theta.size)
    singles_a5 = np.zeros(theta.size)
    singles_b5 = np.zeros(theta.size)
    rates = np.zeros((2, 2, theta.size))
    stderr = np.zeros((2, 2, theta.size))

    for k, th in enumerate(theta):
        pairs, tags_a, tags_b, hist = simulate_point(cfg, (rng_mod.KIND_LOCAL, k), n_pairs, th, th)
        rates[..., k], stderr[..., k] = _counted_rates(hist, n_pairs)
        angle_a = TWO_PI * (pairs.detuning_signal * cfg.umzi_a.t_sl) + th
        angle_b = TWO_PI * (pairs.detuning_idler * cfg.umzi_b.t_sl) + th
        local_a[k] = local_intensities(angle_a, cfg.umzi_a.gamma)[0].mean()
        local_b[k] = local_intensities(angle_b, cfg.umzi_b.gamma)[0].mean()
        counts_a = tags_a.port_counts()
        counts_b = tags_b.port_counts()
        singles_a5[k] = counts_a[5] / max(counts_a[5] + counts_a[6], 1)
        singles_b5[k] = counts_b[5] / max(counts_b[5] + counts_b[6], 1)
        del pairs, tags_a, tags_b, hist, angle_a, angle_b  # before the next point's draw

    curves = {
        "local_a": (theta, local_a),
        "local_b": (theta, local_b),
        "singles_a5": (theta, singles_a5),
        "singles_b5": (theta, singles_b5),
    }
    fields, fit_warnings = _fit_curves(2.0 * theta, rates, stderr, curves)
    fields["columns"].update(
        local_i5_a=local_a,
        local_i5_b=local_b,
        singles_a5_fraction=singles_a5,
        singles_b5_fraction=singles_b5,
    )
    fits = fields["fits"]
    extras = {
        "visibility_local_a": fits["local_a"].visibility if "local_a" in fits else math.nan,
        "visibility_local_b": fits["local_b"].visibility if "local_b" in fits else math.nan,
        "visibility_singles_a": fits["singles_a5"].visibility if "singles_a5" in fits else math.nan,
        "visibility_singles_b": fits["singles_b5"].visibility if "singles_b5" in fits else math.nan,
        "visibility_nonlocal": fields.get("visibility", math.nan),
    }
    return _stamped(
        ScanResult,
        cfg,
        "montecarlo",
        fit_warnings,
        kind="local-scan",
        x_label="phase_rad",
        x=theta,
        extras=extras,
        pairs_per_point=n_pairs,
        **fields,
    )


def run_crossover_sweep(
    cfg: RunConfig,
    grid: np.ndarray | None = None,
    pairs_per_point: int | None = None,
) -> ScanResult:
    """Local visibility gamma |cf(t_sl)| of the sampled detunings against
    delta * t_sl, with the closed-form Gaussian curve alongside."""
    if grid is None:
        grid = np.geomspace(0.01, 100.0, 10)
    grid = np.asarray(grid, dtype=np.float64)
    _check_sweep("grid", grid, grid > 0.0, "> 0")
    n_pairs = _count("pairs_per_point", pairs_per_point, min(cfg.scan.pairs_per_point, 50_000))
    t_sl = cfg.umzi_a.t_sl
    vis = np.zeros(grid.size)
    oracle = np.zeros(grid.size)
    for k, x in enumerate(grid):
        model = replace(cfg.source, delta=x / t_sl)
        vis[k] = ensemble_local_fringe(
            model, cfg.umzi_a, n_pairs=n_pairs, seed=cfg.seed, stream=(rng_mod.KIND_CROSSOVER, k)
        )
        oracle[k] = cfg.umzi_a.gamma * local_visibility_oracle(model.delta, t_sl)

    return _stamped(
        ScanResult,
        cfg,
        "montecarlo",
        kind="crossover",
        x_label="delta_t_sl",
        x=grid,
        columns={"visibility_local": vis, "visibility_oracle": oracle},
        visibility=float(vis[-1]),
        extras={"max_abs_deviation": float(np.max(np.abs(vis - oracle)))},
        pairs_per_point=n_pairs,
    )


def run_tau_decay(cfg: RunConfig, mode: str = "montecarlo") -> ScanResult:
    """Nonlocal visibility against an imposed coincidence offset tau, at the
    offsets ``TAU_OFFSETS_DELTA`` / delta.

    The offset acts only through the pair-overlap envelope
    ``overlap_envelope(tau, delta)``, which suppresses the fringe on the
    1/delta scale.  Displacing party B's wavepackets by tau and centring the
    coincidence window on the displaced peak cancel exactly on the
    integer-picosecond grid, so montecarlo step k is a ``TAU_POINTS``-point
    fringe scan at that envelope, drawn from the stream ``(KIND_TAU, k)``.
    """
    _check_mode(mode)
    delta = cfg.source.delta
    offsets = np.array(TAU_OFFSETS_DELTA) / delta
    n_pairs = min(cfg.scan.pairs_per_point, 30_000)
    envelope = overlap_envelope(offsets, delta)
    expected = fringe_visibility(envelope, cfg.umzi_a, cfg.umzi_b)
    vis = expected.copy()  # analytic mode's answer; montecarlo fits each step
    err = np.zeros(offsets.size)
    if mode == "montecarlo":
        for k, env in enumerate(envelope):
            sub = _fringe(cfg, mode, (rng_mod.KIND_TAU, k), TAU_POINTS, n_pairs, float(env))
            vis[k] = sub.visibility
            err[k] = sub.visibility_err

    return _stamped(
        ScanResult,
        cfg,
        mode,
        kind="tau-decay",
        x_label="tau_offset_s",
        x=offsets,
        columns={
            "visibility": vis,
            "visibility_err": err,
            "envelope_analytic": expected,
        },
        visibility=float(vis[0]),
        visibility_err=float(err[0]),
        extras={"half_visibility_scale_s": float(0.6 / delta)},
        pairs_per_point=n_pairs,
    )


def run_pump_sweep(
    cfg: RunConfig,
    linewidths: np.ndarray | None = None,
    mode: str = "montecarlo",
    n_points: int = 16,
    pairs_per_point: int | None = None,
) -> ScanResult:
    """Nonlocal visibility against the pump linewidth, and the closed-form
    Gaussian curve ``cf_analytic`` that analytic mode's visibility equals.

    montecarlo mode also reports ``cf_sampled``, the empirical characteristic
    function of the drawn pump jitters at lag t_sl (the exact target of the fit).
    """
    _check_mode(mode)
    t_sl = cfg.umzi_a.t_sl
    if linewidths is None:
        linewidths = np.array([0.0, 0.25, 0.5, 0.75, 1.0]) / t_sl
    linewidths = np.asarray(linewidths, dtype=np.float64)
    _check_sweep("linewidths", linewidths, linewidths >= 0.0, ">= 0")
    n_pairs = _count("pairs_per_point", pairs_per_point, min(cfg.scan.pairs_per_point, 20_000))

    vis = np.zeros(linewidths.size)
    err = np.zeros(linewidths.size)
    cf_sampled = np.zeros(linewidths.size)
    cf_analytic = np.zeros(linewidths.size)
    theta = _joint_phase_grid(_count("n_points", n_points, cfg.scan.n_points, minimum=8))
    psi = cfg.umzi_b.phase
    for k, lw in enumerate(linewidths):
        sub_cfg = replace(cfg, source=replace(cfg.source, pump_linewidth=float(lw)))
        rates = np.zeros((2, 2, theta.size))
        stderr = np.zeros((2, 2, theta.size))
        acc = 0.0 + 0.0j
        for j, th in enumerate(theta):
            pairs, rates[..., j], stderr[..., j] = _point(
                sub_cfg, mode, (rng_mod.KIND_PUMP, k, j), n_pairs, th - psi, psi
            )
            if pairs is not None:  # pooled CF of the very pairs drawn, then let them go
                acc += sampled_cf(pairs.dp, t_sl)
                del pairs
        sub = _fringe_result(sub_cfg, mode, theta, rates, stderr, n_pairs)
        vis[k] = sub.visibility
        err[k] = sub.visibility_err
        cf_sampled[k] = abs(acc) / theta.size
        cf_analytic[k] = local_visibility_oracle(float(lw), t_sl)

    cfs = {"cf_analytic": cf_analytic}
    if mode == "montecarlo":  # analytic mode draws no pairs
        cfs["cf_sampled"] = cf_sampled
    return _stamped(
        ScanResult,
        cfg,
        mode,
        kind="pump-sweep",
        x_label="pump_linewidth_hz",
        x=linewidths,
        columns={
            "visibility": vis,
            "visibility_err": err,
            **{name: fringe_visibility(cf, cfg.umzi_a, cfg.umzi_b) for name, cf in cfs.items()},
        },
        visibility=float(vis[0]),
        visibility_err=float(err[0]),
        pairs_per_point=n_pairs,
    )


def run_chsh(cfg: RunConfig, mode: str = "analytic") -> ChshRun:
    """Four-setting CHSH sum, exact in analytic mode (``s_err`` 0) and counted
    from ``scan.pairs_per_point`` pairs per setting in montecarlo mode; S =
    2*sqrt(2) for the ideal configuration."""
    _check_mode(mode)
    settings = cfg.scan.chsh_settings
    n_pairs = cfg.scan.pairs_per_point
    if mode == "analytic":
        corr = {
            name: correlation_coefficient(_point(cfg, mode, None, n_pairs, pa, pb)[1])
            for name, (pa, pb) in chsh_combinations(settings).items()
        }
        s_value, s_err = chsh_sum(corr), 0.0
    else:
        corr = {}
        var_sum = 0.0
        for k, (name, (pa, pb)) in enumerate(chsh_combinations(settings).items()):
            _, _, _, hist = simulate_point(cfg, stream_for_setting(k), n_pairs, pa, pb)
            counts = hist.central.astype(np.float64)
            total = counts.sum()
            if total <= 0:
                raise UndefinedCorrelationError(
                    f"no central coincidences for setting combination {name}"
                )
            e_val = correlation_coefficient(counts)
            corr[name] = e_val
            var_sum += max(1.0 - e_val**2, 1.0 / total) / total
        s_value, s_err = chsh_sum(corr), math.sqrt(var_sum)
    return _stamped(
        ChshRun,
        cfg,
        mode,
        s_value=s_value,
        s_err=s_err,
        correlations=corr,
        settings=settings,
        pairs_per_setting=n_pairs,
    )


def _check_mode(mode: str) -> None:
    if mode not in ("analytic", "montecarlo"):
        raise ValueError(f"mode must be 'analytic' or 'montecarlo', got {mode!r}")
