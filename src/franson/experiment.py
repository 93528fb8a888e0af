"""Scripted experiment runners.

Each runner scans one knob, collects per-point rates with their standard
errors, fits the fringe and returns a ScanResult that serializes to CSV and a
JSON summary.  analytic mode is the exact ensemble expectation: zero errors,
no sampled pairs.  Every sampled point draws from an independent random
substream keyed by the seed and a tuple path (run kind, [sweep step,] point
index), so reruns are bit-identical and points are uncorrelated.  The
crossover sweep is the exception: all its points rescale one draw, keyed
(run kind,), so its curve is one ensemble's characteristic function.

Scan sizes come from ``cfg.scan`` (analytic results report them as set);
only the pump and crossover sweeps take theirs as arguments.  The runners
share one skeleton: :func:`_central_tables`, the one point loop, gives the
central tables of a list of phase points, :func:`_rates` turns them into
rates and errors, :func:`_fit_curves` fits and packages the curves,
:func:`_fringe` runs all three over a joint-phase grid, and :func:`_stamped`
builds every result with its provenance and validates it.  A montecarlo sweep
fits a fringe scan per step; an analytic one reports the closed form.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import rng as rng_mod
from .config import RunConfig, config_hash
from .correlation import (
    chsh_combinations,
    chsh_sum,
    correlation_coefficient,
    expected_rates,
    fringe_damping,
    fringe_visibility,
    overlap_envelope,
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
        """Every field but the table (``x_label``, ``x``, ``columns``)."""
        table = ("x_label", "x", "columns")
        return {name: value for name, value in asdict(self).items() if name not in table}


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
        return {"kind": "chsh", **asdict(self)}


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


def _sweep_values(name: str, values, ok, rule: str) -> np.ndarray:
    """A pump or crossover sweep's values as floats: at least one, each
    passing ``ok`` (``rule`` in words; a NaN fails any rule), strictly
    increasing.  Otherwise fails naming the argument and the first bad value."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError(f"{name} must hold at least one value")
    rise = (values[1:], np.diff(values) > 0.0, "strictly increasing")
    for got, good, why in ((values, ok(values), rule), rise):
        if not good.all():
            raise ValueError(f"{name} must be {why}, got {got[~good][0]:g}")
    return values


def _joint_phase_grid(n_points: int) -> np.ndarray:
    return np.linspace(0.0, TWO_PI, n_points, endpoint=False)


def simulate_point(
    cfg: RunConfig,
    stream,
    n_pairs: int,
    phase_a: float,
    phase_b: float,
) -> tuple[PairEnsemble, TagStream, TagStream, CoincidenceHistogram]:
    """Full source -> detection -> correlator pipeline for one scan point.

    ``stream`` is the point's key path; source and detection draw from its
    two role substreams.
    """
    cfg_a = replace(cfg.umzi_a, phase=float(phase_a))
    cfg_b = replace(cfg.umzi_b, phase=float(phase_b))
    pairs = sample_pairs(cfg.source, n_pairs, cfg.seed, stream=stream)
    tags_a, tags_b = simulate_tags(pairs, cfg_a, cfg_b, cfg.detector, cfg.seed, stream=stream)
    hist = correlate(tags_a, tags_b, cfg.correlator)
    return pairs, tags_a, tags_b, hist


def _central_tables(cfg, mode, key, points, n_pairs, on_point=None) -> np.ndarray:
    """The central tables of the (phase_a, phase_b) ``points``, stacked (2, 2, n)
    over (port_a, port_b, point).

    analytic mode gives the closed-form :func:`expected_rates` and draws
    nothing; montecarlo mode counts point k's central window with the full
    tag pipeline, drawn from the stream ``(*key, k)``, and passes its draws to
    ``on_point(k, pairs, tags_a, tags_b)``, which must not keep them: the loop
    holds one point's pipeline at a time.
    """
    tables = np.zeros((2, 2, len(points)))
    for k, (phase_a, phase_b) in enumerate(points):
        if mode == "analytic":
            cfg_a = replace(cfg.umzi_a, phase=float(phase_a))
            cfg_b = replace(cfg.umzi_b, phase=float(phase_b))
            tables[..., k] = expected_rates(cfg.source, cfg_a, cfg_b)
            continue
        pairs, tags_a, tags_b, hist = simulate_point(cfg, (*key, k), n_pairs, phase_a, phase_b)
        tables[..., k] = hist.central
        if on_point is not None:
            on_point(k, pairs, tags_a, tags_b)
        del pairs, tags_a, tags_b, hist  # before the next point draws its own
    return tables


def _rates(mode, tables, n_pairs) -> tuple[np.ndarray, np.ndarray]:
    """Central tables as rates per pair and their standard errors: analytic
    rates are exact, and counts get Poisson errors floored at one count."""
    if mode == "analytic":
        return tables, np.zeros(tables.shape)
    return tables / n_pairs, np.sqrt(np.maximum(tables, 1.0)) / n_pairs


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


def _fringe(cfg, mode, key, n_points, n_pairs, on_point=None) -> ScanResult:
    """A fringe scan of ``n_points`` joint phases at ``n_pairs`` pairs each, on
    :func:`_central_tables` with its key and hook."""
    theta = _joint_phase_grid(n_points)
    psi = cfg.umzi_b.phase
    points = [(th - psi, psi) for th in theta]
    tables = _central_tables(cfg, mode, key, points, n_pairs, on_point)
    fields, fit_warnings = _fit_curves(theta, *_rates(mode, tables, n_pairs))
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
    local = {n: np.zeros_like(theta) for n in ("local_a", "local_b", "singles_a5", "singles_b5")}

    def read(k, pairs, tags_a, tags_b):  # the point's local intensities and singles
        for side, umzi, detuning, tags in (
            ("a", cfg.umzi_a, pairs.detuning_signal, tags_a),
            ("b", cfg.umzi_b, pairs.detuning_idler, tags_b),
        ):
            angle = TWO_PI * (detuning * umzi.t_sl) + theta[k]
            local[f"local_{side}"][k] = local_intensities(angle, umzi.gamma)[0].mean()
            local[f"singles_{side}5"][k] = np.count_nonzero(tags.port == 5) / max(len(tags), 1)

    grid = [(th, th) for th in theta]
    tables = _central_tables(cfg, "montecarlo", (rng_mod.KIND_LOCAL,), grid, n_pairs, on_point=read)
    curves = {name: (theta, y) for name, y in local.items()}
    fields, fit_warnings = _fit_curves(2.0 * theta, *_rates("montecarlo", tables, n_pairs), curves)
    fields["columns"].update(
        local_i5_a=local["local_a"],
        local_i5_b=local["local_b"],
        singles_a5_fraction=local["singles_a5"],
        singles_b5_fraction=local["singles_b5"],
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
    delta * t_sl, beside its closed form gamma_A |cf_delta(t_sl)|
    |cf_pump(t_sl / 2)| (the signal photon carries df + dp/2).  Every point
    rescales one draw from ``(KIND_CROSSOVER,)``, so the curve is one
    ensemble's characteristic function."""
    if grid is None:
        grid = np.geomspace(0.01, 100.0, 10)
    grid = _sweep_values("grid", grid, lambda x: x > 0.0, "> 0")
    n_pairs = _count("pairs_per_point", pairs_per_point, min(cfg.scan.pairs_per_point, 50_000))
    t_sl, umzi = cfg.umzi_a.t_sl, cfg.umzi_a
    models = [replace(cfg.source, delta=x / t_sl) for x in grid]
    key = (rng_mod.KIND_CROSSOVER,)
    vis = np.array(ensemble_local_fringe(models, umzi, n_pairs=n_pairs, seed=cfg.seed, stream=key))
    pump = local_visibility_oracle(cfg.source.pump_linewidth, 0.5 * t_sl)
    oracle = np.array([umzi.gamma * local_visibility_oracle(m.delta, t_sl) * pump for m in models])

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


def _sweep(steps, mode, kind, n_points, n_pairs, on_point=None) -> tuple[np.ndarray, np.ndarray]:
    """The fringe visibility of each step config and its error.

    analytic mode gives gamma_A gamma_B :func:`fringe_damping` with zero
    errors and draws nothing; montecarlo mode fits an ``n_points``-point
    fringe scan per step, step k drawn from the stream ``(kind, k)`` and
    passing its points' draws to ``on_point``.
    """
    if mode == "analytic":
        damped = [fringe_damping(step.source, step.umzi_a, step.umzi_b) for step in steps]
        vis = [fringe_visibility(d, step.umzi_a, step.umzi_b) for d, step in zip(damped, steps)]
        return np.array(vis), np.zeros(len(steps))
    scans = [_fringe(cfg, mode, (kind, k), n_points, n_pairs, on_point) for k, cfg in enumerate(steps)]
    return np.array([s.visibility for s in scans]), np.array([s.visibility_err for s in scans])


def run_tau_decay(cfg: RunConfig, mode: str = "montecarlo") -> ScanResult:
    """Nonlocal visibility against an imposed coincidence offset tau, at the
    offsets ``TAU_OFFSETS_DELTA`` / delta.

    The offset acts only through the pair-overlap envelope
    ``overlap_envelope(tau, delta)``, which suppresses the fringe on the
    1/delta scale.  Displacing party B's wavepackets by tau and centring the
    coincidence window on the displaced peak cancel exactly on the
    integer-picosecond grid, so step k is the config with ``umzi_b.gamma``
    times the envelope at offset k: nothing else in a fringe scan reads
    gamma_B.  Each step is a :func:`_sweep` step, montecarlo step k a
    ``TAU_POINTS``-point fringe scan drawn from the stream ``(KIND_TAU, k)``;
    ``envelope_analytic`` is the analytic sweep.
    """
    _check_mode(mode)
    delta = cfg.source.delta
    offsets = np.array(TAU_OFFSETS_DELTA) / delta
    n_pairs = min(cfg.scan.pairs_per_point, 30_000)
    gammas = cfg.umzi_b.gamma * overlap_envelope(offsets, delta)
    steps = [replace(cfg, umzi_b=replace(cfg.umzi_b, gamma=float(g))) for g in gammas]
    expected, _ = _sweep(steps, "analytic", rng_mod.KIND_TAU, TAU_POINTS, n_pairs)
    vis, err = _sweep(steps, mode, rng_mod.KIND_TAU, TAU_POINTS, n_pairs)
    return _stamped(
        ScanResult,
        cfg,
        mode,
        kind="tau-decay",
        x_label="tau_offset_s",
        x=offsets,
        columns={"visibility": vis, "visibility_err": err, "envelope_analytic": expected},
        visibility=float(vis[0]),
        visibility_err=float(err[0]),
        extras={"half_visibility_scale_s": float(0.6 / delta)},
        pairs_per_point=n_pairs,
    )


def run_pump_sweep(
    cfg: RunConfig,
    linewidths: np.ndarray | None = None,
    mode: str = "montecarlo",
    n_points: int | None = None,
    pairs_per_point: int | None = None,
) -> ScanResult:
    """Nonlocal visibility against the pump linewidth, and ``cf_analytic``:
    gamma_A gamma_B times the pump jitter's closed-form characteristic function
    at the mean delay (t_A + t_B)/2, where the jitter enters the joint phase.

    Step k is the config at linewidth k, a :func:`_sweep` step drawn from
    ``(KIND_PUMP, k)``.  analytic mode reports :func:`expected_rates`'s law,
    gamma_A gamma_B times :func:`fringe_damping`: ``cf_analytic`` times the
    detuning spread's factor, 1 on equal delays, to rounding.  montecarlo mode
    also reports ``cf_sampled``, the drawn jitters' empirical characteristic
    function at that lag (on equal delays the fit's exact target).
    """
    _check_mode(mode)
    lag = 0.5 * (cfg.umzi_a.t_sl + cfg.umzi_b.t_sl)
    if linewidths is None:
        linewidths = np.array([0.0, 0.25, 0.5, 0.75, 1.0]) / lag
    linewidths = _sweep_values("linewidths", linewidths, lambda x: x >= 0.0, ">= 0")
    n_pairs = _count("pairs_per_point", pairs_per_point, min(cfg.scan.pairs_per_point, 20_000))
    n_points = _count("n_points", n_points, cfg.scan.n_points, minimum=8)
    steps = [replace(cfg, source=replace(cfg.source, pump_linewidth=float(lw))) for lw in linewidths]
    cf_analytic = np.array([local_visibility_oracle(float(lw), lag) for lw in linewidths])
    cf_sums = []  # per montecarlo step, its points' CFs summed in draw order

    def pool(k, pairs, tags_a, tags_b):  # the pooled CF of the very pairs drawn
        if k == 0:
            cf_sums.append(0j)
        cf_sums[-1] += sampled_cf(pairs.dp, lag)

    vis, err = _sweep(steps, mode, rng_mod.KIND_PUMP, n_points, n_pairs, pool)
    columns = {"visibility": vis, "visibility_err": err}
    columns["cf_analytic"] = fringe_visibility(cf_analytic, cfg.umzi_a, cfg.umzi_b)
    if mode == "montecarlo":  # analytic mode draws no pairs
        cf_sampled = np.array([abs(total) for total in cf_sums]) / n_points
        columns["cf_sampled"] = fringe_visibility(cf_sampled, cfg.umzi_a, cfg.umzi_b)
    return _stamped(
        ScanResult,
        cfg,
        mode,
        kind="pump-sweep",
        x_label="pump_linewidth_hz",
        x=linewidths,
        columns=columns,
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
    combinations = chsh_combinations(settings)
    tables = _central_tables(cfg, mode, (rng_mod.KIND_CHSH,), combinations.values(), n_pairs)
    corr = {}
    var_sum = 0.0
    for k, name in enumerate(combinations):
        table = tables[..., k]
        total = float(table.sum())
        if total <= 0:
            raise UndefinedCorrelationError(f"no central coincidences for setting combination {name}")
        # E from the table itself: E from counts/N would differ in the last bit
        corr[name] = e_val = correlation_coefficient(table)
        if mode == "montecarlo":  # E's variance from its `total` counted coincidences
            var_sum += max(1.0 - e_val**2, 1.0 / total) / total
    return _stamped(
        ChshRun,
        cfg,
        mode,
        s_value=chsh_sum(corr),
        s_err=math.sqrt(var_sum),
        correlations=corr,
        settings=settings,
        pairs_per_setting=n_pairs,
    )


def _check_mode(mode: str) -> None:
    if mode not in ("analytic", "montecarlo"):
        raise ValueError(f"mode must be 'analytic' or 'montecarlo', got {mode!r}")
