"""Scripted experiment runners.

Each runner scans one knob, collects per-point rates with their standard
errors, fits the fringe and returns a ScanResult that serializes to CSV and a
JSON summary.  analytic mode is the exact ensemble expectation: zero errors,
no sampled pairs.  Every sampled point draws from its own random substream
keyed by the seed and a tuple path (run kind, point index), so reruns are
bit-identical and a scan's points are uncorrelated.  What is not independent:
the steps of a pump sweep or tau-decay, which share each point's draws, tag
times and matches and differ only in B's ports, and the crossover sweep's
points, which all rescale one draw keyed (run kind,).

Scan sizes come from ``cfg.scan`` (analytic results report them as set);
only the pump and crossover sweeps take theirs as arguments.  The runners
share one skeleton: :func:`_central_tables`, the one point loop, gives the
central tables of a list of phase points and each point's ``record(pairs,
umzis, tags_a, tags_b)``; :func:`_fit_curves` (or CHSH's E) reduces the
tables to the result's fields; and :func:`_stamped` builds the one result
with its provenance, which checks itself.  A montecarlo sweep fits each step's
tables as a fringe scan's; an analytic one reports the closed form.
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
from .correlator import _central_counts
from .detection import _step_tags
from .errors import FitError, UndefinedCorrelationError
from .fitting import CosineFit, fit_cosine
from .interferometer import ensemble_local_fringe, local_intensities, local_visibility_oracle
from .interferometer import TWO_PI, sampled_cf
from .source import _sample

PORT_PAIRS = ((5, 5), (5, 6), (6, 5), (6, 6))
MODES = ("analytic", "montecarlo")

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

    def __post_init__(self):
        if np.any(np.diff(self.x) <= 0):
            raise AssertionError("scan grid must be strictly increasing")
        checks = [(self.visibility, self.visibility_err)]
        if "visibility" in self.columns:
            checks += zip(self.columns["visibility"], self.columns["visibility_err"])
        for vis, err in checks:  # the headline, then each step of a sweep
            # fit tolerance: a few standard errors beyond the physical range
            tol = 0.05 + 5.0 * (err if math.isfinite(err) else 0.0)
            if math.isfinite(vis) and not -tol <= vis <= 1.0 + tol:
                raise AssertionError(f"fitted visibility out of range: {vis}")

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

    def __post_init__(self):
        # |E| <= 1 for every setting pair bounds S by 4 in any theory
        for name, e_val in self.correlations.items():
            if not abs(e_val) <= 1.0 + 1e-12:
                raise AssertionError(f"correlation E({name}) outside [-1, 1]: {e_val}")

    def to_summary_dict(self) -> dict:
        return {"kind": "chsh", **asdict(self)}


def _stamped(cls, cfg: RunConfig, mode: str, warnings=(), **fields):
    """A ScanResult or ChshRun with its provenance.

    The provenance is the seed, the config hash, the mode, and the config's
    warnings ahead of the run's own; ``fields`` carries the rest, the pair
    count included.
    """
    return cls(
        seed=cfg.seed,
        config_hash=config_hash(cfg),
        mode=mode,
        warnings=[*cfg.warnings, *warnings],
        **fields,
    )


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


def _fringe_points(cfg: RunConfig, n_points: int) -> tuple[np.ndarray, list]:
    """A fringe scan's joint phases theta and their points (theta - psi, psi), psi B's phase."""
    theta, psi = _joint_phase_grid(n_points), cfg.umzi_b.phase
    return theta, [(th - psi, psi) for th in theta]


def _timing(cfg: RunConfig) -> RunConfig:
    """``cfg`` without what only the fringe term reads: pump linewidth and path overlaps."""
    umzis = {name: replace(getattr(cfg, name), gamma=1.0) for name in ("umzi_a", "umzi_b")}
    return replace(cfg, source=replace(cfg.source, pump_linewidth=0.0), **umzis)


def _central_tables(steps, mode, key, points, n_pairs, record=None) -> tuple[np.ndarray, list]:
    """The central tables of each step config at the (phase_a, phase_b)
    ``points``, stacked (n_steps, 2, 2, n_points), and the points' records.

    analytic mode gives the closed-form :func:`expected_rates` and draws
    nothing.  montecarlo steps may differ only in pump linewidth and path
    overlaps: point j of all of them is one draw from ``(*key, j)``, one
    detection and one match sweep, and per step only its detunings, fringe
    term and B ports, each step's table that of the tests' reference
    pipeline, ``conftest.simulate_point``.
    ``record(pairs, umzis, tags_a, tags_b)`` reads only point j (pairs,
    ``(cfg_a, cfg_b)`` and B streams one per step) and must keep none of it.
    """
    cfg = steps[0]
    if mode != "analytic" and any(_timing(step) != _timing(cfg) for step in steps):
        raise ValueError("sweep steps may differ only in pump linewidth and path overlaps")
    tables = np.zeros((len(steps), 2, 2, len(points)))
    records = []
    for j, (pa, pb) in enumerate(points):
        umzis = [(replace(s.umzi_a, phase=float(pa)), replace(s.umzi_b, phase=float(pb))) for s in steps]
        if mode == "analytic":
            tables[..., j] = [expected_rates(step.source, *umzi) for step, umzi in zip(steps, umzis)]
            continue
        pairs = _sample([step.source for step in steps], n_pairs, cfg.seed, (*key, j))
        tags_a, tags_b = _step_tags(pairs, umzis, cfg.detector, cfg.seed, (*key, j))
        tables[..., j] = _central_counts(tags_a, tags_b, cfg.correlator)
        if record is not None:
            records.append(record(pairs, umzis, tags_a, tags_b))
        del pairs, tags_a, tags_b  # before the next point draws its own
    return tables, records


def _fit_curves(port_x, mode, table, n_pairs, curves=None) -> tuple[dict, list[str]]:
    """Fit and package a scan's curves as ScanResult fields.

    The central ``table`` of ``n_pairs`` pairs per point gives the rates per
    pair and their standard errors: analytic rates are exact, and counts get
    Poisson errors floored at one count.  Fits each named (x, y) curve in
    ``curves``, then the four port-pair rate curves against ``port_x``
    weighted by their errors.  Returns the fields (rate and stderr columns,
    fits, and the port-55 fit as the headline visibility and phase) and one
    warning per fit that failed.
    """
    if mode == "analytic":
        rates, stderr = table, np.zeros(table.shape)
    else:
        rates, stderr = table / n_pairs, np.sqrt(np.maximum(table, 1.0)) / n_pairs
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
    n_pairs = cfg.scan.pairs_per_point
    theta, points = _fringe_points(cfg, cfg.scan.n_points)
    [table], _ = _central_tables([cfg], mode, (rng_mod.KIND_FRINGE,), points, n_pairs)
    fields, warnings = _fit_curves(theta, mode, table, n_pairs)
    scan = {"kind": "fringe-scan", "x_label": "joint_phase_rad", "x": theta, "pairs_per_point": n_pairs}
    return _stamped(ScanResult, cfg, mode, warnings, **scan, **fields)


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

    def read(pairs, umzis, tags_a, tags_b):  # the point's local intensities, then its singles
        sides = zip(umzis[0], (pairs[0].detuning_signal, pairs[0].detuning_idler))
        local = [local_intensities(TWO_PI * (f * u.t_sl) + u.phase, u.gamma)[0].mean() for u, f in sides]
        return local + [np.count_nonzero(tags.port == 5) / max(len(tags), 1) for tags in (tags_a, *tags_b)]

    grid = [(th, th) for th in theta]
    [table], records = _central_tables([cfg], "montecarlo", (rng_mod.KIND_LOCAL,), grid, n_pairs, read)
    local = dict(zip(("local_a", "local_b", "singles_a5", "singles_b5"), np.array(records).T.copy()))
    curves = {name: (theta, y) for name, y in local.items()}
    fields, fit_warnings = _fit_curves(2.0 * theta, "montecarlo", table, n_pairs, curves)
    columns = ("local_i5_a", "local_i5_b", "singles_a5_fraction", "singles_b5_fraction")
    fields["columns"].update(zip(columns, local.values()))
    fits = fields["fits"]
    extras = {f"visibility_{n.rstrip('5')}": fits[n].visibility if n in fits else math.nan for n in local}
    extras["visibility_nonlocal"] = fields.get("visibility", math.nan)
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


def _sweep(steps, scan, mode, kind, n_points, n_pairs, record=None) -> tuple:
    """The fringe visibility of each step config, its error, the warnings of
    the steps' fits, and the points' records.

    analytic mode gives gamma_A gamma_B :func:`fringe_damping` with zero
    errors and draws nothing; montecarlo mode fits each step's tables over
    ``n_points`` joint phases as a fringe scan's, point j of every step one
    pipeline drawn from ``(kind, j)`` and read by ``record``: each step is
    distributed as its own scan, but the steps share every draw, tag time and
    match.  A fit warning names its step by its value in ``scan["x"]``, one
    per step, after ``scan["x_label"]``.
    """
    if mode == "analytic":
        damped = [fringe_damping(step.source, step.umzi_a, step.umzi_b) for step in steps]
        vis = [fringe_visibility(d, step.umzi_a, step.umzi_b) for d, step in zip(damped, steps)]
        return np.array(vis), np.zeros(len(steps)), [], []
    theta, points = _fringe_points(steps[0], n_points)
    tables, records = _central_tables(steps, mode, (kind,), points, n_pairs, record)
    fits = [_fit_curves(theta, mode, table, n_pairs) for table in tables]
    warnings = [f"{scan['x_label']} = {x:g}: {w}" for x, (_, ws) in zip(scan["x"], fits) for w in ws]
    vis, err = ([f.get(name, math.nan) for f, _ in fits] for name in ("visibility", "visibility_err"))
    return np.array(vis), np.array(err), warnings, records


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
    ``TAU_POINTS``-point fringe scan whose point j, drawn from ``(KIND_TAU,
    j)``, all steps share; ``envelope_analytic`` is the analytic sweep.
    """
    _check_mode(mode)
    delta = cfg.source.delta
    offsets = np.array(TAU_OFFSETS_DELTA) / delta
    n_pairs = min(cfg.scan.pairs_per_point, 30_000)
    gammas = cfg.umzi_b.gamma * overlap_envelope(offsets, delta)
    steps = [replace(cfg, umzi_b=replace(cfg.umzi_b, gamma=float(g))) for g in gammas]
    scan = {"x_label": "tau_offset_s", "x": offsets}
    expected, *_ = _sweep(steps, scan, "analytic", rng_mod.KIND_TAU, TAU_POINTS, n_pairs)
    vis, err, warnings, _ = _sweep(steps, scan, mode, rng_mod.KIND_TAU, TAU_POINTS, n_pairs)
    return _stamped(
        ScanResult,
        cfg,
        mode,
        warnings,
        kind="tau-decay",
        **scan,
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

    Step k is the config at linewidth k, a :func:`_sweep` step whose point j
    all steps share, drawn from ``(KIND_PUMP, j)``.  analytic mode reports
    :func:`expected_rates`'s law, gamma_A gamma_B times :func:`fringe_damping`:
    ``cf_analytic`` times the detuning spread's factor, 1 on equal delays.
    montecarlo mode also reports ``cf_sampled``, the drawn jitters'
    empirical characteristic function at that lag (on equal delays the fit's
    exact target).
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

    def pool(pairs, umzis, tags_a, tags_b):  # each step's CF of the very jitters drawn
        return [sampled_cf(s.dp, 0.5 * (u_a.t_sl + u_b.t_sl)) for s, (u_a, u_b) in zip(pairs, umzis)]

    scan = {"x_label": "pump_linewidth_hz", "x": linewidths}
    vis, err, warnings, records = _sweep(steps, scan, mode, rng_mod.KIND_PUMP, n_points, n_pairs, pool)
    columns = {"visibility": vis, "visibility_err": err}
    columns["cf_analytic"] = fringe_visibility(cf_analytic, cfg.umzi_a, cfg.umzi_b)
    if mode == "montecarlo":  # analytic mode draws no pairs
        cf_sampled = np.abs(sum(np.array(records))) / n_points  # summed in point order
        columns["cf_sampled"] = fringe_visibility(cf_sampled, cfg.umzi_a, cfg.umzi_b)
    return _stamped(
        ScanResult,
        cfg,
        mode,
        warnings,
        kind="pump-sweep",
        **scan,
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
    [tables], _ = _central_tables([cfg], mode, (rng_mod.KIND_CHSH,), combinations.values(), n_pairs)
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
    if mode not in MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")
