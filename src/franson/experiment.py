"""Scripted experiment runners.

Each runner scans one knob, collects per-point rates with Monte Carlo
standard errors, fits the fringe and returns a ScanResult that serializes to
CSV and a JSON summary.  Every scan point draws from an independent random
substream keyed by (seed, run kind, point index), so reruns are bit-identical
and points are uncorrelated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rng_mod
from .config import RunConfig, config_hash
from .correlation import (
    ensemble_fringe,
    chsh_value,
    correlation_coefficient,
    overlap_envelope,
    stream_for_setting,
)
from .correlator import CoincidenceHistogram, correlate
from .detection import TagStream, simulate_tags
from .errors import FitError, UndefinedCorrelationError
from .fitting import CosineFit, fit_cosine
from .interferometer import ensemble_local_fringe, local_intensities, local_visibility_oracle
from .source import PairEnsemble, sample_pairs

TWO_PI = 2.0 * math.pi

PORT_PAIRS = ((5, 5), (5, 6), (6, 5), (6, 6))


def wrap_phase(x: float) -> float:
    """Wrap to (-pi, pi]."""
    return float(-((-x + math.pi) % TWO_PI - math.pi))


def _stream(kind: int, point: int) -> int:
    return kind * 10_000 + point


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


def _joint_phase_grid(cfg: RunConfig, n_points: int | None = None) -> np.ndarray:
    n = n_points or cfg.scan.n_points
    return np.linspace(0.0, TWO_PI, n, endpoint=False)


def simulate_point(
    cfg: RunConfig,
    stream: int,
    n_pairs: int,
    phase_a: float,
    phase_b: float,
    envelope: float = 1.0,
    extra_delay_b: float = 0.0,
    center: float = 0.0,
) -> tuple[PairEnsemble, TagStream, TagStream, CoincidenceHistogram]:
    """Full source -> detection -> correlator pipeline for one scan point."""
    cfg_a = replace(cfg.umzi_a, phase=float(phase_a))
    cfg_b = replace(cfg.umzi_b, phase=float(phase_b))
    pairs = sample_pairs(cfg.source, n_pairs, cfg.seed, stream=stream)
    tags_a, tags_b = simulate_tags(
        pairs,
        cfg_a,
        cfg_b,
        cfg.detector,
        cfg.seed,
        stream=stream,
        envelope=envelope,
        extra_delay_b=extra_delay_b,
    )
    hist = correlate(tags_a, tags_b, cfg.correlator, center=center)
    return pairs, tags_a, tags_b, hist


def _central_rate_columns(theta, rates, sigmas):
    columns = {}
    for (pa, pb) in PORT_PAIRS:
        columns[f"rate_{pa}{pb}"] = rates[(pa, pb)]
        columns[f"stderr_{pa}{pb}"] = sigmas[(pa, pb)]
    return columns


def _fit_port_pairs(theta, rates, sigmas):
    fits = {}
    fit_warnings = []
    for (pa, pb) in PORT_PAIRS:
        name = f"{pa}{pb}"
        try:
            fits[name] = fit_cosine(theta, rates[(pa, pb)], sigma=sigmas[(pa, pb)])
        except FitError as exc:
            fit_warnings.append(f"fit failed for port pair {name}: {exc}")
    return fits, fit_warnings


def run_fringe_scan(
    cfg: RunConfig,
    mode: str = "analytic",
    n_points: int | None = None,
    pairs_per_point: int | None = None,
    envelope: float = 1.0,
    kind_tag: int = rng_mod.KIND_FRINGE,
    extra_delay_b: float = 0.0,
    center: float = 0.0,
) -> ScanResult:
    """Central-peak rate per port pair against the joint phase phi + psi.

    analytic mode evaluates the coincidence algebra over a sampled ensemble;
    montecarlo mode runs the full tag pipeline and counts window totals.  Both
    fold the path overlaps gamma_A * gamma_B into the fringe envelope.
    """
    _check_mode(mode)
    theta = _joint_phase_grid(cfg, n_points)
    n_pairs = pairs_per_point or cfg.scan.pairs_per_point
    psi = cfg.umzi_b.phase
    gamma2 = cfg.umzi_a.gamma * cfg.umzi_b.gamma
    rates = {pp: np.zeros(theta.size) for pp in PORT_PAIRS}
    sigmas = {pp: np.zeros(theta.size) for pp in PORT_PAIRS}

    for k, th in enumerate(theta):
        phase_a = th - psi
        stream = _stream(kind_tag, k)
        if mode == "analytic":
            fringe = ensemble_fringe(
                cfg.source,
                replace(cfg.umzi_a, phase=float(phase_a)),
                cfg.umzi_b,
                n_pairs,
                seed=cfg.seed,
                stream=stream,
                envelope=envelope * gamma2,
            )
            for (pa, pb) in PORT_PAIRS:
                rates[(pa, pb)][k] = fringe.rate(pa, pb)
                sigmas[(pa, pb)][k] = fringe.stderr[pa - 5, pb - 5]
        else:
            _, _, _, hist = simulate_point(
                cfg,
                stream,
                n_pairs,
                phase_a,
                psi,
                envelope=envelope,
                extra_delay_b=extra_delay_b,
                center=center,
            )
            for (pa, pb) in PORT_PAIRS:
                count = hist.central[pa - 5, pb - 5]
                rates[(pa, pb)][k] = count / n_pairs
                sigmas[(pa, pb)][k] = math.sqrt(max(count, 1.0)) / n_pairs

    fits, fit_warnings = _fit_port_pairs(theta, rates, sigmas)
    primary = fits.get("55")
    result = ScanResult(
        kind="fringe-scan",
        x_label="joint_phase_rad",
        x=theta,
        columns=_central_rate_columns(theta, rates, sigmas),
        fits=fits,
        visibility=primary.visibility if primary else math.nan,
        visibility_err=primary.visibility_err if primary else math.nan,
        phase_offset=wrap_phase(primary.phase) if primary else math.nan,
        seed=cfg.seed,
        config_hash=config_hash(cfg),
        mode=mode,
        pairs_per_point=n_pairs,
        warnings=list(cfg.warnings) + fit_warnings,
    )
    result.validate()
    return result


def run_local_scan(
    cfg: RunConfig,
    n_points: int | None = None,
    pairs_per_point: int | None = None,
) -> ScanResult:
    """Scan both local phases together: flat local intensities, fringing
    coincidences.

    Local port-5 intensities are the ensemble means of the single-photon
    interference at each party; the nonlocal curve is counted from the very
    same simulated tag streams (joint phase 2*theta), and the tag-stream
    singles fractions are reported alongside as a cross-check.
    """
    theta = _joint_phase_grid(cfg, n_points)
    n_pairs = pairs_per_point or cfg.scan.pairs_per_point
    model = cfg.source
    local_a = np.zeros(theta.size)
    local_b = np.zeros(theta.size)
    singles_a5 = np.zeros(theta.size)
    singles_b5 = np.zeros(theta.size)
    rates = {pp: np.zeros(theta.size) for pp in PORT_PAIRS}
    sigmas = {pp: np.zeros(theta.size) for pp in PORT_PAIRS}

    for k, th in enumerate(theta):
        stream = _stream(rng_mod.KIND_LOCAL, k)
        pairs, tags_a, tags_b, hist = simulate_point(cfg, stream, n_pairs, th, th)
        angle_a = TWO_PI * (pairs.detuning_signal * cfg.umzi_a.t_sl) + th
        angle_b = TWO_PI * (pairs.detuning_idler * cfg.umzi_b.t_sl) + th
        local_a[k] = local_intensities(angle_a, cfg.umzi_a.gamma)[0].mean()
        local_b[k] = local_intensities(angle_b, cfg.umzi_b.gamma)[0].mean()
        counts_a = tags_a.port_counts()
        counts_b = tags_b.port_counts()
        singles_a5[k] = counts_a[5] / max(counts_a[5] + counts_a[6], 1)
        singles_b5[k] = counts_b[5] / max(counts_b[5] + counts_b[6], 1)
        for (pa, pb) in PORT_PAIRS:
            count = hist.central[pa - 5, pb - 5]
            rates[(pa, pb)][k] = count / n_pairs
            sigmas[(pa, pb)][k] = math.sqrt(max(count, 1.0)) / n_pairs

    nonlocal_x = 2.0 * theta
    fits = {}
    fit_warnings: list[str] = []
    for name, ys in (("local_a", local_a), ("local_b", local_b)):
        try:
            fits[name] = fit_cosine(theta, ys)
        except FitError as exc:
            fit_warnings.append(f"fit failed for {name}: {exc}")
    for name, ys in (("singles_a5", singles_a5), ("singles_b5", singles_b5)):
        try:
            fits[name] = fit_cosine(theta, ys)
        except FitError as exc:
            fit_warnings.append(f"fit failed for {name}: {exc}")
    for (pa, pb) in PORT_PAIRS:
        name = f"{pa}{pb}"
        try:
            fits[name] = fit_cosine(nonlocal_x, rates[(pa, pb)], sigma=sigmas[(pa, pb)])
        except FitError as exc:
            fit_warnings.append(f"fit failed for port pair {name}: {exc}")

    columns = _central_rate_columns(theta, rates, sigmas)
    columns["local_i5_a"] = local_a
    columns["local_i5_b"] = local_b
    columns["singles_a5_fraction"] = singles_a5
    columns["singles_b5_fraction"] = singles_b5

    nonlocal_fit = fits.get("55")
    result = ScanResult(
        kind="local-scan",
        x_label="phase_rad",
        x=theta,
        columns=columns,
        fits=fits,
        visibility=nonlocal_fit.visibility if nonlocal_fit else math.nan,
        visibility_err=nonlocal_fit.visibility_err if nonlocal_fit else math.nan,
        phase_offset=wrap_phase(nonlocal_fit.phase) if nonlocal_fit else math.nan,
        extras={
            "visibility_local_a": fits["local_a"].visibility if "local_a" in fits else math.nan,
            "visibility_local_b": fits["local_b"].visibility if "local_b" in fits else math.nan,
            "visibility_singles_a": fits["singles_a5"].visibility if "singles_a5" in fits else math.nan,
            "visibility_singles_b": fits["singles_b5"].visibility if "singles_b5" in fits else math.nan,
            "visibility_nonlocal": nonlocal_fit.visibility if nonlocal_fit else math.nan,
        },
        seed=cfg.seed,
        config_hash=config_hash(cfg),
        mode="montecarlo",
        pairs_per_point=n_pairs,
        warnings=list(cfg.warnings) + fit_warnings,
    )
    result.validate()
    return result


def run_crossover_sweep(
    cfg: RunConfig,
    grid: np.ndarray | None = None,
    pairs_per_point: int | None = None,
    n_phases: int = 16,
) -> ScanResult:
    """Local visibility against delta * t_sl, with the closed-form Gaussian
    characteristic-function curve alongside."""
    if grid is None:
        grid = np.geomspace(0.01, 100.0, 10)
    grid = np.asarray(grid, dtype=np.float64)
    n_pairs = pairs_per_point or min(cfg.scan.pairs_per_point, 50_000)
    t_sl = cfg.umzi_a.t_sl
    phases = np.linspace(0.0, TWO_PI, n_phases, endpoint=False)
    vis = np.zeros(grid.size)
    oracle = np.zeros(grid.size)
    for k, x in enumerate(grid):
        model = replace(cfg.source, delta=x / t_sl)
        fringe = ensemble_local_fringe(
            model,
            cfg.umzi_a,
            phases,
            n_pairs=n_pairs,
            seed=cfg.seed,
            stream=_stream(rng_mod.KIND_CROSSOVER, k),
        )
        vis[k] = fringe.visibility
        oracle[k] = cfg.umzi_a.gamma * local_visibility_oracle(model.delta, t_sl)

    result = ScanResult(
        kind="crossover",
        x_label="delta_t_sl",
        x=grid,
        columns={"visibility_local": vis, "visibility_oracle": oracle},
        visibility=float(vis[-1]),
        extras={"max_abs_deviation": float(np.max(np.abs(vis - oracle)))},
        seed=cfg.seed,
        config_hash=config_hash(cfg),
        mode="montecarlo",
        pairs_per_point=n_pairs,
        warnings=list(cfg.warnings),
    )
    result.validate()
    return result


def run_tau_decay(
    cfg: RunConfig,
    offsets: np.ndarray | None = None,
    mode: str = "montecarlo",
    n_points: int = 12,
    pairs_per_point: int | None = None,
) -> ScanResult:
    """Nonlocal visibility against an imposed coincidence offset tau.

    The offset displaces party B's wavepackets by tau (extra delay before
    detection); the coincidence window follows the displaced central peak and
    the pair-overlap envelope suppresses the fringe on the 1/delta scale.
    """
    _check_mode(mode)
    delta = cfg.source.delta
    if offsets is None:
        offsets = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]) / delta
    offsets = np.asarray(offsets, dtype=np.float64)
    n_pairs = pairs_per_point or min(cfg.scan.pairs_per_point, 30_000)
    gamma2 = cfg.umzi_a.gamma * cfg.umzi_b.gamma
    envelope = overlap_envelope(offsets, delta)
    vis = np.zeros(offsets.size)
    err = np.zeros(offsets.size)
    for k, (tau, env) in enumerate(zip(offsets, envelope)):
        if mode == "analytic":
            vis[k] = gamma2 * env
            continue
        sub = run_fringe_scan(
            cfg,
            mode="montecarlo",
            n_points=n_points,
            pairs_per_point=n_pairs,
            envelope=float(env),
            kind_tag=rng_mod.KIND_TAU * 100 + k,
            extra_delay_b=float(tau),
            center=-float(tau),
        )
        vis[k] = sub.visibility
        err[k] = sub.visibility_err

    result = ScanResult(
        kind="tau-decay",
        x_label="tau_offset_s",
        x=offsets,
        columns={
            "visibility": vis,
            "visibility_err": err,
            "envelope_analytic": gamma2 * envelope,
        },
        visibility=float(vis[0]),
        visibility_err=float(err[0]),
        extras={"half_visibility_scale_s": float(0.6 / delta)},
        seed=cfg.seed,
        config_hash=config_hash(cfg),
        mode=mode,
        pairs_per_point=n_pairs,
        warnings=list(cfg.warnings),
    )
    result.validate()
    return result


def run_pump_sweep(
    cfg: RunConfig,
    linewidths: np.ndarray | None = None,
    mode: str = "montecarlo",
    n_points: int = 16,
    pairs_per_point: int | None = None,
) -> ScanResult:
    """Nonlocal visibility against the pump linewidth.

    Reports the empirical characteristic function of the actually sampled
    pump jitters at lag t_sl (the exact target of the fit) and the
    closed-form Gaussian curve.
    """
    _check_mode(mode)
    t_sl = cfg.umzi_a.t_sl
    if linewidths is None:
        linewidths = np.array([0.0, 0.25, 0.5, 0.75, 1.0]) / t_sl
    linewidths = np.asarray(linewidths, dtype=np.float64)
    n_pairs = pairs_per_point or min(cfg.scan.pairs_per_point, 20_000)

    vis = np.zeros(linewidths.size)
    err = np.zeros(linewidths.size)
    cf_sampled = np.zeros(linewidths.size)
    cf_analytic = np.zeros(linewidths.size)
    for k, lw in enumerate(linewidths):
        model = replace(cfg.source, pump_linewidth=float(lw))
        sub_cfg = replace(cfg, source=model)
        kind_tag = rng_mod.KIND_PUMP * 100 + k
        sub = run_fringe_scan(
            sub_cfg, mode=mode, n_points=n_points, pairs_per_point=n_pairs, kind_tag=kind_tag
        )
        vis[k] = sub.visibility
        err[k] = sub.visibility_err
        # Pooled empirical CF of the same substreams the scan consumed.
        acc = 0.0 + 0.0j
        for point in range(n_points):
            pairs = sample_pairs(model, n_pairs, cfg.seed, stream=_stream(kind_tag, point))
            acc += np.exp(1j * TWO_PI * pairs.dp * t_sl).mean()
        cf_sampled[k] = abs(acc) / n_points
        cf_analytic[k] = local_visibility_oracle(float(lw), t_sl)

    gamma2 = cfg.umzi_a.gamma * cfg.umzi_b.gamma
    result = ScanResult(
        kind="pump-sweep",
        x_label="pump_linewidth_hz",
        x=linewidths,
        columns={
            "visibility": vis,
            "visibility_err": err,
            "cf_sampled": gamma2 * cf_sampled,
            "cf_analytic": gamma2 * cf_analytic,
        },
        visibility=float(vis[0]),
        visibility_err=float(err[0]),
        seed=cfg.seed,
        config_hash=config_hash(cfg),
        mode=mode,
        pairs_per_point=n_pairs,
        warnings=list(cfg.warnings),
    )
    result.validate()
    return result


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


def run_chsh(cfg: RunConfig, mode: str = "analytic", pairs_per_setting: int | None = None) -> ChshRun:
    """Four-setting CHSH sum; S = 2*sqrt(2) for the ideal configuration."""
    _check_mode(mode)
    settings = cfg.scan.chsh_settings
    n_pairs = pairs_per_setting or cfg.scan.pairs_per_point
    if mode == "analytic":
        res = chsh_value(
            cfg.source,
            cfg.umzi_a,
            cfg.umzi_b,
            settings,
            n_pairs=n_pairs,
            seed=cfg.seed,
            envelope=cfg.umzi_a.gamma * cfg.umzi_b.gamma,
        )
        return ChshRun(
            s_value=res.s_value,
            s_err=0.0,
            correlations=res.correlations,
            settings=settings,
            mode=mode,
            seed=cfg.seed,
            config_hash=config_hash(cfg),
            pairs_per_setting=n_pairs,
            warnings=list(cfg.warnings),
        )

    a, a_prime, b, b_prime = settings
    combos = {"ab": (a, b), "ab'": (a, b_prime), "a'b": (a_prime, b), "a'b'": (a_prime, b_prime)}
    corr = {}
    var_sum = 0.0
    for k, (name, (pa, pb)) in enumerate(combos.items()):
        stream = _stream(rng_mod.KIND_CHSH, stream_for_setting(k))
        _, _, _, hist = simulate_point(cfg, stream, n_pairs, pa, pb)
        counts = hist.central.astype(np.float64)
        total = counts.sum()
        if total <= 0:
            raise UndefinedCorrelationError(
                f"no central coincidences for setting combination {name}"
            )
        e_val = correlation_coefficient(counts)
        corr[name] = e_val
        var_sum += max(1.0 - e_val**2, 1.0 / total) / total
    s_value = abs(corr["ab"] + corr["ab'"] + corr["a'b"] - corr["a'b'"])
    return ChshRun(
        s_value=s_value,
        s_err=math.sqrt(var_sum),
        correlations=corr,
        settings=settings,
        mode=mode,
        seed=cfg.seed,
        config_hash=config_hash(cfg),
        pairs_per_setting=n_pairs,
        warnings=list(cfg.warnings),
    )


def _check_mode(mode: str) -> None:
    if mode not in ("analytic", "montecarlo"):
        raise ValueError(f"mode must be 'analytic' or 'montecarlo', got {mode!r}")
