"""Sinusoid fitting for fringe scans.

Fits y = c0 + c1 cos(x) + c2 sin(x) by linear least squares, which is robust
to Monte Carlo noise; the max/min visibility estimate is kept alongside for
transparency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError


@dataclass(frozen=True)
class CosineFit:
    """Result of fitting y = offset * (1 + visibility * cos(x + phase))."""

    offset: float
    phase: float
    visibility: float
    visibility_err: float
    residual_rms: float
    visibility_maxmin: float


def fit_cosine(x, y, sigma=None) -> CosineFit:
    """Least-squares cosine fit over one or more periods.

    sigma: optional per-point standard errors used both as weights and to
    propagate parameter uncertainties; without it, uncertainties are
    estimated from the fit residuals.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    design = np.column_stack([np.ones_like(x), np.cos(x), np.sin(x)])
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=np.float64)
        if not np.any(sigma > 0):
            sigma = None  # exact points: plain least squares
        else:
            # zero-error points get the smallest observed error as weight floor
            sigma = np.maximum(sigma, np.min(sigma[sigma > 0]))
    w = np.ones_like(x) if sigma is None else 1.0 / sigma  # unit weights are exact
    a_mat = design * w[:, None]
    b_vec = y * w
    gram = a_mat.T @ a_mat
    try:
        coef = np.linalg.solve(gram, a_mat.T @ b_vec)
        cov = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"singular normal equations in cosine fit: {exc}") from exc

    c0, c1, c2 = coef
    resid = y - design @ coef
    residual_rms = float(np.sqrt(np.mean(resid**2)))
    if sigma is None:
        dof = max(x.size - 3, 1)
        cov = cov * float(resid @ resid) / dof

    amplitude = math.hypot(c1, c2)
    phase = math.atan2(-c2, c1)
    if abs(c0) < 1e-300:
        raise FitError("fitted offset is zero; visibility undefined")
    visibility = amplitude / abs(c0)

    # First-order error propagation for V = |(c1, c2)| / c0.
    if amplitude > 0:
        grad = np.array(
            [-amplitude / c0**2, c1 / (amplitude * abs(c0)), c2 / (amplitude * abs(c0))]
        )
        var_v = float(grad @ cov @ grad)
    else:
        var_v = float(cov[1, 1] + cov[2, 2]) / c0**2
    span = float(np.max(y) + np.min(y))
    vis_maxmin = float((np.max(y) - np.min(y)) / span) if span > 0 else 0.0
    return CosineFit(
        offset=float(c0),
        phase=float(phase),
        visibility=float(visibility),
        visibility_err=math.sqrt(max(var_v, 0.0)),
        residual_rms=residual_rms,
        visibility_maxmin=vis_maxmin,
    )
