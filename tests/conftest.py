"""Shared helpers: the configuration used across the suite, and statistical bounds."""

import math
from statistics import NormalDist

import numpy as np

import franson as fr


def ideal_config(seed: int = 1, n_points: int = 16, pairs_per_point: int = 20_000) -> fr.RunConfig:
    """Default physics with perfect path overlap; unit-visibility fringe."""
    return fr.parse_config(
        """
        {
          "seed": %d,
          "umzi_a": {"t_sl": 100e-12, "phase": 0.0, "gamma": 1.0},
          "umzi_b": {"t_sl": 100e-12, "phase": 0.0, "gamma": 1.0},
          "scan": {"n_points": %d, "pairs_per_point": %d,
                   "chsh_settings": [0.0, 1.5707963267948966,
                                     -0.7853981633974483, 0.7853981633974483]}
        }
        """
        % (seed, n_points, pairs_per_point)
    )


def blinded(stream: fr.TagStream) -> fr.TagStream:
    """Copy of a tag stream with its diagnostic fields (branch, pair id) zeroed."""
    zeros = np.zeros(len(stream), dtype=np.int64)
    return fr.TagStream(stream.port, stream.time_ps, zeros, zeros)


def chi2_quantile(dof: int, alpha: float) -> float:
    """Upper-alpha quantile of chi^2 with dof degrees of freedom (Wilson-Hilferty)."""
    z = NormalDist().inv_cdf(1.0 - alpha)
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + z * math.sqrt(h)) ** 3
