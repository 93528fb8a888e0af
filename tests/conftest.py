"""Shared helpers: the configuration used across the suite, the reference
tag pipeline of one scan point, and statistical bounds."""

import math
from dataclasses import replace
from statistics import NormalDist

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


def simulate_point(cfg: fr.RunConfig, stream, n_pairs: int, phase_a: float, phase_b: float):
    """Full source -> detection -> correlator pipeline for one scan point, in
    the three public calls: its pairs, tag streams A and B, and histogram.
    ``stream`` is the point's key path; source and detection draw from its
    two role substreams."""
    cfg_a = replace(cfg.umzi_a, phase=float(phase_a))
    cfg_b = replace(cfg.umzi_b, phase=float(phase_b))
    pairs = fr.sample_pairs(cfg.source, n_pairs, cfg.seed, stream=stream)
    tags_a, tags_b = fr.simulate_tags(pairs, cfg_a, cfg_b, cfg.detector, cfg.seed, stream=stream)
    return pairs, tags_a, tags_b, fr.correlate(tags_a, tags_b, cfg.correlator)


def chi2_quantile(dof: int, alpha: float) -> float:
    """Upper-alpha quantile of chi^2 with dof degrees of freedom (Wilson-Hilferty)."""
    z = NormalDist().inv_cdf(1.0 - alpha)
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + z * math.sqrt(h)) ** 3
