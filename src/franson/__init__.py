"""franson: Monte Carlo and analytic simulator of two-photon interference in
paired unbalanced Mach-Zehnder interferometers.

Photon pairs with anticorrelated detunings propagate through one
interferometer per party; locally each output port stays at half intensity,
while coincidence-selected events fringe as (1/8)(1 + cos(phi + psi)) in the
sum of the two local phase settings.  The package covers the analytic rate
algebra, stochastic time-tag generation, streaming coincidence correlation
and scripted experiment runners behind a CLI.
"""

__version__ = "0.1.0"

from .config import RunConfig, config_hash, default_config, load_config, parse_config
from .correlation import joint_phase, overlap_envelope
from .correlator import CoincidenceHistogram, CorrelatorConfig, correlate
from .detection import DetectorModel, TagStream, read_timetags, simulate_tags
from .errors import ConfigError, FitError, UndefinedCorrelationError
from .experiment import (
    ChshRun,
    ScanResult,
    run_chsh,
    run_crossover_sweep,
    run_fringe_scan,
    run_local_scan,
    run_pump_sweep,
    run_tau_decay,
)
from .interferometer import (
    UmziConfig,
    ensemble_local_fringe,
    local_intensities,
    local_visibility_oracle,
    regime_flags,
)
from .source import PairEnsemble, SpectralModel, sample_pairs

__all__ = [
    "__version__",
    "ChshRun",
    "CoincidenceHistogram",
    "ConfigError",
    "CorrelatorConfig",
    "DetectorModel",
    "FitError",
    "PairEnsemble",
    "RunConfig",
    "ScanResult",
    "SpectralModel",
    "TagStream",
    "UmziConfig",
    "UndefinedCorrelationError",
    "config_hash",
    "correlate",
    "default_config",
    "ensemble_local_fringe",
    "joint_phase",
    "load_config",
    "local_intensities",
    "local_visibility_oracle",
    "overlap_envelope",
    "parse_config",
    "read_timetags",
    "regime_flags",
    "run_chsh",
    "run_crossover_sweep",
    "run_fringe_scan",
    "run_local_scan",
    "run_pump_sweep",
    "run_tau_decay",
    "sample_pairs",
    "simulate_tags",
]
