"""Run configuration: parsing, defaults and hashing.

Configs are JSON with one object per module section.  The section
dataclasses are the schema: their fields are the keys and their defaults are
the defaults.  Unknown keys are rejected by name.  Each section checks its
own ranges when it is built, and ``RunConfig`` the checks that join two
values, so a config built by the parser or by ``replace`` is checked alike.
``RunConfig.warnings`` (the narrowband assumption, the critical delay
conditions, unequal delays) and ``RunConfig.flags`` are read off the
sections, for the products and stderr.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .correlator import CorrelatorConfig, _check_sides
from .detection import DetectorModel
from .errors import ConfigError
from .interferometer import INCOHERENT_ENSEMBLE_MIN, UmziConfig, default_overlap, regime_flags
from .source import SpectralModel

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class ScanConfig:
    """Experiment-runner knobs shared by all scan kinds."""

    n_points: int = 16
    pairs_per_point: int = 100_000
    chsh_settings: tuple[float, float, float, float] = (
        0.0,
        math.pi / 2,
        -math.pi / 4,
        math.pi / 4,
    )

    def __post_init__(self):
        if self.n_points < 8:
            raise ValueError(f"scan.n_points must be >= 8, got {self.n_points}")
        if self.pairs_per_point < 1:
            raise ValueError(f"scan.pairs_per_point must be >= 1, got {self.pairs_per_point}")
        if len(self.chsh_settings) != 4:
            raise ValueError("scan.chsh_settings must hold exactly 4 phases")


@dataclass(frozen=True)
class RunConfig:
    """A run's six sections and its seed; its warnings and flags are read off them."""

    source: SpectralModel
    umzi_a: UmziConfig
    umzi_b: UmziConfig
    detector: DetectorModel
    correlator: CorrelatorConfig
    scan: ScanConfig
    seed: int = 0

    def __post_init__(self):
        # the checks that join two values; each section has checked its own
        src = self.source
        if src.tau_ind * src.delta < 1.0:
            raise ConfigError(
                "source.tau_ind * delta must be >= 1 (individual coherence cannot be "
                f"shorter than the ensemble coherence), got {src.tau_ind * src.delta:g}"
            )
        try:
            _check_sides(self.correlator, (self.umzi_a.t_sl, self.umzi_b.t_sl))
        except ValueError as exc:
            raise _located("correlator", exc) from exc

    @property
    def flags(self) -> dict:
        """Each party's :func:`regime_flags`."""
        return {"A": regime_flags(self.umzi_a, self.source), "B": regime_flags(self.umzi_b, self.source)}

    @property
    def warnings(self) -> tuple[str, ...]:
        """The narrowband assumption and the peak-window overlap, then each
        party's unmet regime condition, then unequal delays."""
        src, t_sl = self.source, {"A": self.umzi_a.t_sl, "B": self.umzi_b.t_sl}
        found = []
        if src.delta >= 0.01 * src.f0:
            found.append(
                f"delta = {src.delta:g} Hz is not small against f0 = {src.f0:g} Hz "
                "(narrowband assumption delta < 0.01*f0 violated)"
            )
        found += _check_sides(self.correlator, (t_sl["A"], t_sl["B"]))
        for party, f in self.flags.items():
            unmet = f"critical UMZI condition not satisfied at party {party}:"
            if not f["incoherent_ensemble"]:
                product = f"delta * t_sl = {src.delta * t_sl[party]:g} <= {INCOHERENT_ENSEMBLE_MIN:g}"
                found.append(f"{unmet} {product} (local intensities will not be uniform)")
            if not f["individually_coherent"]:
                coherence = f"individual coherence time {src.tau_ind:g} s"
                found.append(f"{unmet} t_sl = {t_sl[party]:g} s is not small against the {coherence}")
        if t_sl["A"] != t_sl["B"]:
            found.append(
                "interferometer delays differ between parties; the joint fringe is no longer detuning-immune"
            )
        return tuple(found)

    def to_dict(self) -> dict:
        out = {"schema_version": SCHEMA_VERSION, "seed": self.seed}
        for section in SECTIONS:
            obj = getattr(self, section)
            out[section] = {f.name: getattr(obj, f.name) for f in fields(obj)}
        return out


# Each config section and the dataclass it builds, in the order the parser
# builds them, each checking itself (a defaulted gamma reads the source); their
# defaults are the config's.
SECTIONS = {
    "source": SpectralModel,
    "umzi_a": UmziConfig,
    "umzi_b": UmziConfig,
    "detector": DetectorModel,
    "scan": ScanConfig,
    "correlator": CorrelatorConfig,
}
# The type of each field of each section, resolved once.
_FIELD_TYPES = {section: get_type_hints(cls) for section, cls in SECTIONS.items()}
# Fields a config may set to null to get their derived default.
_NULLABLE = ("gamma",)
# What each numeric field type accepts; never a bool, though bool is an int.
_NUMBER_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}


def _reject_unknown(section: str, given: dict, allowed: set[str]) -> None:
    for key in given:
        if key not in allowed:
            where = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown config key: {where!r}")


def check_seed(seed, where: str = "seed") -> int:
    """A run seed: an integer in [0, 2**128), the range of the random streams'
    seeds; otherwise a ConfigError naming ``where``."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**128:
        raise ConfigError(f"{where} must be an integer in [0, 2**128), got {seed!r}")
    return seed


def _typed(where: str, value, kind):
    """``value`` as its field's type: a float field's number as a float (a JSON
    integer, say), so equal configs hash equal, and a list as a tuple.

    Rejects a value that is not of its field's type: a bool or a string for a
    number, a non-integer for an int, or a non-list for a tuple of numbers;
    and a float field's number that is not a finite double (NaN, Infinity, an
    overflow such as 1e400, or an integer past the largest double)."""
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return tuple(_typed(where, item, get_args(kind)[0]) for item in value)
    if kind in _NUMBER_KINDS:
        cls, noun = _NUMBER_KINDS[kind]
        if isinstance(value, bool) or not isinstance(value, cls):
            raise ConfigError(f"{where} must be {noun}, got {value!r}")
        if kind is float:
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer float() cannot hold
                finite = False
            if not finite:
                raise ConfigError(f"{where} must be finite, got {value!r}")
    return float(value) if kind is float else value


def _section(section: str, data: dict) -> dict:
    """The keys a config gives for one section, checked against its fields,
    each value :func:`_typed` (a null nullable one kept)."""
    given = data.get(section, {})
    if not isinstance(given, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    _reject_unknown(section, given, {f.name for f in fields(SECTIONS[section])})
    types = _FIELD_TYPES[section]
    return {
        key: value if value is None and key in _NULLABLE else _typed(f"{section}.{key}", value, types[key])
        for key, value in given.items()
    }


def _build(section: str, given: dict, built: dict) -> object:
    """One section's dataclass from its given keys, which checks itself.  A
    null or absent gamma is filled only from checked values: the section's
    t_sl and source.tau_ind."""
    kwargs = {key: value for key, value in given.items() if value is not None}
    obj = SECTIONS[section](**kwargs)
    if isinstance(obj, UmziConfig) and "gamma" not in kwargs:
        # the overlap of a photon delayed by t_sl
        obj = replace(obj, gamma=default_overlap(obj.t_sl, built["source"].tau_ind))
    return obj


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from a plain dict (defaults applied).

    Sections are built in ``SECTIONS`` order, each checking itself before the
    next is built, and then ``RunConfig`` checks source.tau_ind * delta and
    the correlator's reach to the side peaks; so the first fault reported is
    the first in that order, and every range error names its ``section.key``."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown("", data, {"schema_version", "seed", *SECTIONS})

    version = data.get("schema_version", SCHEMA_VERSION)
    if str(version) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION!r})")

    seed = check_seed(data.get("seed", 0))

    built: dict = {}
    for section in SECTIONS:
        given = _section(section, data)
        try:
            built[section] = _build(section, given, built)
        except (TypeError, ValueError) as exc:
            raise _located(section, exc) from exc
    return RunConfig(**built, seed=seed)


def _located(section: str, exc: Exception) -> ConfigError:
    """A section's fault as a ConfigError whose text starts ``section.``."""
    message = str(exc)
    if not message.startswith(f"{section}."):
        message = f"{section}.{message}"
    return ConfigError(message)


def parse_config(text: str) -> RunConfig:
    """Parse JSON config text; errors carry line/column or the failing key."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"config parse error: {exc}") from exc
    return config_from_dict(data)


def load_config(path) -> RunConfig:
    """Read and parse a config file; a ConfigError names the file."""
    try:
        return parse_config(Path(path).read_text(encoding="utf-8"))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def default_config() -> RunConfig:
    return config_from_dict({})


def config_hash(cfg: RunConfig) -> str:
    """Stable hash of the resolved configuration (seed excluded, so replays
    with an overridden seed remain traceable to the same physics)."""
    payload = cfg.to_dict()
    payload.pop("seed")
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
