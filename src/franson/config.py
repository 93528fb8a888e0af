"""Run configuration: parsing, validation, defaults and hashing.

Configs are JSON with one object per module section.  The section
dataclasses are the schema: their fields are the keys and their defaults are
the defaults.  Unknown keys are rejected by name; every numeric invariant of
the domain types is checked at parse time and regime warnings (critical delay
condition, narrowband assumption) are collected into ``RunConfig.warnings``
for output metadata.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .correlator import CorrelatorConfig
from .detection import DetectorModel
from .errors import ConfigError
from .interferometer import UmziConfig, default_overlap, regime_flags
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

    def validate(self) -> list[str]:
        if self.n_points < 8:
            raise ValueError(f"scan.n_points must be >= 8, got {self.n_points}")
        if self.pairs_per_point < 1:
            raise ValueError(f"scan.pairs_per_point must be >= 1, got {self.pairs_per_point}")
        if len(self.chsh_settings) != 4:
            raise ValueError("scan.chsh_settings must hold exactly 4 phases")
        return []


@dataclass(frozen=True)
class RunConfig:
    source: SpectralModel
    umzi_a: UmziConfig
    umzi_b: UmziConfig
    detector: DetectorModel
    correlator: CorrelatorConfig
    scan: ScanConfig
    seed: int = 0
    schema_version: str = SCHEMA_VERSION
    warnings: tuple[str, ...] = field(default=(), compare=False)
    flags: dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        out = {"schema_version": self.schema_version, "seed": self.seed}
        for section in SECTIONS:
            obj = getattr(self, section)
            out[section] = {name: getattr(obj, name) for name in _keys(type(obj))}
        return out


# Each config section and the dataclass it builds; the dataclass defaults are
# the config defaults.
SECTIONS = {
    "source": SpectralModel,
    "umzi_a": UmziConfig,
    "umzi_b": UmziConfig,
    "detector": DetectorModel,
    "correlator": CorrelatorConfig,
    "scan": ScanConfig,
}
# The type of each field of each section, resolved once.
_FIELD_TYPES = {section: get_type_hints(cls) for section, cls in SECTIONS.items()}
# Fields derived from other sections, never read from a config.
DERIVED = ("side_offset_a", "side_offset_b")
# Fields a config may set to null to get their derived default.
_NULLABLE = ("gamma",)
# What each numeric field type accepts; never a bool, though bool is an int.
_NUMBER_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}


def _keys(cls) -> list[str]:
    return [f.name for f in fields(cls) if f.name not in DERIVED]


def _reject_unknown(section: str, given: dict, allowed: set[str]) -> None:
    for key in given:
        if key not in allowed:
            where = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown config key: {where!r}")


def _check_type(where: str, value, kind) -> None:
    """Reject a value that is not of its field's type: a bool or a string for
    a number, a non-integer for an int, or a non-list for a tuple of numbers;
    and a non-finite number (NaN, Infinity, or an overflow such as 1e400)."""
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        for item in value:
            _check_type(where, item, get_args(kind)[0])
        return
    if kind in _NUMBER_KINDS:
        cls, noun = _NUMBER_KINDS[kind]
        if isinstance(value, bool) or not isinstance(value, cls):
            raise ConfigError(f"{where} must be {noun}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where} must be finite, got {value!r}")


def _section(section: str, data: dict) -> dict:
    """The keys a config gives for one section, checked against its fields."""
    given = data.get(section, {})
    if not isinstance(given, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    _reject_unknown(section, given, set(_keys(SECTIONS[section])))
    for key, value in given.items():
        if not (value is None and key in _NULLABLE):
            _check_type(f"{section}.{key}", value, _FIELD_TYPES[section][key])
    return dict(given)


def config_from_dict(data: dict) -> RunConfig:
    """Build and validate a RunConfig from a plain dict (defaults applied)."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown("", data, {"schema_version", "seed", *SECTIONS})

    version = data.get("schema_version", SCHEMA_VERSION)
    if str(version) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION!r})")

    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**128:
        raise ConfigError(f"seed must be an integer in [0, 2**128), got {seed!r}")

    try:
        src = SpectralModel(**_section("source", data))
        det = DetectorModel(**_section("detector", data))
        scan_kwargs = _section("scan", data)
        if "chsh_settings" in scan_kwargs:
            scan_kwargs["chsh_settings"] = tuple(scan_kwargs["chsh_settings"])
        scan = ScanConfig(**scan_kwargs)

        umzis = {}
        for section, party in (("umzi_a", "A"), ("umzi_b", "B")):
            kwargs = _section(section, data)
            # gamma null or absent: the overlap of a photon delayed by t_sl
            gamma = kwargs.pop("gamma", None)
            umzi = UmziConfig(**kwargs)
            if gamma is None:
                gamma = default_overlap(umzi.t_sl, src.tau_ind)
            umzis[party] = replace(umzi, gamma=gamma)

        cor = CorrelatorConfig(
            **_section("correlator", data),
            side_offset_a=umzis["A"].t_sl,
            side_offset_b=umzis["B"].t_sl,
        )

        warnings: list[str] = []
        warnings += src.validate()
        warnings += det.validate()
        warnings += cor.validate()
        warnings += scan.validate()
        warnings += umzis["A"].validate()
        warnings += umzis["B"].validate()
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    flags = {
        "A": regime_flags(umzis["A"], src),
        "B": regime_flags(umzis["B"], src),
    }
    for party, f in flags.items():
        if not f["incoherent_ensemble"]:
            warnings.append(
                f"critical UMZI condition not satisfied at party {party}: "
                f"delta * t_sl = {src.delta * umzis[party].t_sl:g} <= 10 "
                "(local intensities will not be uniform)"
            )
        if not f["individually_coherent"]:
            warnings.append(
                f"critical UMZI condition not satisfied at party {party}: "
                f"t_sl = {umzis[party].t_sl:g} s is not small against the "
                f"individual coherence time {src.tau_ind:g} s"
            )
    if umzis["A"].t_sl != umzis["B"].t_sl:
        warnings.append(
            "interferometer delays differ between parties; the joint fringe "
            "is no longer detuning-immune"
        )

    return RunConfig(
        source=src,
        umzi_a=umzis["A"],
        umzi_b=umzis["B"],
        detector=det,
        correlator=cor,
        scan=scan,
        seed=seed,
        schema_version=SCHEMA_VERSION,
        warnings=tuple(warnings),
        flags=flags,
    )


def parse_config(text: str) -> RunConfig:
    """Parse JSON config text; errors carry line/column or the failing key."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(data)


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def default_config() -> RunConfig:
    return config_from_dict({})


def config_hash(cfg: RunConfig) -> str:
    """Stable hash of the resolved configuration (seed excluded, so replays
    with an overridden seed remain traceable to the same physics)."""
    payload = cfg.to_dict()
    payload.pop("seed")
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
