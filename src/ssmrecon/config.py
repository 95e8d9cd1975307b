"""Pipeline configuration: one JSON document, keys namespaced by module.

Unknown keys anywhere are errors so typos cannot silently fall back to
defaults. Relative paths are resolved against the config file's directory.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DataError
from .regressor import TrainConfig
from .slicer import check_protocol
from .synth import SynthConfig


@dataclass(frozen=True)
class PathsConfig:
    population_dir: str = "population"
    ssm: str = "out/model"
    weights: str = "out/weights"
    masks_dir: str = "out/masks"
    output_dir: str = "out"


@dataclass(frozen=True)
class SsmSection:
    components: int = 50

    def __post_init__(self):
        if self.components < 1:
            raise ConfigError("ssm.components must be >= 1")


@dataclass(frozen=True)
class SlicerSection:
    offsets: tuple = (0.35, 0.50, 0.65)
    resolution: int = 192

    def __post_init__(self):
        object.__setattr__(self, "offsets", check_protocol(self.offsets, self.resolution))


@dataclass(frozen=True)
class SplitSection:
    train_fraction: float = 0.74  # mirrors a 99-train / 35-test style allocation
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError("split.train_fraction must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class EvaluateSection:
    samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ConfigError("evaluate.samples must be >= 1")


@dataclass(frozen=True)
class PipelineConfig:
    paths: PathsConfig
    synth: SynthConfig
    ssm: SsmSection
    slicer: SlicerSection
    train: TrainConfig
    split: SplitSection
    evaluate: EvaluateSection
    base_dir: Path

    def resolve(self, relpath: str) -> Path:
        p = Path(relpath)
        return p if p.is_absolute() else self.base_dir / p

    @property
    def population_dir(self) -> Path:
        return self.resolve(self.paths.population_dir)

    @property
    def ssm_stem(self) -> Path:
        return self.resolve(self.paths.ssm)

    @property
    def weights_stem(self) -> Path:
        return self.resolve(self.paths.weights)

    @property
    def masks_dir(self) -> Path:
        return self.resolve(self.paths.masks_dir)

    @property
    def output_dir(self) -> Path:
        return self.resolve(self.paths.output_dir)


# section name -> section class, in field order; every field but base_dir is a section
_SECTIONS = {name: cls for name, cls in typing.get_type_hints(PipelineConfig).items() if name != "base_dir"}


def _build_section(name: str, cls, payload: dict):
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(payload) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key(s) in section {name!r}: {', '.join(sorted(unknown))}")
    converted = {}
    for key, value in payload.items():
        default = defaults[key]
        if isinstance(default, tuple):
            if not isinstance(value, list):
                raise ConfigError(f"bad value in section {name!r}: {key} must be a list, got {value!r}")
            kind, items = type(default[0]), value  # each element takes the type of the default's elements
        else:
            kind, items = type(default), [value]
        if kind in (int, float, str):
            # a value takes its default's type; an int may stand for a float, a bool for nothing
            allowed = (int, float) if kind is float else kind
            for item in items:
                if not isinstance(item, allowed) or isinstance(item, bool):
                    raise ConfigError(f"bad value in section {name!r}: {key} must be {kind.__name__}, got {item!r}")
                # every integer is a count, a size, a level or a seed
                if kind is int and item < 0:
                    raise ConfigError(f"bad value in section {name!r}: {key} must not be negative, got {item!r}")
                # NaN, an infinity and an integer past the float range all fail this comparison
                if kind is float and not abs(item) <= sys.float_info.max:
                    raise ConfigError(f"bad value in section {name!r}: {key} must be finite, got {item!r}")
        if isinstance(value, list):
            value = tuple(value)
        converted[key] = value
    try:
        return cls(**converted)
    except (DataError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in section {name!r}: {exc}") from exc


def config_from_dict(doc: dict, base_dir: Path) -> PipelineConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    sections = {}
    for name, cls in _SECTIONS.items():
        payload = doc.get(name, {})
        if not isinstance(payload, dict):
            raise ConfigError(f"section {name!r} must be a JSON object")
        sections[name] = _build_section(name, cls, payload)
    return PipelineConfig(base_dir=base_dir, **sections)


def load_config(path) -> PipelineConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc, path.resolve().parent)
