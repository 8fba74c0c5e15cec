"""Run configuration: one nested document holding the knobs that ``register``,
``labels`` and ``bench`` read.

Configs round-trip exactly through dict/JSON (parse -> serialize -> parse is
identity). Unknown keys are rejected so typos fail loudly, and so is a value
whose type is not the field's: a bool is no number, and a JSON int is
accepted for a float field. A float field takes only finite numbers, so
``Infinity``, ``NaN`` and ``1e999`` are rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

from .descriptors import DescriptorParams
from .errors import ValidationError
from .io import load_json
from .matching import RansacParams
from .training import SamplingRadii


@dataclass(frozen=True)
class DetectorParams:
    """Saliency neighborhood size plus coarse/fine sampling budgets."""

    saliency_k: int = 24
    coarse_samples: int = 500
    fine_samples: int = 1000

    def __post_init__(self):
        if self.saliency_k < 2:
            raise ValidationError("saliency_k must be >= 2")
        if self.coarse_samples < 1 or self.fine_samples < 1:
            raise ValidationError("sample counts must be >= 1")


@dataclass(frozen=True)
class MatchingParams:
    """Fine matching keeps the top fraction of cell pairs; cells themselves are
    rows of the low-level neighbour graph, at ``descriptor.low_radius``."""

    top_fraction: float = 0.5

    def __post_init__(self):
        if not 0 < self.top_fraction <= 1:
            raise ValidationError("top_fraction must be in (0, 1]")


@dataclass(frozen=True)
class MetricParams:
    rre_max_deg: float = 5.0
    rte_max_m: float = 2.0
    inlier_tau: float = 0.1
    fmr_threshold: float = 0.05
    repeatability_radius: float = 0.1

    def __post_init__(self):
        for name in ("rre_max_deg", "rte_max_m", "inlier_tau", "repeatability_radius"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive")
        if not 0 <= self.fmr_threshold < 1:
            raise ValidationError("fmr_threshold must lie in [0, 1)")


@dataclass(frozen=True)
class RunConfig:
    """The pipeline's hyperparameters, grouped by module. RANSAC draws from
    ``seed + 3``, keypoint sampling from ``seed + 1`` and ``seed + 2``."""

    descriptor: DescriptorParams = field(default_factory=DescriptorParams)
    sampling: SamplingRadii = field(default_factory=SamplingRadii)
    detector: DetectorParams = field(default_factory=DetectorParams)
    ransac: RansacParams = field(default_factory=RansacParams)
    matching: MatchingParams = field(default_factory=MatchingParams)
    metrics: MetricParams = field(default_factory=MetricParams)
    anchors: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.anchors < 1:
            raise ValidationError("anchors must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        return _build(RunConfig, data, context="config")


def _build(cls, data: dict, context: str):
    if not isinstance(data, dict):
        raise ValidationError(f"{context}: expected a mapping, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"{context}: unknown keys {sorted(map(str, unknown))}")
    types = get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        if is_dataclass(types[key]):
            kwargs[key] = _build(types[key], value, context=f"{context}.{key}")
        else:
            kwargs[key] = _scalar(value, types[key], context=f"{context}.{key}")
    return cls(**kwargs)


def _scalar(value, expected: type, context: str):
    accepted = (int, float) if expected is float else (expected,)
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValidationError(
            f"{context}: expected {expected.__name__}, got {type(value).__name__}")
    if expected is not float:
        return value
    try:
        number = float(value)
    except OverflowError as exc:
        raise ValidationError(f"{context}: {exc}") from exc
    if not math.isfinite(number):
        raise ValidationError(f"{context}: expected a finite number, got {number}")
    return number


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(load_json(path))


def save_config(path, config: RunConfig) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2) + "\n")
