"""Span tracing for the benchmark's traced run.

The tracer swaps timing wrappers into the module namespaces the real pipeline
resolves its calls from (``hireg.matching.compute_descriptors`` and so on),
runs the real ``register`` or training step, and puts the originals back.
Nothing is replayed: the spans are the program's own calls, timed at their
public boundaries.

Each span records its name, start, end, parent span and op id, plus exact
counts read from the call's arguments or return value. Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

from hireg.training import NegativeMode


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _balls(args, kwargs, result) -> dict:
    sizes = [len(ball) for ball in result]
    return {"neighbours": sum(sizes), "pairs": sum(m * (m - 1) for m in sizes)}


def _overlap_evals(args, kwargs, result) -> dict:
    return {"evals": len(args[0]) * len(args[1])}


def _shortfall(args, kwargs, result) -> dict:
    return {"shortfall": int(result.shortfall)}


def _pairs(args, kwargs, result) -> dict:
    return {"pairs": len(result)}


def _descriptor_level(args, kwargs) -> str:
    level = kwargs.get("level", args[1] if len(args) > 1 else None)
    return f"descriptors.{getattr(level, 'value', level)}"


def _circle_mode(args, kwargs) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else None)
    return f"training.circle_{NegativeMode(mode).value}"


# (module, attribute, span name or namer, counter). Attributes are looked up
# where the pipeline resolves them at call time; a missing one is reported,
# never fatal. RANSAC and the final weighted SVD have no public boundary
# inside ``register`` (wrapping ``weighted_svd`` would add a span to every
# RANSAC iteration), so their times come from ``RegistrationResult.timings_ms``.
HOOKS = (
    ("hireg.matching", "build_index", "cloud.build_index", None),
    ("hireg.training", "build_index", "cloud.build_index", None),
    ("hireg.cloud", "SpatialIndex.radius_batch", "cloud.radius", _balls),
    ("hireg.cloud", "SpatialIndex.knn_batch", "cloud.knn", None),
    ("hireg.matching", "estimate_normals", "descriptors.normals", None),
    ("hireg.matching", "compute_descriptors", _descriptor_level, None),
    ("hireg.matching", "score_saliency", "detectors.saliency", None),
    ("hireg.matching", "score_overlap_heuristic", "detectors.overlap", _overlap_evals),
    ("hireg.matching", "sample_keypoints", "detectors.keypoints", _shortfall),
    ("hireg.matching", "match_features", "matching.match_features", _pairs),
    ("hireg.matching", "local_cell_match", "matching.local_cell_match", _pairs),
    ("hireg.matching", "select_fine_subset", "matching.select_fine_subset", None),
    ("hireg.training", "build_sample_batch", "training.batch", None),
    ("hireg.training", "circle_loss", _circle_mode, None),
    ("hireg.training", "matchability_labels", "training.labels", None),
    ("hireg.training", "keypoint_rankings", "training.labels", None),
    ("hireg.training", "rating_loss", "training.rating", None),
    ("hireg.training", "overlap_labels", "training.overlap", None),
    ("hireg.training", "overlap_loss", "training.overlap", None),
    ("hireg.training", "total_loss", "training.total", None),
)


_INHERITED = object()


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value) or None when it cannot be found."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None or not callable(value) else (owner, attr, value)


class Tracer:
    """In-memory span recorder; wrappers exist only between install and remove."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            span = Span(label, tracer.op, tracer._stack[-1] if tracer._stack else None)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        self.missing = []
        for module_name, path, name, counter in HOOKS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr, fn = found
            self._saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
            setattr(owner, attr, self._wrap(fn, name, counter))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def self_times(self, op: int) -> list[tuple[Span, float]]:
        """(span, self seconds) for every span of one op."""
        ids = [i for i, span in enumerate(self.spans) if span.op == op]
        covered = {i: 0.0 for i in ids}
        for i in ids:
            span = self.spans[i]
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        return [(self.spans[i], self.spans[i].end - self.spans[i].start - covered[i])
                for i in ids]
