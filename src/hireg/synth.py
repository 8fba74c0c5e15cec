"""Synthetic desk-scale scenes with known ground-truth alignment.

A scene is sampled on plane/box/room surfaces; the target cloud is a cropped,
noised, rigidly transformed copy of the source with optional outliers, so
every generated pair carries exact per-point overlap ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .cloud import PointCloud, RigidTransform, build_index, transform_points
from .errors import GenerationError, ValidationError

_SHAPES = ("plane", "box", "room")
_MAX_CROP_ATTEMPTS = 100
_OVERLAP_SLACK = 0.05


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one synthetic registration pair.

    ``overlap`` is the target fraction of source points that survive into the
    target (verified within +/- 5% by direct measurement at
    ``overlap_radius``). A ``transform`` of None draws a random rigid motion
    from the seed, which must be a nonnegative integer. The four float fields
    take real numbers; ``True`` and strings are rejected.
    """

    shape: str = "room"
    n_points: int = 5000
    overlap: float = 0.7
    noise_sigma: float = 0.005
    outlier_fraction: float = 0.0
    seed: int = 0
    transform: RigidTransform | None = None
    overlap_radius: float = 0.0375

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValidationError(f"shape must be one of {_SHAPES}")
        for name in ("n_points", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        for name in ("overlap", "noise_sigma", "outlier_fraction", "overlap_radius"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValidationError(f"{name} must be a number, got {value!r}")
        if self.n_points < 1:
            raise ValidationError("n_points must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.transform is not None and not isinstance(self.transform, RigidTransform):
            raise ValidationError(f"transform must be None or a RigidTransform, "
                                  f"got {type(self.transform).__name__}")
        if not 0 <= self.overlap <= 1:
            raise ValidationError("overlap must lie in [0, 1]")
        if not self.noise_sigma >= 0:
            raise ValidationError("noise_sigma must be >= 0")
        if not 0 <= self.outlier_fraction <= 1:
            raise ValidationError("outlier_fraction must lie in [0, 1]")
        if not self.overlap_radius > 0:
            raise ValidationError("overlap_radius must be positive")


@dataclass(frozen=True)
class SyntheticScene:
    """Generated pair: source, target, ground truth, per-point bookkeeping."""

    source: PointCloud
    target: PointCloud
    transform: RigidTransform
    overlap_mask: np.ndarray           # (N_src,) bool: point survives in target
    target_index_of_source: np.ndarray  # (N_src,) intp: row in target, -1 if cropped


def _sample_rectangles(rng: np.random.Generator, rects: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
                       n: int) -> np.ndarray:
    """Sample points on rectangles given as (origin, edge_u, edge_v)."""
    areas = np.array([np.linalg.norm(np.cross(u, v)) for _, u, v in rects])
    share = areas / areas.sum()
    counts = np.floor(share * n).astype(int)
    counts[0] += n - counts.sum()
    pts = []
    for (origin, u, v), count in zip(rects, counts):
        uv = rng.random((count, 2))
        pts.append(origin + uv[:, :1] * u + uv[:, 1:] * v)
    return np.vstack(pts)


def _box_faces(origin: np.ndarray, size: np.ndarray,
               skip_bottom: bool = False) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    ox, oy, oz = origin
    sx, sy, sz = size
    ex = np.array([sx, 0.0, 0.0])
    ey = np.array([0.0, sy, 0.0])
    ez = np.array([0.0, 0.0, sz])
    faces = [
        (np.array([ox, oy, oz + sz]), ex, ey),              # top
        (np.array([ox, oy, oz]), ex, ez),                   # front
        (np.array([ox, oy + sy, oz]), ex, ez),              # back
        (np.array([ox, oy, oz]), ey, ez),                   # left
        (np.array([ox + sx, oy, oz]), ey, ez),              # right
    ]
    if not skip_bottom:
        faces.append((np.array([ox, oy, oz]), ex, ey))
    return faces


def _scene_points(shape: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if shape == "plane":
        rects = [(np.zeros(3), np.array([2.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0]))]
        return _sample_rectangles(rng, rects, n)
    if shape == "box":
        return _sample_rectangles(
            rng, _box_faces(np.zeros(3), np.array([0.6, 0.6, 0.6])), n)
    # room: floor, two walls, and a few boxes resting on the floor
    rects = [
        (np.zeros(3), np.array([2.4, 0.0, 0.0]), np.array([0.0, 2.4, 0.0])),   # floor
        (np.zeros(3), np.array([0.0, 2.4, 0.0]), np.array([0.0, 0.0, 1.2])),   # wall x=0
        (np.zeros(3), np.array([2.4, 0.0, 0.0]), np.array([0.0, 0.0, 1.2])),   # wall y=0
    ]
    for _ in range(4):
        size = rng.uniform(0.2, 0.45, size=3)
        origin = np.array([rng.uniform(0.2, 2.4 - size[0] - 0.2),
                           rng.uniform(0.2, 2.4 - size[1] - 0.2),
                           0.0])
        rects.extend(_box_faces(origin, size, skip_bottom=True))
    return _sample_rectangles(rng, rects, n)


def _random_transform(rng: np.random.Generator) -> RigidTransform:
    mat = rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(mat)
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return RigidTransform(q, rng.uniform(-0.5, 0.5, size=3))


def measured_overlap(source: PointCloud, target: PointCloud,
                     gt: RigidTransform, radius: float) -> float:
    """Fraction of source points with a target point within radius under gt."""
    aligned = transform_points(source.points, gt)
    nearest, _ = build_index(target).knn_batch(aligned, 1)
    return float(np.mean(nearest.reshape(-1) <= radius))


def generate_scene(spec: SceneSpec) -> SyntheticScene:
    """Deterministically build a registration pair from its spec.

    Cropping directions are retried until the measured overlap lands within
    +/- 5% of the target; failure after 100 attempts raises GenerationError.
    """
    rng = np.random.default_rng(spec.seed)
    src_points = _scene_points(spec.shape, spec.n_points, rng)
    source = PointCloud(src_points)
    gt = spec.transform if spec.transform is not None else _random_transform(rng)

    n = spec.n_points
    for _ in range(_MAX_CROP_ATTEMPTS):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        projection = src_points @ direction
        cutoff = np.quantile(projection, spec.overlap)
        keep = projection <= cutoff
        if not keep.any():
            continue
        kept_idx = np.flatnonzero(keep)

        tgt_points = transform_points(src_points[kept_idx], gt)
        if spec.noise_sigma > 0:
            tgt_points = tgt_points + rng.normal(0.0, spec.noise_sigma, size=tgt_points.shape)
        n_outliers = int(np.floor(spec.outlier_fraction * kept_idx.size))
        if n_outliers > 0:
            lo = tgt_points.min(axis=0) - 0.1
            hi = tgt_points.max(axis=0) + 0.1
            tgt_points = np.vstack([tgt_points, rng.uniform(lo, hi, size=(n_outliers, 3))])
        target = PointCloud(tgt_points)

        measured = measured_overlap(source, target, gt, spec.overlap_radius)
        if abs(measured - spec.overlap) <= _OVERLAP_SLACK:
            mapping = np.full(n, -1, dtype=np.intp)
            mapping[kept_idx] = np.arange(kept_idx.size)
            return SyntheticScene(
                source=source,
                target=target,
                transform=gt,
                overlap_mask=keep,
                target_index_of_source=mapping,
            )
    raise GenerationError(
        f"could not reach overlap target {spec.overlap:+.2f} +/- {_OVERLAP_SLACK} "
        f"in {_MAX_CROP_ATTEMPTS} attempts (noise or radius make it unreachable)"
    )
