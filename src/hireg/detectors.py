"""Inference-time keypoint scoring and score-proportional sampling.

Saliency is feature-space local distinctiveness (how unlike a point's
descriptor is from its spatial neighbors'), overlap is a nearest-feature
affinity into the other cloud, and detection is their product. Keypoints are
drawn without replacement with probability proportional to detection scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud, SpatialIndex, map_chunks
from .descriptors import DescriptorSet, Level
from .errors import DegenerateScoreError, ValidationError

# Points whose neighbour descriptor differences one saliency chunk holds.
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class ScoreSet:
    """Per-point matchability/overlap scores in [0, 1] at one level.

    ``detection`` is derived as the exact elementwise product.
    """

    level: Level
    matchability: np.ndarray
    overlap: np.ndarray
    detection: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        match = np.asarray(self.matchability, dtype=np.float64).reshape(-1)
        over = np.asarray(self.overlap, dtype=np.float64).reshape(-1)
        if match.shape != over.shape:
            raise ValidationError("matchability and overlap lengths differ")
        for name, arr in (("matchability", match), ("overlap", over)):
            if not np.isfinite(arr).all() or (arr < 0).any() or (arr > 1).any():
                raise ValidationError(f"{name} scores must be finite and in [0, 1]")
        match = match.copy()
        match.setflags(write=False)
        over = over.copy()
        over.setflags(write=False)
        detection = match * over
        detection.setflags(write=False)
        object.__setattr__(self, "matchability", match)
        object.__setattr__(self, "overlap", over)
        object.__setattr__(self, "detection", detection)
        object.__setattr__(self, "level", Level(self.level))

    def __len__(self) -> int:
        return self.matchability.shape[0]


@dataclass(frozen=True)
class KeypointSet:
    """Distinct point indices sampled at one level with a known seed.

    ``shortfall`` counts how many requested draws could not be served because
    too few points had positive detection scores.
    """

    indices: np.ndarray
    level: Level
    sample_seed: int
    shortfall: int = 0

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp).reshape(-1)
        if np.unique(idx).size != idx.size:
            raise ValidationError("keypoint indices must be unique")
        idx = idx.copy()
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "level", Level(self.level))

    def __len__(self) -> int:
        return self.indices.shape[0]


def pairwise_feature_nn(queries: np.ndarray, references: np.ndarray,
                        block: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest neighbor in feature space, in query blocks that bound
    memory and run on the worker pool.

    Returns (distances, indices); ties resolve to the lowest reference index.
    The expanded-form distance matrix carries ~1e-16 cancellation noise, so
    near-tied winners are re-decided from exact distances, and the result
    does not depend on ``block``.
    """
    q2 = np.einsum("ij,ij->i", queries, queries)
    r2 = np.einsum("ij,ij->i", references, references)
    best_idx = np.empty(queries.shape[0], dtype=np.intp)

    def nearest(start: int, stop: int) -> None:
        d2 = q2[start:stop, None] + r2[None, :] - 2.0 * queries[start:stop] @ references.T
        winners = d2.argmin(axis=1)
        floor = d2[np.arange(stop - start), winners]
        tied_rows = np.flatnonzero((d2 <= floor[:, None] + 1e-10).sum(axis=1) > 1)
        for row in tied_rows:
            cand = np.flatnonzero(d2[row] <= floor[row] + 1e-10)
            diff = references[cand] - queries[start + row]
            exact = np.einsum("ij,ij->i", diff, diff)
            winners[row] = cand[np.lexsort((cand, exact))[0]]
        best_idx[start:stop] = winners

    map_chunks(nearest, queries.shape[0], block)
    diff = queries - references[best_idx]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff)), best_idx


def score_saliency(cloud: PointCloud, descriptors: DescriptorSet,
                   index: SpatialIndex, k: int) -> np.ndarray:
    """Feature distinctiveness of each point from its k spatial neighbors.

    The mean descriptor distance to the k nearest neighbors (self excluded)
    is normalized by its 95th percentile over the cloud and clamped to
    [0, 1]; uniform regions score near zero, structure scores high.
    """
    if k < 2:
        raise ValidationError("k must be >= 2")
    n = len(cloud)
    if n < k + 1:
        raise ValidationError(f"cloud must have at least k+1 = {k + 1} points")
    if len(descriptors) != n:
        raise ValidationError("descriptors must match the cloud point-for-point")

    _, idx = index.knn_batch(cloud.points, k + 1)
    rows = np.arange(n)
    self_hits = idx == rows[:, None]
    drop = np.where(self_hits.any(axis=1), self_hits.argmax(axis=1), k)
    keep = np.arange(k + 1)[None, :] != drop[:, None]
    neighbors = idx[keep].reshape(n, k)

    vectors, stat = descriptors.vectors, np.empty(n)

    def distinctiveness(start: int, stop: int) -> None:
        diffs = np.take(vectors, neighbors[start:stop], axis=0)
        diffs -= vectors[start:stop, None, :]
        stat[start:stop] = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs)).mean(axis=1)

    map_chunks(distinctiveness, n, _CHUNK_ROWS)
    scale = float(np.percentile(stat, 95))
    if scale <= 0:
        return np.zeros(n)
    return np.clip(stat / scale, 0.0, 1.0)


def score_overlap_heuristic(source_descriptors: DescriptorSet,
                            target_descriptors: DescriptorSet) -> np.ndarray:
    """Overlap affinity of each source point from feature distance to target.

    exp(-(d_nn / sigma)^2) with sigma the median nearest-feature distance;
    points whose descriptors have a close counterpart in the target score
    near 1.
    """
    if source_descriptors.level != target_descriptors.level:
        raise ValidationError("descriptor sets must share a level")
    if source_descriptors.dimension != target_descriptors.dimension:
        raise ValidationError("descriptor sets must share a dimension")
    if len(target_descriptors) == 0:
        raise ValidationError("target descriptor set is empty")
    d_nn, _ = pairwise_feature_nn(source_descriptors.vectors, target_descriptors.vectors)
    sigma = float(np.median(d_nn))
    if sigma <= 0:
        return (d_nn == 0).astype(np.float64)
    return np.exp(-((d_nn / sigma) ** 2))


def sample_keypoints(scores: ScoreSet, n: int, seed: int) -> KeypointSet:
    """Draw n distinct indices with probability proportional to detection.

    Uses exponential keys (log(u) / weight, top-n) so proportionality is
    exact at the draw level and any positive rescaling of the scores leaves
    the seeded sample unchanged. Zero-score points are never returned; if
    fewer than n points score positive, all of them are returned and the
    shortfall recorded.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    weights = scores.detection
    positive = np.flatnonzero(weights > 0)
    if positive.size == 0:
        raise DegenerateScoreError("all detection scores are zero")
    if positive.size <= n:
        return KeypointSet(indices=positive, level=scores.level,
                           sample_seed=seed, shortfall=n - positive.size)
    rng = np.random.default_rng(seed)
    u = 1.0 - rng.random(positive.size)  # in (0, 1]
    with np.errstate(over="ignore"):
        # near-zero weights overflow to -inf keys, which correctly sorts
        # those points last
        keys = np.log(u) / weights[positive]
    order = np.argsort(-keys, kind="stable")
    return KeypointSet(indices=positive[order[:n]], level=scores.level,
                       sample_seed=seed, shortfall=0)
