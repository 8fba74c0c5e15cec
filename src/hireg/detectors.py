"""Inference-time keypoint scoring and score-proportional sampling.

Saliency is feature-space local distinctiveness (how unlike a point's
descriptor is from its spatial neighbors'), overlap is a nearest-feature
affinity into the other cloud, and detection is their product. Keypoints are
drawn without replacement with probability proportional to detection scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud, SpatialIndex, index_for, map_chunks
from .descriptors import DescriptorSet, Level
from .errors import DegenerateScoreError, ValidationError

# Points whose neighbour descriptor differences one saliency chunk holds.
_CHUNK_ROWS = 256
# Query rows of one feature nearest-neighbour block.
_CHUNK_QUERIES = 128
# Near-tied (query, candidate reference) pairs whose exact distances one
# re-decision chunk computes.
_CHUNK_CANDIDATES = 1 << 12


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
    """Distinct sampled point indices.

    ``shortfall`` counts how many requested draws could not be served because
    too few points had positive detection scores.
    """

    indices: np.ndarray
    shortfall: int = 0

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp).reshape(-1)
        if np.unique(idx).size != idx.size:
            raise ValidationError("keypoint indices must be unique")
        idx = idx.copy()
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return self.indices.shape[0]


def _tie_band(dim: int, scale: float, dtype) -> np.float64:
    """Twice a bound E on the error of ``r2 - 2 q.r`` evaluated in ``dtype``,
    against the exact squared distance less ``q2``, for rows of dimension D
    whose query and reference norms sum to at most ``scale``.

    With unit roundoff u, rounding the rows and ``r2`` to ``dtype``, the
    D-term dot product and the final sum err by at most (D / 2 + 3.5) u
    scale^2; values that underflow add at most (D + 4) t (1 + scale), with t
    the smallest subnormal. E is (D + 4) (u scale^2 + t (1 + scale)), which
    leaves room for the rounding of the float64 exact distances. If a row's
    runner-up lies more than 2E above its winner, the winner is the exact
    nearest reference; otherwise the exact nearest is among the references
    within 2E of the winner.
    """
    info = np.finfo(dtype)
    return np.float64(2 * (dim + 4) * (info.eps / 2 * scale ** 2
                                       + info.smallest_subnormal * (1 + scale)))


def _exact_nearest(queries: np.ndarray, references: np.ndarray, rows: np.ndarray,
                   candidates: np.ndarray, winners: np.ndarray) -> np.ndarray:
    """Per query row ``rows[i]``, the reference of least exact squared
    distance among the ``True`` columns of ``candidates[i]``, the lowest index
    among equal ones; ``winners[i]`` stays where no candidate has a finite
    distance. Candidate pairs run in (row, reference) order, in chunks of
    ``_CHUNK_CANDIDATES``; a later chunk's pick replaces a row's only when it is
    strictly nearer."""
    best = np.full(len(rows), np.inf)
    picks = winners.copy()
    flat = np.flatnonzero(candidates)
    for start in range(0, len(flat), _CHUNK_CANDIDATES):
        row, col = np.divmod(flat[start:start + _CHUNK_CANDIDATES], candidates.shape[1])
        diff = np.take(references, col, axis=0)
        diff -= np.take(queries, rows[row], axis=0)
        exact = np.einsum("ij,ij->i", diff, diff)
        # Sorted by row, then distance; the stable sort keeps columns
        # ascending among equal distances, so each row's head is its pick.
        order = np.lexsort((exact, row))
        head = order[np.concatenate(([True], row[order[1:]] != row[order[:-1]]))]
        row, exact, col = row[head], exact[head], col[head]
        nearer = exact < best[row]
        best[row[nearer]] = exact[nearer]
        picks[row[nearer]] = col[nearer]
    return picks


def pairwise_feature_nn(queries: np.ndarray,
                        references: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest neighbor in feature space, in query blocks that bound
    memory and run on the worker pool.

    Returns (distances, indices); ties resolve to the lowest reference index
    and distances are exact float64. Candidates come from the expanded form
    ``r2 - 2 q r^T`` in float32 (a row's ``q2`` does not change its order);
    every row whose runner-up lies within ``_tie_band`` of its winner is
    re-decided from exact float64 distances, so the result is the exact
    nearest reference and does not depend on the block size,
    ``_CHUNK_QUERIES``. Inputs whose squared norms would overflow float32 run
    the same steps in float64. A block holds one (block, references) float32
    array, and for its near-tied rows a boolean candidate mask.
    """
    q2 = np.einsum("ij,ij->i", queries, queries)
    r2 = np.einsum("ij,ij->i", references, references)
    scale = np.sqrt(q2.max(initial=0.0)) + np.sqrt(r2.max(initial=0.0))
    dtype = np.float32 if scale ** 2 <= np.finfo(np.float32).max / 2 else np.float64
    band = _tie_band(queries.shape[1], scale, dtype)
    r2_c, refs_c = r2.astype(dtype), references.astype(dtype, copy=False)
    best_idx = np.empty(queries.shape[0], dtype=np.intp)

    def nearest(start: int, stop: int) -> None:
        # (-2 q) @ r.T + r2: a row's q2 is the same for all its references,
        # so it is left out of every comparison.
        d2 = np.matmul(-2 * queries[start:stop].astype(dtype), refs_c.T)
        d2 += r2_c
        rows = np.arange(stop - start)
        winners = d2.argmin(axis=1)
        floor = d2[rows, winners]
        # A row is near-tied when its runner-up is within the band of the
        # winner: hide the winner's cell, take the row minima, restore it.
        d2[rows, winners] = np.inf
        runner_up = d2.min(axis=1)
        d2[rows, winners] = floor
        tied = np.flatnonzero(runner_up.astype(np.float64) - floor <= band)
        if tied.size:
            # The limit is rounded up into the block's precision, so no
            # reference within the band of the winner is left out.
            limit = np.nextafter((floor[tied] + band).astype(dtype), dtype(np.inf))
            candidates = d2[tied] <= limit[:, None]
            del d2
            winners[tied] = _exact_nearest(queries, references, start + tied,
                                           candidates, winners[tied])
        best_idx[start:stop] = winners

    map_chunks(nearest, queries.shape[0], _CHUNK_QUERIES)
    diff = queries - references[best_idx]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff)), best_idx


def score_saliency(cloud: PointCloud, descriptors: DescriptorSet,
                   index: SpatialIndex, k: int) -> np.ndarray:
    """Feature distinctiveness of each point from its k spatial neighbors.

    The mean descriptor distance to the k nearest neighbors (self excluded)
    is normalized by its 95th percentile over the cloud and clamped to
    [0, 1]; uniform regions score near zero, structure scores high. The two
    levels of one cloud share ``index``'s memoised self k-NN query.
    """
    if k < 2:
        raise ValidationError("k must be >= 2")
    n = len(cloud)
    if n < k + 1:
        raise ValidationError(f"cloud must have at least k+1 = {k + 1} points")
    if len(descriptors) != n:
        raise ValidationError("descriptors must match the cloud point-for-point")

    _, idx = index_for(cloud, index).self_knn(k + 1)
    self_hits = idx == np.arange(n)[:, None]
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
        return KeypointSet(indices=positive, shortfall=n - positive.size)
    rng = np.random.default_rng(seed)
    u = 1.0 - rng.random(positive.size)  # in (0, 1]
    with np.errstate(over="ignore"):
        # near-zero weights overflow to -inf keys, which correctly sorts
        # those points last
        keys = np.log(u) / weights[positive]
    order = np.argsort(-keys, kind="stable")
    return KeypointSet(indices=positive[order[:n]], shortfall=0)
