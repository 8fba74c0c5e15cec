"""Global-to-local correspondence matching and rigid estimation.

``register`` composes three stages. ``describe`` gives one cloud's index,
normals and high-level descriptors. ``coarse`` matches high-level
descriptors at sampled keypoints mutually and runs RANSAC. ``refine``
matches low-level descriptors mutually inside local cells around each
coarse inlier pair and fits a weighted SVD to their score-ranked subset;
it computes the target's low level for the cells' members alone, each row
with the bits of the whole-cloud row.

RANSAC draws one minimal sample per iteration, in iteration order, and fits
and scores ``_RANSAC_BLOCK`` of them at a time with stacked SVDs and one
residual matrix. It then replays the best count and the early exit sample by
sample, so its iterations, consensus set and transform are those of fitting
one sample at a time. The rotation checks of ``RigidTransform`` run
stacked on each block, and the first fit that fails them in draw order
raises its error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .cloud import (
    ROTATION_TOL,
    PointCloud,
    RigidTransform,
    SpatialIndex,
    build_index,
    frozen,
    index_array,
    real_array,
    transform_points,
)
from .descriptors import (
    DescriptorParams,
    DescriptorSet,
    Level,
    compute_descriptors,
    estimate_normals,
    feature_matrix,
)
from .detectors import (
    KeypointSet,
    ScoreSet,
    pairwise_feature_nn,
    sample_keypoints,
    score_overlap_heuristic,
    score_saliency,
)
from .errors import DegenerateGeometryError, NoConsensusError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .config import RunConfig

# Minimal samples that RANSAC fits and scores in one stacked pass.
_RANSAC_BLOCK = 32


class Stage(str, Enum):
    COARSE = "coarse"
    FINE = "fine"


@dataclass(frozen=True)
class CorrespondenceSet:
    """Index pairs (source, target) with nonnegative per-pair weights."""

    pairs: np.ndarray
    weights: np.ndarray
    stage: Stage

    def __post_init__(self):
        pairs = index_array(self.pairs, "pair indices").reshape(-1, 2)
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if pairs.shape[0] != weights.shape[0]:
            raise ValidationError("pairs and weights lengths differ")
        if not np.isfinite(weights).all() or (weights < 0).any():
            raise ValidationError("weights must be finite and nonnegative")
        object.__setattr__(self, "pairs", frozen(pairs))
        object.__setattr__(self, "weights", frozen(weights))
        object.__setattr__(self, "stage", Stage(self.stage))

    def __len__(self) -> int:
        return self.pairs.shape[0]

    def check_indices(self, *sizes: int) -> None:
        """Raise ``ValidationError`` unless every source index is below
        ``sizes[0]`` and, if given, every target index below ``sizes[1]``."""
        for column, (side, size) in enumerate(zip(("source", "target"), sizes)):
            index_array(self.pairs[:, column], f"{side} indices", size)


@dataclass(frozen=True)
class RansacParams:
    max_iterations: int = 50_000
    inlier_threshold: float = 0.05
    sample_size: int = 3
    confidence: float = 0.999
    # Consensus floor as a fraction of the correspondence count; a minimal
    # sample always fits itself, so an absolute floor of sample_size + 1
    # applies as well.
    min_inlier_fraction: float = 0.05

    def __post_init__(self):
        if self.sample_size < 3:
            raise ValidationError("sample_size must be >= 3")
        if not 0 < self.confidence < 1:
            raise ValidationError("confidence must be in (0, 1)")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not self.inlier_threshold > 0:
            raise ValidationError("inlier_threshold must be positive")
        if not 0 <= self.min_inlier_fraction <= 1:
            raise ValidationError("min_inlier_fraction must be in [0, 1]")


@dataclass(frozen=True)
class RegistrationResult:
    """Final transform plus every pipeline intermediate worth inspecting."""

    transform: RigidTransform
    coarse_transform: RigidTransform
    coarse: CorrespondenceSet
    fine: CorrespondenceSet
    inlier_count: int
    iterations_used: int
    timings_ms: dict[str, float]
    source_keypoints: KeypointSet
    target_keypoints: KeypointSet


@dataclass(frozen=True)
class CloudDescription:
    """One cloud's index (which holds the cloud), normals and HIGH set."""

    index: SpatialIndex
    normals: np.ndarray
    high: DescriptorSet


@dataclass(frozen=True)
class CoarseMatch:
    """RANSAC over the keypoint matches, plus the source overlap its LOW shares."""

    transform: RigidTransform
    correspondences: CorrespondenceSet
    inlier_mask: np.ndarray
    iterations: int
    source_keypoints: KeypointSet
    target_keypoints: KeypointSet
    source_overlap: np.ndarray
    timings_ms: dict[str, float]


def _lap(timings: dict[str, float], name: str, since: float) -> float:
    """Record the milliseconds since ``since`` under ``name``; returns now."""
    now = time.perf_counter()
    timings[name] = (now - since) * 1e3
    return now


def describe(cloud: PointCloud, params: DescriptorParams) -> CloudDescription:
    """One cloud's index, normals and HIGH set. The index then keeps only
    the low-radius graph, whose rows are the cells of ``local_cell_match``."""
    index = build_index(cloud)
    normals = estimate_normals(cloud, params.normal_radius, index=index)
    high = compute_descriptors(cloud, Level.HIGH, params, normals, index)
    index.keep_graphs(params.low_radius)
    return CloudDescription(index, normals, high)


def describe_cloud(cloud: PointCloud, params: DescriptorParams
                   ) -> tuple[SpatialIndex, DescriptorSet, DescriptorSet]:
    """``describe``'s index and HIGH set, plus the LOW set from its normals."""
    described = describe(cloud, params)
    low = compute_descriptors(cloud, Level.LOW, params, described.normals, described.index)
    return described.index, low, described.high


def match_features(source_descriptors: DescriptorSet | np.ndarray,
                   target_descriptors: DescriptorSet | np.ndarray) -> CorrespondenceSet:
    """Mutual nearest-neighbor feature matching.

    A source row and its nearest target row pair up when that target row's
    nearest source row is the same one. Returned pairs index into the rows of
    the given descriptor matrices; weights are 1.
    """
    f_src = feature_matrix(source_descriptors)
    f_tgt = feature_matrix(target_descriptors)
    if f_src.size == 0 or f_tgt.size == 0:
        raise ValidationError("descriptor sets must be nonempty")
    if f_src.shape[1] != f_tgt.shape[1]:
        raise ValidationError("descriptor dimensions differ")

    _, nn_st = pairwise_feature_nn(f_src, f_tgt)
    _, nn_ts = pairwise_feature_nn(f_tgt, f_src)
    src_idx = np.flatnonzero(nn_ts[nn_st] == np.arange(f_src.shape[0]))
    pairs = np.column_stack([src_idx, nn_st[src_idx]])
    return CorrespondenceSet(pairs, np.ones(len(src_idx)), Stage.COARSE)


def weighted_svd(source_points: np.ndarray, target_points: np.ndarray,
                 weights: np.ndarray) -> RigidTransform:
    """Weighted least-squares rigid alignment (Kabsch with weights).

    Minimizes sum_i w_i ||R p_i + t - q_i||^2. Raises when the configuration
    cannot constrain the rotation (fewer than 3 pairs, zero total weight, or
    an effectively collinear weighted point set).
    """
    src = real_array(source_points, "source_points").reshape(-1, 3)
    tgt = real_array(target_points, "target_points").reshape(-1, 3)
    w = real_array(weights, "weights").reshape(-1)
    if src.shape != tgt.shape or src.shape[0] != w.shape[0]:
        raise ValidationError("source, target, and weights must have matching length")
    if src.shape[0] < 3:
        raise ValidationError("need at least 3 pairs")
    if not (np.isfinite(src).all() and np.isfinite(tgt).all()):
        raise ValidationError("points contain NaN or Inf")
    if (w < 0).any() or not np.isfinite(w).all():
        raise ValidationError("weights must be finite and nonnegative")
    total = w.sum()
    if not total > 0:
        raise ValidationError("weights must not all be zero")

    rotations, translations, fitted = _rigid_fits(src[None], tgt[None], w / total)
    if not fitted[0]:
        raise DegenerateGeometryError(
            "weighted point set is collinear or coincident; rotation underdetermined"
        )
    return RigidTransform(rotations[0], translations[0])


def _rigid_fits(source: np.ndarray, target: np.ndarray,
                weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted Kabsch fits of a stack of (B, k, 3) point-set pairs under one
    set of k weights that sum to 1: the (B, 3, 3) rotations, the (B, 3)
    translations and which fits constrain their rotation.

    Stacked ``@``, ``svd`` and ``det`` run their per-matrix routine on each
    item, so fit b has the bits of the same fit made alone.
    """
    centroid_src = weights @ source
    centroid_tgt = weights @ target
    x = source - centroid_src[:, None, :]
    y = target - centroid_tgt[:, None, :]
    cross_cov = (x * weights[:, None]).transpose(0, 2, 1) @ y
    u, s, vt = np.linalg.svd(cross_cov)
    fitted = ~((s[:, 0] <= 0) | (s[:, 1] <= 1e-9 * s[:, 0]))
    v, ut = vt.transpose(0, 2, 1), u.transpose(0, 2, 1)
    reflect = np.zeros_like(cross_cov)
    reflect[:, 0, 0] = reflect[:, 1, 1] = 1.0
    reflect[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    rotations = v @ reflect @ ut
    translations = centroid_tgt - (rotations @ centroid_src[:, :, None])[:, :, 0]
    return rotations, translations, fitted


def _not_collinear(samples: np.ndarray) -> np.ndarray:
    """Which of a stack of (B, k, 3) minimal samples span more than a line."""
    spread = samples - samples.mean(axis=1, keepdims=True)
    _, s, _ = np.linalg.svd(spread, full_matrices=False)
    return (s[:, 0] > 0) & (s[:, 1] > 1e-9 * s[:, 0])


def ransac_transform(source: PointCloud, target: PointCloud,
                     correspondences: CorrespondenceSet, params: RansacParams,
                     seed: int) -> tuple[RigidTransform, np.ndarray, int]:
    """Consensus rigid transform over putative correspondences.

    Iterates minimal-sample fits, counting pairs with post-transform residual
    <= inlier_threshold, early-exits once the confidence bound on having seen
    an all-inlier sample is met, then refits on the best consensus set.
    Returns the transform, the inlier mask and the iterations run. The mask
    is recomputed under the returned transform, so re-checking residuals
    reproduces it exactly. Samples are drawn from ``seed``.
    """
    n_pairs = len(correspondences)
    if n_pairs < params.sample_size:
        raise ValidationError(
            f"need at least sample_size={params.sample_size} pairs, got {n_pairs}"
        )
    correspondences.check_indices(len(source), len(target))
    src = source.points[correspondences.pairs[:, 0]]
    tgt = target.points[correspondences.pairs[:, 1]]
    rng = np.random.default_rng(seed)
    weights = np.ones(params.sample_size) / params.sample_size
    threshold = params.inlier_threshold

    best_count = 0
    best_mask = None
    best_residual = float("inf")
    needed = params.max_iterations
    iterations = 0
    while iterations < needed:
        # One sample per iteration, drawn in iteration order; a block draws
        # no more samples than the iterations still allowed.
        block = min(_RANSAC_BLOCK, needed - iterations)
        picks = np.stack([rng.choice(n_pairs, size=params.sample_size, replace=False)
                          for _ in range(block)])
        sample_src = src[picks]
        rotations, translations, fitted = _rigid_fits(sample_src, tgt[picks], weights)
        # A sample that spans only a line is skipped, whatever its fit.
        fitted &= _not_collinear(sample_src)
        # RigidTransform's own tests, stacked, with its tolerances.
        proper = ((np.abs(rotations.transpose(0, 2, 1) @ rotations - np.eye(3))
                   .max(axis=(1, 2)) <= ROTATION_TOL)
                  & (np.abs(np.linalg.det(rotations) - 1.0) <= ROTATION_TOL)
                  & np.isfinite(translations).all(axis=1))
        residuals = np.linalg.norm(src @ rotations.transpose(0, 2, 1)
                                   + translations[:, None, :] - tgt, axis=2)
        counts = (residuals <= threshold).sum(axis=1)
        # Replay the block sample by sample: the best count, the early exit
        # and the iteration count are those of fitting one sample at a time.
        for sample in range(block):
            if iterations >= needed:
                break
            iterations += 1
            if not fitted[sample]:
                continue
            if not proper[sample]:
                # RigidTransform raises its error for the first such fit in
                # draw order.
                RigidTransform(rotations[sample], translations[sample])
            count = int(counts[sample])
            if count > best_count:
                best_count = count
                best_mask = residuals[sample] <= threshold
                best_residual = float(np.sqrt(np.mean(residuals[sample][best_mask] ** 2)))
                hit_rate = count / n_pairs
                p_all_inlier = hit_rate ** params.sample_size
                if p_all_inlier >= 1.0:
                    needed = iterations
                    break
                if p_all_inlier > 0.0:
                    bound = np.log1p(-params.confidence) / np.log1p(-p_all_inlier)
                    needed = int(min(params.max_iterations, np.ceil(bound)))

    floor = max(params.sample_size + 1,
                int(np.ceil(params.min_inlier_fraction * n_pairs)))
    if best_mask is None or best_count < floor:
        raise NoConsensusError(
            f"no consensus: best {best_count} inliers of {n_pairs} pairs "
            f"(floor {floor}) after {iterations} iterations",
            best_inliers=best_count,
            best_residual=best_residual,
            iterations=iterations,
        )

    refit = weighted_svd(src[best_mask], tgt[best_mask], np.ones(best_count))
    residuals = np.linalg.norm(transform_points(src, refit) - tgt, axis=1)
    final_mask = residuals <= threshold
    return refit, final_mask, iterations


def local_cell_match(source_index: SpatialIndex, target_index: SpatialIndex,
                     coarse_pair: tuple[int, int],
                     source_low: DescriptorSet, target_low: DescriptorSet,
                     cell_radius: float,
                     target_rows: np.ndarray | None = None) -> CorrespondenceSet:
    """Mutual low-level feature matches inside cells around a coarse pair.

    Cells are closed balls of ``cell_radius`` around the pair's endpoints,
    read as rows of each index's memoised neighbour graph; a cell always
    holds its own endpoint. Weights are 1: ``select_fine_subset`` weights
    the pairs it keeps. ``refine`` passes the low-level radius, whose graph
    the descriptors already built; at a radius nothing else uses, the first
    call builds a whole-cloud graph at that radius.

    ``target_rows`` names the target points that ``target_low`` describes,
    ascending and row for row; ``None`` means every point. A target cell
    member without a row is an error, and so is a ``source_low`` without one
    row per indexed source point.
    """
    if not 0 < cell_radius < np.inf:
        raise ValidationError("cell_radius must be finite and positive")
    n_src, n_tgt = len(source_index.cloud), len(target_index.cloud)
    if len(source_low) != n_src or (target_rows is None and len(target_low) != n_tgt):
        raise ValidationError("low-level descriptors must match their indexed clouds")
    src_anchor = int(index_array(coarse_pair[0], "coarse_pair[0]", n_src))
    tgt_anchor = int(index_array(coarse_pair[1], "coarse_pair[1]", n_tgt))
    src_cell = source_index.neighbor_graph(cell_radius).row(src_anchor)
    tgt_cell = target_index.neighbor_graph(cell_radius).row(tgt_anchor)
    tgt_at = tgt_cell
    if target_rows is not None:
        tgt_at = np.searchsorted(target_rows, tgt_cell)
        # A member past the last row is clipped onto it and then differs.
        covered = len(target_rows) == len(target_low) > 0 and np.array_equal(
            np.take(target_rows, tgt_at, mode="clip"), tgt_cell)
        if not covered:
            raise ValidationError("target_low has no row for some target cell member")
    local = match_features(source_low.vectors[src_cell], target_low.vectors[tgt_at])
    pairs = np.column_stack([src_cell[local.pairs[:, 0]], tgt_cell[local.pairs[:, 1]]])
    return CorrespondenceSet(pairs, local.weights, Stage.FINE)


def select_fine_subset(fine: CorrespondenceSet, low_scores: ScoreSet,
                       top_fraction: float) -> CorrespondenceSet:
    """Keep the best ceil(fraction * N) pairs by source detection score.

    Sorting is score-descending with ties broken by source index; weights
    become the detection scores.
    """
    if not 0 < top_fraction <= 1:
        raise ValidationError("top_fraction must be in (0, 1]")
    fine.check_indices(len(low_scores))
    scores = low_scores.detection[fine.pairs[:, 0]]
    order = np.lexsort((fine.pairs[:, 0], -scores))
    keep = order[: int(np.ceil(top_fraction * len(fine)))]
    return CorrespondenceSet(fine.pairs[keep], scores[keep], Stage.FINE)


def coarse(source: CloudDescription, target: CloudDescription, config: "RunConfig") -> CoarseMatch:
    """Scores of both HIGH sets, keypoints sampled by them, their mutual
    HIGH matches and RANSAC. Overlap is judged at the global receptive field."""
    tick = time.perf_counter()
    timings: dict[str, float] = {}
    k = config.detector.saliency_k
    src_cloud, tgt_cloud = source.index.cloud, target.index.cloud
    src_overlap = score_overlap_heuristic(source.high, target.high)
    src_scores = ScoreSet(Level.HIGH, score_saliency(src_cloud, source.high, source.index, k),
                          src_overlap)
    tgt_scores = ScoreSet(Level.HIGH, score_saliency(tgt_cloud, target.high, target.index, k),
                          score_overlap_heuristic(target.high, source.high))
    tick = _lap(timings, "scores_ms", tick)

    kp_src = sample_keypoints(src_scores, config.detector.coarse_samples, config.seed + 1)
    kp_tgt = sample_keypoints(tgt_scores, config.detector.coarse_samples, config.seed + 2)
    local = match_features(source.high.vectors[kp_src.indices],
                           target.high.vectors[kp_tgt.indices])
    pairs = np.column_stack([kp_src.indices[local.pairs[:, 0]],
                             kp_tgt.indices[local.pairs[:, 1]]])
    matches = CorrespondenceSet(pairs, local.weights, Stage.COARSE)
    tick = _lap(timings, "coarse_match_ms", tick)

    if len(matches) < config.ransac.sample_size:
        raise NoConsensusError(f"only {len(matches)} coarse matches")
    transform, inlier_mask, iterations = ransac_transform(
        src_cloud, tgt_cloud, matches, config.ransac, config.seed + 3)
    _lap(timings, "ransac_ms", tick)
    return CoarseMatch(transform, matches, inlier_mask, iterations, kp_src, kp_tgt,
                       src_overlap, timings)


def refine(source: CloudDescription, target: CloudDescription, matched: CoarseMatch,
           config: "RunConfig") -> tuple[RigidTransform, CorrespondenceSet, dict[str, float]]:
    """The fine transform, correspondences and timings. The target LOW is computed for the
    cells' members alone (rows of the low-radius graph at the coarse inliers)."""
    tick = time.perf_counter()
    timings: dict[str, float] = {}
    params = config.descriptor
    src_cloud, tgt_cloud = source.index.cloud, target.index.cloud
    src_low = compute_descriptors(src_cloud, Level.LOW, params, source.normals, source.index)
    src_low_scores = ScoreSet(Level.LOW, score_saliency(src_cloud, src_low, source.index,
                                                        config.detector.saliency_k),
                              matched.source_overlap)
    inliers = matched.correspondences.pairs[matched.inlier_mask]
    members = np.unique(target.index.neighbor_graph(params.low_radius)
                        .rows(inliers[:, 1]).indices)
    tgt_low = compute_descriptors(tgt_cloud, Level.LOW, params, target.normals,
                                  target.index, centers=members)
    cells = [local_cell_match(source.index, target.index, (src_anchor, tgt_anchor), src_low,
                              tgt_low, params.low_radius, target_rows=members).pairs
             for src_anchor, tgt_anchor in inliers]
    # Overlapping cells repeat pairs; keep one of each, in (source, target) order.
    all_pairs = np.unique(np.concatenate([np.empty((0, 2), dtype=np.intp), *cells]), axis=0)
    fine = select_fine_subset(CorrespondenceSet(all_pairs, np.ones(len(all_pairs)), Stage.FINE),
                              src_low_scores, config.matching.top_fraction)
    # the subset is already ordered by descending weight, ties by source index
    cap = config.detector.fine_samples
    fine = CorrespondenceSet(fine.pairs[:cap], fine.weights[:cap], Stage.FINE)
    tick = _lap(timings, "fine_match_ms", tick)

    if len(fine) < 3:
        raise DegenerateGeometryError(f"only {len(fine)} fine correspondences")
    if not fine.weights.any():
        raise DegenerateGeometryError(f"all {len(fine)} fine correspondences have zero weight")
    transform = weighted_svd(src_cloud.points[fine.pairs[:, 0]],
                             tgt_cloud.points[fine.pairs[:, 1]], fine.weights)
    _lap(timings, "svd_ms", tick)
    return transform, fine, timings


def register(source: PointCloud, target: PointCloud,
             config: "RunConfig | None" = None) -> RegistrationResult:
    """Global-to-local registration of ``source`` onto ``target``: ``describe``
    each cloud, then ``coarse``, then ``refine``; deterministic given (inputs,
    config). A stage's ``NoConsensusError`` or ``DegenerateGeometryError``
    carries its name in ``stage`` and at the head of its message."""
    if config is None:
        from .config import RunConfig
        config = RunConfig()
    if len(source) < 1 or len(target) < 1:
        raise ValidationError("both clouds must be nonempty")
    t_start = time.perf_counter()
    src = describe(source, config.descriptor)
    tgt = describe(target, config.descriptor)
    timings = {"descriptors_ms": (time.perf_counter() - t_start) * 1e3}
    stage = Stage.COARSE
    try:
        matched = coarse(src, tgt, config)
        stage = Stage.FINE
        transform, fine, fine_timings = refine(src, tgt, matched, config)
    except (NoConsensusError, DegenerateGeometryError) as exc:
        exc.stage = stage.value
        exc.args = (f"{stage.value} stage: {exc}",) + exc.args[1:]
        raise
    timings |= matched.timings_ms | fine_timings
    _lap(timings, "total_ms", t_start)
    return RegistrationResult(transform, matched.transform, matched.correspondences, fine,
                              int(matched.inlier_mask.sum()), matched.iterations, timings,
                              matched.source_keypoints, matched.target_keypoints)
