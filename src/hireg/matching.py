"""Global-to-local correspondence matching and rigid estimation.

Coarse correspondences come from mutual nearest-neighbor matching of
high-level descriptors at sampled keypoints, made robust by RANSAC. Fine
correspondences are mutual matches of low-level descriptors inside local
cells around each coarse inlier pair; a score-ranked subset of them feeds a
weighted SVD for the final transform. Only the cells read the target's
low-level descriptors, so ``register`` computes them after RANSAC, for the
union of the cells' members alone; each row has the bits of the
whole-cloud row.

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
        pairs = np.asarray(self.pairs, dtype=np.intp).reshape(-1, 2)
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if pairs.shape[0] != weights.shape[0]:
            raise ValidationError("pairs and weights lengths differ")
        if not np.isfinite(weights).all() or (weights < 0).any():
            raise ValidationError("weights must be finite and nonnegative")
        if (pairs < 0).any():
            raise ValidationError("pair indices must be nonnegative")
        pairs = pairs.copy()
        pairs.setflags(write=False)
        weights = weights.copy()
        weights.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "stage", Stage(self.stage))

    def __len__(self) -> int:
        return self.pairs.shape[0]

    def check_indices(self, *sizes: int) -> None:
        """Raise ``ValidationError`` unless every source index is below
        ``sizes[0]`` and, if given, every target index below ``sizes[1]``."""
        for column, (side, size) in enumerate(zip(("source", "target"), sizes)):
            if len(self) and self.pairs[:, column].max() >= size:
                raise ValidationError(f"{side} indices must lie in [0, {size})")


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


def _describe_high(cloud: PointCloud, params: DescriptorParams
                   ) -> tuple[SpatialIndex, np.ndarray, DescriptorSet]:
    """The index, the normals and the high-level descriptors of one cloud;
    the index then memoises at most the low-radius graph."""
    index = build_index(cloud)
    normals = estimate_normals(cloud, params.normal_radius, index=index)
    high = compute_descriptors(cloud, Level.HIGH, params, normals, index)
    index.keep_graphs(params.low_radius)
    return index, normals, high


def describe_cloud(cloud: PointCloud, params: DescriptorParams
                   ) -> tuple[SpatialIndex, DescriptorSet, DescriptorSet]:
    """The index and the (low, high) descriptors of one cloud.

    The normals are estimated once and shared by both levels. The returned
    index memoises only the low-radius graph, whose rows are the cells of
    ``local_cell_match``; the wide-field and normal graphs are released once
    the descriptors no longer need them.
    """
    index, normals, high = _describe_high(cloud, params)
    return index, compute_descriptors(cloud, Level.LOW, params, normals, index), high


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
    the pairs it keeps. ``register`` passes the low-level radius, whose graph
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
    src_anchor, tgt_anchor = int(coarse_pair[0]), int(coarse_pair[1])
    if not (0 <= src_anchor < n_src and 0 <= tgt_anchor < n_tgt):
        raise ValidationError(f"coarse pair {coarse_pair} indexes outside the clouds")
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


def _stage_error(exc, stage: Stage):
    exc.stage = stage.value
    message = f"{stage.value} stage: {exc}"
    exc.args = (message,) + exc.args[1:]
    return exc


def register(source: PointCloud, target: PointCloud,
             config: "RunConfig | None" = None) -> RegistrationResult:
    """Full global-to-local registration of ``source`` onto ``target``.

    Pipeline: source descriptors at both levels, target descriptors at the
    high level -> detector scores -> high-level keypoint sampling -> mutual
    feature matching -> RANSAC coarse transform -> target low-level
    descriptors of the cells' members -> low-level matching in cells around
    coarse inliers -> score-ranked subset -> weighted SVD. Deterministic
    given (inputs, config). ``timings_ms["fine_match_ms"]`` includes the
    target's low-level descriptors.
    """
    if config is None:
        from .config import RunConfig
        config = RunConfig()
    if len(source) < 1 or len(target) < 1:
        raise ValidationError("both clouds must be nonempty")

    timings: dict[str, float] = {}
    t_start = time.perf_counter()

    tick = time.perf_counter()
    src_index, src_low, src_high = describe_cloud(source, config.descriptor)
    # Only the fine cells read the target's low level, so it is computed
    # there, for the cells' members alone.
    tgt_index, tgt_normals, tgt_high = _describe_high(target, config.descriptor)
    timings["descriptors_ms"] = (time.perf_counter() - tick) * 1e3

    tick = time.perf_counter()
    k = config.detector.saliency_k
    # Overlap is a property of the cloud pair, judged best at the global
    # receptive field; the source's two levels share its high-level overlap.
    # Keypoints read both HIGH sets and fine weighting the source LOW set, so
    # the target LOW set is never scored.
    src_overlap = score_overlap_heuristic(src_high, tgt_high)
    src_low_scores = ScoreSet(Level.LOW, score_saliency(source, src_low, src_index, k),
                              src_overlap)
    src_high_scores = ScoreSet(Level.HIGH, score_saliency(source, src_high, src_index, k),
                               src_overlap)
    tgt_high_scores = ScoreSet(Level.HIGH, score_saliency(target, tgt_high, tgt_index, k),
                               score_overlap_heuristic(tgt_high, src_high))
    timings["scores_ms"] = (time.perf_counter() - tick) * 1e3

    tick = time.perf_counter()
    kp_src = sample_keypoints(src_high_scores, config.detector.coarse_samples, config.seed + 1)
    kp_tgt = sample_keypoints(tgt_high_scores, config.detector.coarse_samples, config.seed + 2)
    local = match_features(src_high.vectors[kp_src.indices], tgt_high.vectors[kp_tgt.indices])
    coarse = CorrespondenceSet(
        np.column_stack([kp_src.indices[local.pairs[:, 0]],
                         kp_tgt.indices[local.pairs[:, 1]]]),
        local.weights, Stage.COARSE)
    timings["coarse_match_ms"] = (time.perf_counter() - tick) * 1e3

    tick = time.perf_counter()
    if len(coarse) < config.ransac.sample_size:
        raise _stage_error(NoConsensusError(
            f"only {len(coarse)} coarse matches", best_inliers=0, iterations=0,
        ), Stage.COARSE)
    try:
        coarse_transform, inlier_mask, iterations = ransac_transform(
            source, target, coarse, config.ransac, config.seed + 3)
    except (NoConsensusError, DegenerateGeometryError) as exc:
        raise _stage_error(exc, Stage.COARSE)
    timings["ransac_ms"] = (time.perf_counter() - tick) * 1e3

    tick = time.perf_counter()
    # A cell is the low-level receptive field: a row of the low-radius graph.
    inliers = coarse.pairs[inlier_mask]
    members = np.unique(tgt_index.neighbor_graph(config.descriptor.low_radius)
                        .rows(inliers[:, 1]).indices)
    tgt_low = compute_descriptors(target, Level.LOW, config.descriptor, tgt_normals,
                                  tgt_index, centers=members)
    cells = [local_cell_match(src_index, tgt_index, (src_anchor, tgt_anchor), src_low, tgt_low,
                              config.descriptor.low_radius, target_rows=members).pairs
             for src_anchor, tgt_anchor in inliers]
    # Overlapping cells repeat pairs; keep one of each, in (source, target) order.
    all_pairs = np.unique(np.concatenate(cells), axis=0) if cells \
        else np.empty((0, 2), dtype=np.intp)
    fine = select_fine_subset(CorrespondenceSet(all_pairs, np.ones(len(all_pairs)), Stage.FINE),
                              src_low_scores, config.matching.top_fraction)
    if len(fine) > config.detector.fine_samples:
        # the subset is already ordered by descending weight, ties by source index
        cap = config.detector.fine_samples
        fine = CorrespondenceSet(fine.pairs[:cap], fine.weights[:cap], Stage.FINE)
    timings["fine_match_ms"] = (time.perf_counter() - tick) * 1e3

    tick = time.perf_counter()
    if len(fine) < 3:
        raise _stage_error(DegenerateGeometryError(
            f"only {len(fine)} fine correspondences"), Stage.FINE)
    if not fine.weights.any():
        raise _stage_error(DegenerateGeometryError(
            f"all {len(fine)} fine correspondences have zero weight"), Stage.FINE)
    try:
        transform = weighted_svd(source.points[fine.pairs[:, 0]],
                                 target.points[fine.pairs[:, 1]], fine.weights)
    except DegenerateGeometryError as exc:
        raise _stage_error(exc, Stage.FINE)
    timings["svd_ms"] = (time.perf_counter() - tick) * 1e3
    timings["total_ms"] = (time.perf_counter() - t_start) * 1e3

    return RegistrationResult(
        transform=transform,
        coarse_transform=coarse_transform,
        coarse=coarse,
        fine=fine,
        inlier_count=int(inlier_mask.sum()),
        iterations_used=iterations,
        timings_ms=timings,
        source_keypoints=kp_src,
        target_keypoints=kp_tgt,
    )
