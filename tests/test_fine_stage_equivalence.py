"""``register`` against the earlier score and fine stages.

The reference below is the earlier pipeline: saliency scored for all four
(cloud, level) sets, fine cells found by one ``radius_batch`` query per endpoint,
each cell's pairs weighted by source detection, and duplicates across cells
collapsed by a max-weight dedup before the score-ranked subset. ``register``
scores three sets, reads cells as neighbour-graph rows and deduplicates with
``np.unique``; its result must equal the reference bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from hireg import (
    CorrespondenceSet,
    DescriptorParams,
    Level,
    RunConfig,
    SceneSpec,
    build_index,
    compute_descriptors,
    estimate_normals,
    generate_scene,
    local_cell_match,
    match_features,
    register,
    sample_keypoints,
    select_fine_subset,
    weighted_svd,
)
from hireg.config import DetectorParams
from hireg.detectors import ScoreSet, score_overlap_heuristic, score_saliency
from hireg.matching import Stage, ransac_transform


def _ref_dedup_max_weight(pairs, weights):
    if pairs.shape[0] == 0:
        return pairs, weights
    order = np.lexsort((-weights, pairs[:, 1], pairs[:, 0]))
    pairs = pairs[order]
    weights = weights[order]
    first = np.ones(pairs.shape[0], dtype=bool)
    first[1:] = (np.diff(pairs[:, 0]) != 0) | (np.diff(pairs[:, 1]) != 0)
    return pairs[first], weights[first]


def _ref_cell(source, target, pair, src_low, tgt_low, radius, src_index, tgt_index,
              detection):
    src_cell = src_index.radius_batch(source.points[pair[0]][None], radius)[0]
    tgt_cell = tgt_index.radius_batch(target.points[pair[1]][None], radius)[0]
    if src_cell.size == 0 or tgt_cell.size == 0:
        return np.empty((0, 2), dtype=np.intp), np.empty(0)
    local = match_features(src_low.vectors[src_cell], tgt_low.vectors[tgt_cell])
    src_global = src_cell[local.pairs[:, 0]]
    tgt_global = tgt_cell[local.pairs[:, 1]]
    return np.column_stack([src_global, tgt_global]), detection[src_global]


def _ref_register(source, target, config):
    """The earlier ``register``; returns its result fields plus every cell."""
    indices = {"src": build_index(source), "tgt": build_index(target)}
    clouds = {"src": source, "tgt": target}
    dparams = config.descriptor
    descs = {}
    for side in ("src", "tgt"):
        normals = estimate_normals(clouds[side], dparams.normal_radius, index=indices[side])
        for level in (Level.LOW, Level.HIGH):
            descs[side, level] = compute_descriptors(clouds[side], level, dparams, normals,
                                                     indices[side])
    scores = {}
    for side, other in (("src", "tgt"), ("tgt", "src")):
        overlap = score_overlap_heuristic(descs[side, Level.HIGH], descs[other, Level.HIGH])
        for level in (Level.LOW, Level.HIGH):
            scores[side, level] = ScoreSet(level, score_saliency(
                clouds[side], descs[side, level], indices[side],
                config.detector.saliency_k), overlap)

    kp_src = sample_keypoints(scores["src", Level.HIGH], config.detector.coarse_samples,
                              config.seed + 1)
    kp_tgt = sample_keypoints(scores["tgt", Level.HIGH], config.detector.coarse_samples,
                              config.seed + 2)
    local = match_features(descs["src", Level.HIGH].vectors[kp_src.indices],
                           descs["tgt", Level.HIGH].vectors[kp_tgt.indices])
    coarse = CorrespondenceSet(
        np.column_stack([kp_src.indices[local.pairs[:, 0]],
                         kp_tgt.indices[local.pairs[:, 1]]]),
        local.weights, Stage.COARSE)
    coarse_transform, inlier_mask, iterations = ransac_transform(
        source, target, coarse, config.ransac, config.seed + 3)

    detection = scores["src", Level.LOW].detection
    inliers = coarse.pairs[inlier_mask]
    cells = [_ref_cell(source, target, pair, descs["src", Level.LOW],
                       descs["tgt", Level.LOW], config.descriptor.low_radius,
                       indices["src"], indices["tgt"], detection)
             for pair in inliers]
    all_pairs = np.vstack([c[0] for c in cells])
    all_weights = np.concatenate([c[1] for c in cells])
    raw_count = len(all_pairs)
    all_pairs, all_weights = _ref_dedup_max_weight(all_pairs, all_weights)
    fine = select_fine_subset(CorrespondenceSet(all_pairs, all_weights, Stage.FINE),
                              scores["src", Level.LOW], config.matching.top_fraction)
    cap = config.detector.fine_samples
    fine = CorrespondenceSet(fine.pairs[:cap], fine.weights[:cap], Stage.FINE)
    transform = weighted_svd(source.points[fine.pairs[:, 0]],
                             target.points[fine.pairs[:, 1]], fine.weights)
    return {
        "transform": transform, "coarse_transform": coarse_transform,
        "coarse": coarse, "fine": fine, "inlier_count": int(inlier_mask.sum()),
        "iterations_used": iterations, "inliers": inliers, "cells": cells,
        "raw_count": raw_count, "deduped_count": len(all_pairs), "descs": descs,
        "indices": indices,
    }


def _assert_same(result, ref):
    for name in ("transform", "coarse_transform"):
        got, want = getattr(result, name), ref[name]
        assert np.array_equal(got.rotation, want.rotation), name
        assert np.array_equal(got.translation, want.translation), name
    for name in ("coarse", "fine"):
        got, want = getattr(result, name), ref[name]
        assert np.array_equal(got.pairs, want.pairs), name
        assert np.array_equal(got.weights, want.weights), name
    assert result.inlier_count == ref["inlier_count"]
    assert result.iterations_used == ref["iterations_used"]


@pytest.mark.parametrize("seed", [1, 7])
def test_default_config_matches_reference(seed):
    scene = generate_scene(SceneSpec(shape="room", n_points=2000, overlap=0.7,
                                     noise_sigma=0.005, seed=seed))
    config = RunConfig(seed=seed)
    ref = _ref_register(scene.source, scene.target, config)
    _assert_same(register(scene.source, scene.target, config), ref)


def test_overlapping_cells_and_fine_cap_match_reference():
    # Cells of 0.25 m (the low-level radius) around neighbouring inliers
    # overlap, so the same pair is found in several cells; the cap of 12 then
    # cuts the ranked subset.
    scene = generate_scene(SceneSpec(shape="room", n_points=2000, overlap=0.7,
                                     noise_sigma=0.005, seed=3))
    config = RunConfig(seed=3, descriptor=DescriptorParams(low_radius=0.25),
                       detector=DetectorParams(fine_samples=12))
    ref = _ref_register(scene.source, scene.target, config)
    assert ref["raw_count"] > ref["deduped_count"]
    assert len(ref["fine"]) == 12
    result = register(scene.source, scene.target, config)
    _assert_same(result, ref)

    src_index, tgt_index = ref["indices"]["src"], ref["indices"]["tgt"]
    for pair, (want_pairs, _) in zip(ref["inliers"], ref["cells"], strict=True):
        got = local_cell_match(src_index, tgt_index, (pair[0], pair[1]),
                               ref["descs"]["src", Level.LOW], ref["descs"]["tgt", Level.LOW],
                               0.25)
        assert np.array_equal(got.pairs, want_pairs)
        assert np.array_equal(got.weights, np.ones(len(want_pairs)))
