"""Correspondence matching, RANSAC, weighted SVD, and the full pipeline.

The weighted-SVD oracle below solves the same weighted least-squares
problem by Horn's quaternion method, an independent closed form.
"""

import math

import numpy as np
import pytest

from hireg import (
    CorrespondenceSet,
    DegenerateGeometryError,
    DescriptorParams,
    DescriptorSet,
    Level,
    NoConsensusError,
    PointCloud,
    RansacParams,
    RigidTransform,
    RunConfig,
    SpatialIndex,
    ValidationError,
    apply_transform,
    build_index,
    coarse,
    compute_descriptors,
    describe,
    describe_cloud,
    estimate_normals,
    local_cell_match,
    match_features,
    ransac_transform,
    refine,
    register,
    rotation_error,
    select_fine_subset,
    translation_error,
    weighted_svd,
)
from hireg.cloud import transform_points
from hireg.detectors import ScoreSet, pairwise_feature_nn
from hireg.matching import Stage
from hireg.synth import SceneSpec, generate_scene

from conftest import count_tree_queries, random_transform, register_arrays, unit_rows


def quaternion_fit(src, tgt, weights):
    """Horn's quaternion closed form for weighted rigid alignment."""
    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    cs = (w[:, None] * src).sum(axis=0)
    ct = (w[:, None] * tgt).sum(axis=0)
    x = src - cs
    y = tgt - ct
    s = (x * w[:, None]).T @ y
    trace = np.trace(s)
    delta = np.array([s[1, 2] - s[2, 1], s[2, 0] - s[0, 2], s[0, 1] - s[1, 0]])
    k = np.empty((4, 4))
    k[0, 0] = trace
    k[0, 1:] = delta
    k[1:, 0] = delta
    k[1:, 1:] = s + s.T - trace * np.eye(3)
    eigvals, eigvecs = np.linalg.eigh(k)
    q = eigvecs[:, np.argmax(eigvals)]
    q0, q1, q2, q3 = q
    rot = np.array([
        [q0*q0 + q1*q1 - q2*q2 - q3*q3, 2*(q1*q2 - q0*q3), 2*(q1*q3 + q0*q2)],
        [2*(q1*q2 + q0*q3), q0*q0 - q1*q1 + q2*q2 - q3*q3, 2*(q2*q3 - q0*q1)],
        [2*(q1*q3 - q0*q2), 2*(q2*q3 + q0*q1), q0*q0 - q1*q1 - q2*q2 + q3*q3],
    ])
    return rot, ct - rot @ cs


class TestCorrespondenceSet:
    def test_non_integer_pairs_rejected(self):
        """A float pair was once truncated: ``[[1.7, 2.2]]`` read as ``[[1, 2]]``."""
        with pytest.raises(ValidationError, match="pair indices must be integers"):
            CorrespondenceSet(np.array([[1.7, 2.2]]), [1.0], Stage.FINE)
        with pytest.raises(ValidationError, match="pair indices must be integers"):
            CorrespondenceSet(np.array([[1.0, 2.0]]), [1.0], Stage.FINE)

    def test_integer_and_empty_pairs_accepted(self):
        for pairs in ([[1, 2]], np.array([[1, 2]], dtype=np.uint32)):
            assert CorrespondenceSet(pairs, [1.0], Stage.FINE).pairs.tolist() == [[1, 2]]
        empty = CorrespondenceSet(np.empty((0, 2)), np.empty(0), Stage.FINE)
        assert empty.pairs.shape == (0, 2) and empty.pairs.dtype == np.intp


class TestMatchFeatures:
    def test_identical_sets_identity_pairing(self, rng):
        descs = unit_rows(rng, 15, 6)
        matches = match_features(descs, descs)
        assert matches.pairs[:, 0].tolist() == matches.pairs[:, 1].tolist()
        assert len(matches) == 15

    def test_swapped_unit_vectors(self):
        e1 = [1.0, 0.0, 0.0]
        e2 = [0.0, 1.0, 0.0]
        matches = match_features(np.array([e1, e2]), np.array([e2, e1]))
        assert sorted(map(tuple, matches.pairs.tolist())) == [(0, 1), (1, 0)]

    def test_matches_all_pairs_oracle(self, rng):
        src = unit_rows(rng, 20, 5)
        tgt = unit_rows(rng, 30, 5)
        dist, nn = pairwise_feature_nn(src, tgt)
        for i in range(20):
            dists = [math.dist(src[i], tgt[t]) for t in range(30)]
            assert nn[i] == int(np.argmin(dists))
            assert dist[i] == pytest.approx(min(dists), abs=1e-12)
        for i, j in match_features(src, tgt).pairs:
            assert j == nn[i]

    def test_mutual_subset_of_forward(self, rng):
        src = unit_rows(rng, 25, 5)
        tgt = unit_rows(rng, 25, 5)
        _, nn_st = pairwise_feature_nn(src, tgt)
        _, nn_ts = pairwise_feature_nn(tgt, src)
        forward = {(i, int(j)) for i, j in enumerate(nn_st)}
        mutual = {tuple(p) for p in match_features(src, tgt).pairs.tolist()}
        assert mutual <= forward
        assert mutual == {(i, j) for i, j in forward if nn_ts[j] == i}

    def test_empty_rejected(self, rng):
        with pytest.raises(ValidationError):
            match_features(np.empty((0, 4)), unit_rows(rng, 3, 4))

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 3)])
    def test_non_matrix_rejected(self, rng, shape):
        with pytest.raises(ValidationError, match=r"must be \(N, D\)"):
            match_features(np.ones(shape), unit_rows(rng, 4, 3))
        with pytest.raises(ValidationError, match=r"must be \(N, D\)"):
            match_features(unit_rows(rng, 4, 3), np.ones(shape))

    def test_non_numeric_rejected(self):
        with pytest.raises(ValidationError, match="must be numbers"):
            match_features(np.array([["a", "b"]]), np.eye(2))

    def test_complex_rejected(self):
        with pytest.raises(ValidationError, match="must be numbers"):
            match_features(np.eye(2) * 1j, np.eye(2))
        with pytest.raises(ValidationError, match="must be numbers"):
            match_features(np.eye(2), np.eye(2) + 0j)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_rows_rejected(self, value):
        with pytest.raises(ValidationError, match="NaN or Inf"):
            match_features(np.full((4, 3), value), np.eye(3))


class TestWeightedSvd:
    def test_identity_on_identical_sets(self, rng):
        pts = rng.normal(size=(12, 3))
        t = weighted_svd(pts, pts, np.ones(12))
        assert np.abs(t.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(t.translation).max() < 1e-9

    def test_exact_fit_recovery(self, rng):
        for _ in range(25):
            pts = rng.normal(size=(10, 3))
            t = random_transform(rng)
            weights = rng.uniform(0.1, 2.0, size=10)
            est = weighted_svd(pts, transform_points(pts, t), weights)
            assert np.abs(est.rotation - t.rotation).max() < 1e-9
            assert np.abs(est.translation - t.translation).max() < 1e-9

    def test_weight_scale_invariance(self, rng):
        pts = rng.normal(size=(15, 3))
        noisy = transform_points(pts, random_transform(rng)) + rng.normal(0, 0.01, (15, 3))
        weights = rng.uniform(0.1, 1.0, size=15)
        a = weighted_svd(pts, noisy, weights)
        b = weighted_svd(pts, noisy, weights * 773.25)
        assert np.abs(a.rotation - b.rotation).max() < 1e-9
        assert np.abs(a.translation - b.translation).max() < 1e-9

    def test_noisy_fit_matches_quaternion_oracle_and_local_optimality(self, rng):
        pts = rng.normal(size=(40, 3))
        t = random_transform(rng)
        noisy = transform_points(pts, t) + rng.normal(0, 0.02, size=(40, 3))
        weights = rng.uniform(0.1, 1.0, size=40)
        est = weighted_svd(pts, noisy, weights)

        rot_q, trans_q = quaternion_fit(pts, noisy, weights)
        assert np.abs(est.rotation - rot_q).max() < 1e-9
        assert np.abs(est.translation - trans_q).max() < 1e-9

        def residual(rotation, translation):
            moved = pts @ rotation.T + translation
            return float((weights * ((moved - noisy) ** 2).sum(axis=1)).sum())

        best = residual(est.rotation, est.translation)
        for _ in range(1000):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(-0.05, 0.05)
            k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                          [-axis[1], axis[0], 0]])
            wiggle = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
            perturbed = residual(wiggle @ est.rotation,
                                 est.translation + rng.normal(0, 0.01, size=3))
            assert perturbed >= best - 1e-12

    def test_collinear_rejected(self):
        src = np.array([[float(i), 0.0, 0.0] for i in range(5)])
        with pytest.raises(DegenerateGeometryError):
            weighted_svd(src, src + [0.0, 1.0, 0.0], np.ones(5))

    def test_validation(self, rng):
        pts = rng.normal(size=(5, 3))
        with pytest.raises(ValidationError):
            weighted_svd(pts[:2], pts[:2], np.ones(2))
        with pytest.raises(ValidationError):
            weighted_svd(pts, pts, np.zeros(5))
        with pytest.raises(ValidationError):
            weighted_svd(pts, pts, -np.ones(5))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_nonfinite_points_rejected(self, rng, value, side):
        points = [rng.normal(size=(5, 3)), rng.normal(size=(5, 3))]
        points[side][2, 1] = value
        with pytest.raises(ValidationError, match="NaN or Inf"):
            weighted_svd(*points, np.ones(5))

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("bad", [np.array([["a", "b", "c"]] * 5), np.ones((5, 3)) * 1j],
                             ids=["strings", "complex"])
    def test_non_real_points_rejected(self, rng, bad, side):
        points = [rng.normal(size=(5, 3)), rng.normal(size=(5, 3))]
        points[side] = bad
        with pytest.raises(ValidationError, match="points must be numbers"):
            weighted_svd(*points, np.ones(5))

    def test_output_always_valid_rotation(self, rng):
        for _ in range(50):
            src = rng.normal(size=(6, 3))
            tgt = rng.normal(size=(6, 3))
            t = weighted_svd(src, tgt, rng.uniform(0.01, 1, size=6))
            assert np.abs(t.rotation.T @ t.rotation - np.eye(3)).max() < 1e-9
            assert abs(np.linalg.det(t.rotation) - 1) < 1e-9


def consensus_problem(rng, n_inliers=40, n_outliers=60, noise=0.0):
    """Synthetic correspondence set with known transform and outliers."""
    t = random_transform(rng)
    src_in = rng.uniform(-1, 1, size=(n_inliers, 3))
    tgt_in = transform_points(src_in, t)
    if noise > 0:
        tgt_in = tgt_in + rng.normal(0, noise, size=tgt_in.shape)
    src_out = rng.uniform(-1, 1, size=(n_outliers, 3))
    tgt_out = rng.uniform(-1, 1, size=(n_outliers, 3))
    src = PointCloud(np.vstack([src_in, src_out]))
    tgt = PointCloud(np.vstack([tgt_in, tgt_out]))
    pairs = np.column_stack([np.arange(len(src)), np.arange(len(tgt))])
    corr = CorrespondenceSet(pairs, np.ones(len(src)), Stage.COARSE)
    return src, tgt, corr, t


class TestRansac:
    def test_noiseless_exact_recovery(self, rng):
        src, tgt, corr, t = consensus_problem(rng, n_inliers=30, n_outliers=0)
        params = RansacParams(max_iterations=1000, inlier_threshold=0.05)
        est, mask, _ = ransac_transform(src, tgt, corr, params, seed=3)
        assert rotation_error(est, t) < np.degrees(1e-6)
        assert translation_error(est, t) < 1e-6
        assert mask.all()

    def test_forty_percent_inliers_monte_carlo(self):
        successes = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            src, tgt, corr, t = consensus_problem(rng, n_inliers=40, n_outliers=60)
            params = RansacParams(max_iterations=1000, inlier_threshold=0.05)
            try:
                est, _, _ = ransac_transform(src, tgt, corr, params, seed=seed)
            except NoConsensusError:
                continue
            if rotation_error(est, t) < 0.5 and translation_error(est, t) < 0.02:
                successes += 1
        assert successes >= 99

    def test_all_outliers_no_consensus(self, rng):
        src = PointCloud(rng.uniform(-1, 1, size=(5, 3)))
        tgt = PointCloud(rng.uniform(-1, 1, size=(5, 3)))
        pairs = np.column_stack([np.arange(5), np.arange(5)])
        corr = CorrespondenceSet(pairs, np.ones(5), Stage.COARSE)
        with pytest.raises(NoConsensusError) as info:
            ransac_transform(src, tgt, corr, RansacParams(max_iterations=200,
                                                          inlier_threshold=1e-6), seed=0)
        assert info.value.best_inliers <= 3

    def test_mask_is_exact(self, rng):
        src, tgt, corr, _ = consensus_problem(rng, noise=0.01)
        params = RansacParams(max_iterations=500, inlier_threshold=0.05)
        est, mask, _ = ransac_transform(src, tgt, corr, params, seed=7)
        residuals = np.linalg.norm(
            transform_points(src.points[corr.pairs[:, 0]], est) - tgt.points[corr.pairs[:, 1]],
            axis=1)
        np.testing.assert_array_equal(mask, residuals <= params.inlier_threshold)

    def test_deterministic_given_seed(self, rng):
        src, tgt, corr, _ = consensus_problem(rng)
        params = RansacParams(max_iterations=300)
        a, mask_a, _ = ransac_transform(src, tgt, corr, params, seed=5)
        b, mask_b, _ = ransac_transform(src, tgt, corr, params, seed=5)
        np.testing.assert_array_equal(a.rotation, b.rotation)
        np.testing.assert_array_equal(mask_a, mask_b)

    def test_too_few_pairs_rejected(self, rng):
        src = PointCloud(rng.normal(size=(2, 3)))
        corr = CorrespondenceSet(np.array([[0, 0], [1, 1]]), np.ones(2), Stage.COARSE)
        with pytest.raises(ValidationError):
            ransac_transform(src, src, corr, RansacParams(), seed=0)

    @pytest.mark.parametrize("column, side", [(0, "source"), (1, "target")],
                             ids=["source", "target"])
    def test_index_past_cloud_rejected(self, rng, column, side):
        src, tgt, corr, _ = consensus_problem(rng)
        pairs = corr.pairs.copy()
        pairs[-1, column] = len(src)
        corr = CorrespondenceSet(pairs, corr.weights, Stage.COARSE)
        with pytest.raises(ValidationError, match=f"{side} indices must lie in \\[0, 100\\)"):
            ransac_transform(src, tgt, corr, RansacParams(max_iterations=10), seed=0)


class TestLocalCellMatch:
    def test_single_point_cells(self):
        source = PointCloud(np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]]))
        target = PointCloud(np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]]))
        vec = np.eye(2)
        descs = DescriptorSet(Level.LOW, vec)
        fine = local_cell_match(build_index(source), build_index(target), (0, 0), descs, descs,
                                cell_radius=0.5)
        assert fine.pairs.tolist() == [[0, 0]]

    def test_duplicated_patch_reproduces_bijection(self, rng):
        patch = rng.uniform(0, 0.15, size=(12, 3))
        descs = DescriptorSet(Level.LOW, unit_rows(rng, 12, 8))
        source = PointCloud(patch)
        target = PointCloud(patch.copy())
        fine = local_cell_match(build_index(source), build_index(target), (0, 0), descs, descs,
                                cell_radius=0.5)
        assert len(fine) == 12
        assert fine.pairs[:, 0].tolist() == fine.pairs[:, 1].tolist()

    def test_matches_in_cell_oracle(self, rng):
        source = PointCloud(rng.uniform(0, 0.4, size=(50, 3)))
        target = PointCloud(rng.uniform(0, 0.4, size=(60, 3)))
        src_descs = DescriptorSet(Level.LOW, unit_rows(rng, 50, 6))
        tgt_descs = DescriptorSet(Level.LOW, unit_rows(rng, 60, 6))
        radius = 0.15
        fine = local_cell_match(build_index(source), build_index(target), (4, 7), src_descs,
                                tgt_descs, radius)

        src_cell = [i for i in range(50)
                    if math.dist(source.points[i], source.points[4]) <= radius]
        tgt_cell = [j for j in range(60)
                    if math.dist(target.points[j], target.points[7]) <= radius]
        expected = set()
        for i in src_cell:
            dists = [math.dist(src_descs.vectors[i], tgt_descs.vectors[j]) for j in tgt_cell]
            j = tgt_cell[int(np.argmin(dists))]
            back = [math.dist(tgt_descs.vectors[j], src_descs.vectors[s]) for s in src_cell]
            if src_cell[int(np.argmin(back))] == i:
                expected.add((i, j))
        assert {tuple(p) for p in fine.pairs.tolist()} == expected

    def test_isolated_endpoints_fall_back_to_self_pair(self, rng):
        # Cells always contain their own endpoint, so the smallest possible
        # outcome for a valid pair is the endpoints' own mutual match.
        source = PointCloud(np.array([[0.0, 0.0, 0.0], [9.0, 9.0, 9.0]]))
        target = PointCloud(np.array([[5.0, 5.0, 5.0]]))
        descs_s = DescriptorSet(Level.LOW, unit_rows(rng, 2, 4))
        descs_t = DescriptorSet(Level.LOW, unit_rows(rng, 1, 4))
        fine = local_cell_match(build_index(source), build_index(target), (0, 0), descs_s,
                                descs_t, cell_radius=0.1)
        assert fine.pairs.tolist() == [[0, 0]]

    def test_bad_radius_rejected(self, rng):
        index = build_index(PointCloud(np.zeros((1, 3))))
        descs = DescriptorSet(Level.LOW, unit_rows(rng, 1, 4))
        with pytest.raises(ValidationError):
            local_cell_match(index, index, (0, 0), descs, descs, cell_radius=0.0)

    def test_infinite_radius_rejected(self, rng):
        index = build_index(PointCloud(np.zeros((1, 3))))
        descs = DescriptorSet(Level.LOW, unit_rows(rng, 1, 4))
        with pytest.raises(ValidationError, match="finite"):
            local_cell_match(index, index, (0, 0), descs, descs, cell_radius=np.inf)

    @pytest.mark.parametrize("pair", [(2, 0), (0, 1), (-1, 0), (0, -1)])
    def test_anchor_outside_cloud_rejected(self, rng, pair):
        source = PointCloud(np.zeros((2, 3)))
        target = PointCloud(np.zeros((1, 3)))
        descs_s = DescriptorSet(Level.LOW, unit_rows(rng, 2, 4))
        descs_t = DescriptorSet(Level.LOW, unit_rows(rng, 1, 4))
        with pytest.raises(ValidationError, match="outside the clouds"):
            local_cell_match(build_index(source), build_index(target), pair, descs_s, descs_t,
                             cell_radius=0.1)


class TestSelectFineSubset:
    def _scores(self, detection):
        detection = np.asarray(detection, dtype=np.float64)
        return ScoreSet(Level.LOW, detection, np.ones_like(detection))

    def test_full_fraction_keeps_all(self, rng):
        pairs = np.column_stack([np.arange(6), np.arange(6)])
        fine = CorrespondenceSet(pairs, np.ones(6), Stage.FINE)
        kept = select_fine_subset(fine, self._scores(rng.uniform(0, 1, 6)), 1.0)
        assert sorted(kept.pairs[:, 0].tolist()) == list(range(6))

    def test_top_two_of_four(self):
        pairs = np.array([[0, 0], [1, 1], [2, 2], [3, 3]])
        fine = CorrespondenceSet(pairs, np.ones(4), Stage.FINE)
        kept = select_fine_subset(fine, self._scores([0.1, 0.9, 0.5, 0.7]), 0.5)
        assert kept.pairs[:, 0].tolist() == [1, 3]
        np.testing.assert_allclose(kept.weights, [0.9, 0.7])

    def test_matches_sort_oracle(self, rng):
        n = 37
        pairs = np.column_stack([rng.integers(0, 50, n), rng.integers(0, 50, n)])
        fine = CorrespondenceSet(pairs, np.ones(n), Stage.FINE)
        detection = rng.uniform(0, 1, size=50)
        fraction = 0.4
        kept = select_fine_subset(fine, self._scores(detection), fraction)
        order = sorted(range(n), key=lambda i: (-detection[pairs[i, 0]], pairs[i, 0]))
        expected = [tuple(pairs[i]) for i in order[: math.ceil(fraction * n)]]
        assert [tuple(p) for p in kept.pairs.tolist()] == expected

    def test_empty_input_empty_output(self, rng):
        fine = CorrespondenceSet(np.empty((0, 2)), np.empty(0), Stage.FINE)
        subset = select_fine_subset(fine, self._scores(rng.uniform(0, 1, 5)), 0.5)
        assert subset.pairs.shape == (0, 2) and subset.pairs.dtype == np.intp
        assert subset.weights.shape == (0,) and subset.weights.dtype == np.float64
        assert subset.stage == Stage.FINE

    def test_bad_fraction(self, rng):
        fine = CorrespondenceSet(np.array([[0, 0]]), np.ones(1), Stage.FINE)
        with pytest.raises(ValidationError):
            select_fine_subset(fine, self._scores([1.0]), 0.0)

    def test_index_past_scores_rejected(self):
        fine = CorrespondenceSet(np.array([[0, 0], [4, 1]]), np.ones(2), Stage.FINE)
        with pytest.raises(ValidationError, match=r"source indices must lie in \[0, 4\)"):
            select_fine_subset(fine, self._scores([0.5] * 4), 0.5)


_DESCRIBE_PARAMS = {
    "default": DescriptorParams(),
    "distinct-normal-radius": DescriptorParams(normal_radius=0.15),
    "normal-radius-is-high": DescriptorParams(normal_radius=0.4),
}


class TestDescribeCloud:
    """``describe_cloud`` returns an index holding only the low-radius graph,
    whose rows are the cells fine matching reads."""

    @pytest.fixture(scope="class")
    def scene(self):
        return generate_scene(SceneSpec(shape="room", n_points=1500, overlap=0.8,
                                        noise_sigma=0.003, seed=11))

    @pytest.mark.parametrize("name", list(_DESCRIBE_PARAMS))
    def test_index_keeps_only_the_low_radius_graph(self, scene, name):
        params = _DESCRIBE_PARAMS[name]
        cloud = scene.source
        index, low, high = describe_cloud(cloud, params)
        assert set(index._graphs) == {params.low_radius}

        # The same descriptors as from an index that keeps every graph.
        fresh = build_index(cloud)
        normals = estimate_normals(cloud, params.normal_radius, index=fresh)
        for level, got in ((Level.LOW, low), (Level.HIGH, high)):
            expected = compute_descriptors(cloud, level, params, normals, fresh)
            assert np.array_equal(got.vectors, expected.vectors), level
        assert set(fresh._graphs) == {params.low_radius, params.normal_radius,
                                      params.high_radius}

        # Fine cells are rows of the kept graph: no new kd-tree query.
        tree = count_tree_queries(index)
        for anchor in (0, 700, len(cloud) - 1):
            local_cell_match(index, index, (anchor, anchor), low, low, params.low_radius)
        assert tree.queries == 0

    @pytest.mark.parametrize("name", list(_DESCRIBE_PARAMS))
    def test_register_matches_an_index_that_keeps_every_graph(self, scene, name,
                                                              monkeypatch):
        params = _DESCRIBE_PARAMS[name]
        config = RunConfig(seed=11, descriptor=params)
        released = register_arrays(register(scene.source, scene.target, config))
        monkeypatch.setattr(SpatialIndex, "keep_graphs", lambda self, *radii: None)
        index, _, _ = describe_cloud(scene.source, params)
        assert params.high_radius in index._graphs
        kept = register_arrays(register(scene.source, scene.target, config))
        for key, expected in kept.items():
            assert np.array_equal(released[key], expected), key


class TestRegister:
    def test_identity_problem(self):
        scene = generate_scene(SceneSpec(shape="room", n_points=1500, overlap=1.0,
                                         noise_sigma=0.0, seed=5,
                                         transform=RigidTransform.identity()))
        result = register(scene.source, scene.target, RunConfig(seed=5))
        assert rotation_error(result.transform, RigidTransform.identity()) < np.degrees(1e-6)
        assert translation_error(result.transform, RigidTransform.identity()) < 1e-6

    def test_recovers_synthetic_scene(self):
        scene = generate_scene(SceneSpec(shape="room", n_points=3000, overlap=0.8,
                                         noise_sigma=0.003, seed=11))
        result = register(scene.source, scene.target, RunConfig(seed=11))
        assert rotation_error(result.transform, scene.transform) < 2.0
        assert translation_error(result.transform, scene.transform) < 0.05
        assert result.inlier_count >= 10
        assert list(result.timings_ms) == ["descriptors_ms", "scores_ms", "coarse_match_ms",
                                           "ransac_ms", "fine_match_ms", "svd_ms", "total_ms"]
        assert all(ms >= 0 for ms in result.timings_ms.values())

    def test_stages_compose_to_register(self):
        """``describe`` of each cloud, ``coarse`` and ``refine`` called one by
        one give ``register``'s result bit for bit."""
        scene = generate_scene(SceneSpec(shape="room", n_points=2000, overlap=0.7, seed=7))
        config = RunConfig(seed=7)
        result = register(scene.source, scene.target, config)
        src = describe(scene.source, config.descriptor)
        tgt = describe(scene.target, config.descriptor)
        matched = coarse(src, tgt, config)
        transform, fine, timings = refine(src, tgt, matched, config)

        def bits(*arrays):
            return [(a.dtype, a.shape, a.tobytes()) for a in arrays]

        for got, want in ((transform, result.transform),
                          (matched.transform, result.coarse_transform)):
            assert bits(got.rotation, got.translation) == bits(want.rotation, want.translation)
        for got, want in ((matched.correspondences, result.coarse), (fine, result.fine)):
            assert got.stage == want.stage
            assert bits(got.pairs, got.weights) == bits(want.pairs, want.weights)
        assert len(fine) > 0
        assert int(matched.inlier_mask.sum()) == result.inlier_count
        assert matched.iterations == result.iterations_used
        assert list(matched.timings_ms) + list(timings) == [
            "scores_ms", "coarse_match_ms", "ransac_ms", "fine_match_ms", "svd_ms"]

    def test_zero_overlap_fails_at_coarse_stage(self, rng):
        a = PointCloud(rng.uniform(0, 0.8, size=(400, 3)))
        b = PointCloud(rng.uniform(50, 50.8, size=(400, 3)))
        with pytest.raises((NoConsensusError, DegenerateGeometryError)) as info:
            register(a, b, RunConfig(seed=0))
        assert getattr(info.value, "stage", None) == "coarse"

    @pytest.mark.parametrize("pair", ["flat plane", "60-point room"])
    def test_zero_weight_fine_pairs_fail_at_fine_stage(self, pair):
        """Every kept fine pair has a source LOW detection of 0: the pair is
        degenerate at the fine stage, not an invalid input."""
        if pair == "flat plane":
            points = np.random.default_rng(1).random((2000, 3))
            points[:, 2] = 0.0
            source = target = PointCloud(points)
        else:
            scene = generate_scene(SceneSpec(seed=3, n_points=60))
            source, target = scene.source, scene.target
        with pytest.raises(DegenerateGeometryError, match="zero weight") as info:
            register(source, target)
        assert info.value.stage == "fine"

    def test_deterministic(self):
        scene = generate_scene(SceneSpec(shape="box", n_points=1200, overlap=0.9,
                                         noise_sigma=0.002, seed=3))
        config = RunConfig(seed=3)
        a = register(scene.source, scene.target, config)
        b = register(scene.source, scene.target, config)
        np.testing.assert_array_equal(a.transform.rotation, b.transform.rotation)
        np.testing.assert_array_equal(a.fine.pairs, b.fine.pairs)
