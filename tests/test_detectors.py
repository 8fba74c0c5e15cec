"""Saliency scoring, overlap heuristic, and proportional keypoint sampling."""

import numpy as np
import pytest

from hireg import (
    DegenerateScoreError,
    DescriptorParams,
    DescriptorSet,
    Level,
    PointCloud,
    ValidationError,
    build_index,
    compute_descriptors,
    sample_keypoints,
    score_overlap_heuristic,
    score_saliency,
)
from hireg import detectors
from hireg.cloud import SpatialIndex
from hireg.detectors import KeypointSet, ScoreSet, pairwise_feature_nn

from conftest import unit_rows


class TestScoreSet:
    def test_detection_is_exact_product(self, rng):
        match = rng.uniform(0, 1, size=20)
        over = rng.uniform(0, 1, size=20)
        scores = ScoreSet(Level.LOW, match, over)
        np.testing.assert_array_equal(scores.detection, match * over)

    def test_detection_never_exceeds_either_factor(self, rng):
        match = rng.uniform(0, 1, size=50)
        over = rng.uniform(0, 1, size=50)
        scores = ScoreSet(Level.HIGH, match, over)
        assert np.all(scores.detection <= match + 1e-15)
        assert np.all(scores.detection <= over + 1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            ScoreSet(Level.LOW, [1.5], [0.5])
        with pytest.raises(ValidationError):
            ScoreSet(Level.LOW, [0.5, 0.2], [0.5])


def brute_force_nn(queries, references):
    """Nearest reference row by exact squared distance, ties to the lowest
    index, and the distance as ``pairwise_feature_nn`` computes it."""
    idx = np.empty(len(queries), dtype=np.intp)
    order = np.arange(len(references))
    for i, query in enumerate(queries):
        diff = references - query
        idx[i] = np.lexsort((order, np.einsum("ij,ij->i", diff, diff)))[0]
    diff = queries - references[idx]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff)), idx


def at_squared_distance(rng, query, d2):
    """A row at squared distance ``d2`` from ``query``, in a random direction."""
    direction = rng.normal(size=query.shape)
    return query + direction / np.linalg.norm(direction) * np.sqrt(d2)


class TestFeatureNNTies:
    """Rows whose runner-up lies within the tie band of the winner in the
    float32 expanded form are re-decided from exact distances; the rest keep
    the argmin."""

    def _check(self, queries, references):
        want = brute_force_nn(queries, references)
        for block in (1, 128):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(detectors, "_CHUNK_QUERIES", block)
                dist, idx = pairwise_feature_nn(queries, references)
            assert np.array_equal(idx, want[1]), block
            assert np.array_equal(dist, want[0]), block
        return want[1]

    def test_duplicate_references_resolve_to_lowest_index(self, rng):
        references = unit_rows(rng, 40, 12)
        references[[9, 23, 31]] = references[17]
        references[[3, 30]] = references[5]
        queries = np.vstack([references[[17, 5, 23]] + 1e-4 * rng.normal(size=(3, 12)),
                             references[[31, 30]], unit_rows(rng, 20, 12)])
        idx = self._check(queries, references)
        assert list(idx[:5]) == [9, 3, 9, 9, 3]

    @pytest.mark.parametrize("gap, tied", [(0.5e-10, True), (2e-10, False)])
    def test_runner_up_near_the_floor(self, rng, gap, tied):
        queries = unit_rows(rng, 30, 16)
        references = unit_rows(rng, 60, 16) * 3.0
        # The runner-up sits at a lower index than the winner.
        for i, query in enumerate(queries):
            references[2 * i + 1] = at_squared_distance(rng, query, 0.01)
            references[2 * i] = at_squared_distance(rng, query, 0.01 + gap)
        idx = self._check(queries, references)
        assert np.array_equal(idx, 2 * np.arange(len(queries)) + 1)
        # The runner-up lies within 1e-10 of the winner, or beyond it; both
        # lie well inside the float32 tie band.
        d2 = ((queries[:, None, :] - references[None, :, :]) ** 2).sum(axis=2)
        rows = np.arange(len(queries))
        assert np.all((d2[rows, 2 * rows] - d2[rows, 2 * rows + 1] <= 1e-10) == tied)

    def test_ties_below_rounding_noise_follow_exact_distances(self, rng):
        # Squared distances 1e-17 apart, below the expanded form's noise, so
        # its argmin alone picks the wrong row for some queries.
        queries = unit_rows(rng, 200, 8)
        references = np.empty((400, 8))
        for i, query in enumerate(queries):
            references[2 * i] = at_squared_distance(rng, query, 0.5 + 1e-16)
            references[2 * i + 1] = at_squared_distance(rng, query, 0.5)
        q2 = np.einsum("ij,ij->i", queries, queries)
        r2 = np.einsum("ij,ij->i", references, references)
        expanded = (q2[:, None] + r2[None, :] - (2.0 * queries) @ references.T).argmin(axis=1)
        _, exact = brute_force_nn(queries, references)
        assert (expanded != exact).any()
        self._check(queries, references)

    def test_single_reference_row(self, rng):
        references = unit_rows(rng, 1, 10)
        queries = np.vstack([references, unit_rows(rng, 150, 10)])
        idx = self._check(queries, references)
        assert not idx.any()

    @pytest.mark.parametrize("norm", [1e3, 1e4])
    def test_long_rows_follow_exact_distances(self, norm):
        """Runner-ups within 4e-8 (norm / 1e3)^2 of the winner: a fixed
        absolute band of 1e-10 would be narrower than the expanded form's
        error at these norms and keep wrong winners; the band scales with
        the norms."""
        rng = np.random.default_rng(3)
        queries = unit_rows(rng, 1000, 36) * norm
        references = np.empty((2000, 36))
        gaps = rng.uniform(0.0, 4e-8 * (norm / 1e3) ** 2, size=len(queries))
        for i, query in enumerate(queries):
            references[2 * i + 1] = at_squared_distance(rng, query, 0.01)
            references[2 * i] = at_squared_distance(rng, query, 0.01 + gaps[i])
        self._check(queries, references)

    @staticmethod
    def _redecided(monkeypatch) -> list:
        """Query rows that ``pairwise_feature_nn`` re-decides from exact
        distances, recorded from now on."""
        rows = []
        exact_nearest = detectors._exact_nearest

        def spy(queries, references, tied, *args):
            rows.extend(tied.tolist())
            return exact_nearest(queries, references, tied, *args)

        monkeypatch.setattr(detectors, "_exact_nearest", spy)
        return rows

    @pytest.mark.parametrize("dim", [36, 99])
    @pytest.mark.parametrize("norm", [1.0, 3.0])
    @pytest.mark.parametrize("fraction, tied", [(0.9, True), (1.1, False)])
    def test_runner_up_at_the_band_edge(self, rng, monkeypatch, dim, norm, fraction, tied):
        """The runner-up sits at ``fraction`` of the band above the winner,
        at a lower index. A reference of norm 1.5 ``norm`` sets the largest
        norms, so the band is 2 (D + 4) u (2.5 norm)^2."""
        queries = unit_rows(rng, 40, dim) * norm
        references = np.empty((2 * len(queries) + 1, dim))
        references[-1] = unit_rows(rng, 1, dim)[0] * 1.5 * norm
        band = detectors._tie_band(dim, 2.5 * norm, np.float32)
        assert band == 2 * (dim + 4) * (2.0 ** -24 * (2.5 * norm) ** 2
                                        + 2.0 ** -149 * (1 + 2.5 * norm))
        for i, query in enumerate(queries):
            references[2 * i + 1] = at_squared_distance(rng, query, 0.01 * norm ** 2)
            references[2 * i] = at_squared_distance(rng, query, 0.01 * norm ** 2
                                                    + fraction * band)
        assert np.linalg.norm(references[:-1], axis=1).max() < 1.5 * norm
        redecided = self._redecided(monkeypatch)
        idx = self._check(queries, references)
        assert np.array_equal(idx, 2 * np.arange(len(queries)) + 1)
        expected = list(range(len(queries))) if tied else []
        assert sorted(redecided) == sorted(2 * expected)  # once per block size

    @pytest.mark.parametrize("lattice, signs", [
        (([2081, 2115], [4126, -35], [-69, 4160]), ([1, -1], [1, -1], [-1, -1])),
        (([-2062, -2126], [55, -4198], [-4134, -9]), ([1, -1], [1, -1], [1, -1])),
        (([2115, 2099], [-5, 4192], [4208, -21]), ([-1, 1], [1, 1], [-1, -1])),
    ])
    def test_float32_errors_that_add_up(self, monkeypatch, lattice, signs):
        """A query and two references on the circle through the origin
        around it, so their expanded forms nearly cancel. Each coordinate
        lies 0.999 of half a float32 ulp from a float32 of at most 12
        significant bits (the lattice point times 2^-11), on the given side.
        So every float32 product is exact and the dot product rounds once,
        in any summation order, and the sides are chosen so that the errors
        of the two references add up: the exact winner, reference 0, lies
        above the float32 winner by more than a candidate limit of floor +
        band / 8 would keep, and inside the band. On such inputs the error
        found stays below band / 4."""
        def rows(points, sides):
            v = np.asarray(points, dtype=np.float64) * 2.0 ** -11
            return v + np.asarray(sides) * 0.999 * np.ldexp(1.0, np.frexp(v)[1] - 25)

        query = rows(lattice[:1], signs[:1])
        references = rows(lattice[1:], signs[1:])
        assert np.array_equal(references.astype(np.float32),
                              np.asarray(lattice[1:]) * 2.0 ** -11)
        # The expanded form as ``pairwise_feature_nn`` evaluates it.
        r2 = np.einsum("ij,ij->i", references, references)
        d2 = (-2 * query.astype(np.float32)) @ references.astype(np.float32).T
        d2 = (d2 + r2.astype(np.float32))[0]
        scale = np.linalg.norm(query) + np.linalg.norm(references, axis=1).max()
        band = detectors._tie_band(2, scale, np.float32)
        narrow = np.nextafter(np.float32(d2[1] + band / 8), np.float32(np.inf))
        assert narrow < d2[0] and d2[0] - np.float64(d2[1]) <= band
        redecided = self._redecided(monkeypatch)
        assert list(self._check(query, references)) == [0]
        assert redecided == [0, 0]  # once per block size

    def test_zero_rows(self, rng, monkeypatch):
        references = np.vstack([unit_rows(rng, 5, 12), np.zeros((3, 12)), unit_rows(rng, 5, 12),
                                np.zeros((2, 12))])
        queries = np.vstack([np.zeros((4, 12)), references[:5], unit_rows(rng, 20, 12)])
        redecided = self._redecided(monkeypatch)
        idx = self._check(queries, references)
        assert list(idx[:4]) == [5, 5, 5, 5]
        assert set(range(4)) <= set(redecided)
        # With no nonzero row at all, every distance ties at zero.
        assert not self._check(np.zeros((6, 12)), np.zeros((9, 12))).any()

    @pytest.mark.parametrize("chunk", [7, 1 << 12])
    def test_duplicate_heavy_block(self, rng, monkeypatch, chunk):
        """Every query of a 128-row block is near-tied with 200 duplicate
        references, so the re-decision runs in many candidate chunks and
        must keep the lowest index across chunk boundaries."""
        monkeypatch.setattr(detectors, "_CHUNK_CANDIDATES", chunk)
        references = unit_rows(rng, 300, 20)
        duplicates = np.sort(rng.choice(300, size=200, replace=False))
        references[duplicates] = references[duplicates[0]]
        queries = np.vstack([np.repeat(references[duplicates[:1]], 100, axis=0),
                             references[duplicates[:1]] + 1e-9 * rng.normal(size=(28, 20))])
        redecided = self._redecided(monkeypatch)
        idx = self._check(queries, references)
        assert (idx[:100] == duplicates[0]).all()
        assert sorted(redecided) == sorted(2 * list(range(128)))

    def test_squared_norms_beyond_float32_run_in_float64(self, rng):
        queries = unit_rows(rng, 50, 8) * 1e20
        references = np.vstack([queries[::2] + 1e4 * rng.normal(size=(25, 8)),
                                unit_rows(rng, 30, 8) * 1e20])
        idx = self._check(queries, references)
        assert np.array_equal(idx[::2], np.arange(25))


class TestScoreSaliency:
    def test_uniform_plane_interior_near_zero(self):
        g = np.arange(25) * 0.03
        plane = PointCloud(np.array([[x, y, 0.0] for x in g for y in g]))
        index = build_index(plane)
        descs = compute_descriptors(plane, Level.LOW, DescriptorParams(), index=index)
        scores = score_saliency(plane, descs, index, k=8)
        interior = [i for i, p in enumerate(plane.points)
                    if 0.24 <= p[0] <= 0.48 and 0.24 <= p[1] <= 0.48]
        assert scores[interior].max() < 0.05

    def test_corner_points_in_top_decile(self):
        # flat plane plus one small raised box corner: its points are the
        # only structure and must land in the saliency top decile
        g = np.arange(25) * 0.03
        plane = [[x, y, 0.0] for x in g for y in g]
        s = np.arange(3) * 0.03
        box = [[0.3 + a, 0.3 + b, 0.09] for a in s for b in s]
        box += [[0.3 + a, 0.3, 0.0 + c] for a in s for c in s if c > 0]
        box += [[0.3, 0.3 + b, 0.0 + c] for b in s for c in s if c > 0]
        points = np.vstack([plane, box])
        cloud = PointCloud(points)
        index = build_index(cloud)
        descs = compute_descriptors(cloud, Level.LOW, DescriptorParams(), index=index)
        scores = score_saliency(cloud, descs, index, k=8)
        top_decile = np.quantile(scores, 0.9)
        corner = np.arange(len(plane), len(points))
        assert np.mean(scores[corner] >= top_decile) >= 0.75

    def test_identical_descriptors_score_zero(self, rng):
        cloud = PointCloud(rng.uniform(0, 1, size=(30, 3)))
        vec = np.zeros((30, 5))
        vec[:, 0] = 1.0
        scores = score_saliency(cloud, DescriptorSet(Level.LOW, vec),
                                build_index(cloud), k=4)
        np.testing.assert_array_equal(scores, 0.0)

    def test_scores_in_unit_interval(self, rng):
        cloud = PointCloud(rng.uniform(0, 0.5, size=(100, 3)))
        index = build_index(cloud)
        descs = compute_descriptors(cloud, Level.LOW, DescriptorParams(), index=index)
        scores = score_saliency(cloud, descs, index, k=6)
        assert scores.min() >= 0.0 and scores.max() <= 1.0

    def test_levels_of_one_cloud_share_one_knn_query(self, rng, monkeypatch):
        cloud = PointCloud(rng.uniform(0, 0.5, size=(200, 3)))
        index = build_index(cloud)
        params = DescriptorParams()
        levels = [compute_descriptors(cloud, level, params, index=index)
                  for level in (Level.LOW, Level.HIGH)]
        copy = PointCloud(cloud.points)
        fresh = [score_saliency(copy, descs, build_index(copy), k=6) for descs in levels]
        queries = []
        knn_batch = SpatialIndex.knn_batch

        def counted(self, centers, k):
            queries.append(k)
            return knn_batch(self, centers, k)

        monkeypatch.setattr(SpatialIndex, "knn_batch", counted)
        # An equal but distinct cloud shares the index's one memoised query.
        for scored in (cloud, copy):
            for descs, expected in zip(levels, fresh):
                scores = score_saliency(scored, descs, index, k=6)
                assert scores.dtype == expected.dtype and np.array_equal(scores, expected)
        assert queries == [7]

    def test_cloud_too_small_rejected(self, rng):
        cloud = PointCloud(rng.normal(size=(5, 3)))
        descs = DescriptorSet(Level.LOW, unit_rows(rng, 5, 4))
        with pytest.raises(ValidationError):
            score_saliency(cloud, descs, build_index(cloud), k=5)
        with pytest.raises(ValidationError):
            score_saliency(cloud, descs, build_index(cloud), k=1)


class TestScoreOverlapHeuristic:
    def test_identical_sets_score_one(self, rng):
        descs = DescriptorSet(Level.HIGH, unit_rows(rng, 25, 6))
        scores = score_overlap_heuristic(descs, descs)
        np.testing.assert_allclose(scores, 1.0)

    def test_orthogonal_target_strictly_below_one(self, rng):
        src = np.zeros((10, 12))
        src[:, :6] = unit_rows(rng, 10, 6)
        tgt = np.zeros((10, 12))
        tgt[:, 6:] = unit_rows(rng, 10, 6)
        scores = score_overlap_heuristic(DescriptorSet(Level.HIGH, src),
                                         DescriptorSet(Level.HIGH, tgt))
        assert np.all(scores < 1.0)
        assert np.all(scores <= np.exp(-(np.sqrt(2) / np.median(np.sqrt(2))) ** 2) + 1e-12)

    def test_half_overlap_separates_regions(self, rng):
        # source descriptors: first half has exact copies in the target,
        # second half is featurewise far from everything there
        shared = unit_rows(rng, 30, 8)
        unshared = -shared  # antipodal: distance 2 from their counterparts
        src = DescriptorSet(Level.HIGH, np.vstack([shared, unshared]))
        tgt = DescriptorSet(Level.HIGH, np.vstack([shared, unit_rows(rng, 10, 8)]))
        scores = score_overlap_heuristic(src, tgt)
        assert scores[:30].mean() > scores[30:].mean()

    def test_level_mismatch_rejected(self, rng):
        a = DescriptorSet(Level.LOW, unit_rows(rng, 5, 4))
        b = DescriptorSet(Level.HIGH, unit_rows(rng, 5, 4))
        with pytest.raises(ValidationError):
            score_overlap_heuristic(a, b)

    def test_half_overlap_scene_separates_true_overlap(self):
        from hireg import SceneSpec, generate_scene
        scene = generate_scene(SceneSpec(shape="room", n_points=2000, overlap=0.5,
                                         noise_sigma=0.003, seed=17))
        params = DescriptorParams()
        src_high = compute_descriptors(scene.source, Level.HIGH, params)
        tgt_high = compute_descriptors(scene.target, Level.HIGH, params)
        scores = score_overlap_heuristic(src_high, tgt_high)
        inside = scores[scene.overlap_mask]
        outside = scores[~scene.overlap_mask]
        assert inside.mean() > outside.mean()


class TestSampleKeypoints:
    def _scores(self, detection, level=Level.HIGH):
        detection = np.asarray(detection, dtype=np.float64)
        return ScoreSet(level, detection, np.ones_like(detection))

    def test_single_positive_score(self):
        scores = self._scores([0.0, 1.0, 0.0, 0.0])
        kp = sample_keypoints(scores, 1, seed=0)
        assert kp.indices.tolist() == [1]

    def test_never_returns_zero_score_points(self, rng):
        detection = rng.uniform(0, 1, size=40)
        detection[::3] = 0.0
        scores = self._scores(detection)
        for seed in range(20):
            kp = sample_keypoints(scores, 10, seed=seed)
            assert np.all(detection[kp.indices] > 0)

    def test_shortfall_reported(self):
        scores = self._scores([0.4, 0.0, 0.0, 0.6])
        kp = sample_keypoints(scores, 4, seed=1)
        assert sorted(kp.indices.tolist()) == [0, 3]
        assert kp.shortfall == 2

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateScoreError):
            sample_keypoints(self._scores([0.0, 0.0]), 1, seed=0)

    def test_deterministic_given_seed(self, rng):
        scores = self._scores(rng.uniform(0, 1, size=100))
        a = sample_keypoints(scores, 30, seed=5)
        b = sample_keypoints(scores, 30, seed=5)
        assert a.indices.tolist() == b.indices.tolist()

    def test_scale_invariance_of_draw(self, rng):
        detection = rng.uniform(0, 1, size=60)
        base = sample_keypoints(self._scores(detection), 20, seed=11)
        scaled = sample_keypoints(self._scores(np.clip(detection * 0.37, 0, 1)), 20, seed=11)
        assert base.indices.tolist() == scaled.indices.tolist()

    def test_uniform_scores_uniform_frequency(self):
        # 10k seeded single draws over 8 equal scores: each point should be
        # selected ~1/8 of the time within 3 sigma
        scores = self._scores(np.full(8, 0.5))
        counts = np.zeros(8)
        trials = 10_000
        for seed in range(trials):
            counts[sample_keypoints(scores, 1, seed=seed).indices[0]] += 1
        p = 1.0 / 8.0
        sigma = np.sqrt(trials * p * (1 - p))
        assert np.all(np.abs(counts - trials * p) <= 3 * sigma)

    def test_ninety_ten_frequency(self):
        scores = self._scores([0.9, 0.1, 0.0, 0.0])
        trials = 10_000
        hits = sum(sample_keypoints(scores, 1, seed=seed).indices[0] == 0
                   for seed in range(trials))
        sigma = np.sqrt(trials * 0.9 * 0.1)
        assert abs(hits - trials * 0.9) <= 3 * sigma

    def test_unique_indices_enforced(self):
        with pytest.raises(ValidationError):
            KeypointSet(indices=np.array([1, 1]))
