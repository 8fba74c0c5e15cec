"""Cloud, transform, and spatial index contracts.

Every query result is checked against an independent brute-force scan
written with plain python loops.
"""

import sys
import threading

import numpy as np
import pytest

from hireg import (
    DescriptorParams,
    Level,
    PointCloud,
    RigidTransform,
    ValidationError,
    apply_transform,
    build_index,
    compose,
    compute_descriptors,
    estimate_normals,
    invert,
)

from hireg.cloud import member_distances

from conftest import axis_angle_rotation, count_tree_queries, random_transform


def brute_radius(points, center, radius):
    """Linear-scan oracle: indices within the closed ball."""
    hits = []
    for i in range(len(points)):
        d2 = sum((points[i][c] - center[c]) ** 2 for c in range(3))
        if d2 <= radius * radius:
            hits.append(i)
    return set(hits)


def brute_knn(points, center, k):
    """Full-sort oracle: k nearest, ties broken by lower index."""
    keyed = []
    for i in range(len(points)):
        d2 = sum((points[i][c] - center[c]) ** 2 for c in range(3))
        keyed.append((d2, i))
    keyed.sort()
    return [i for _, i in keyed[:k]]


class TestPointCloud:
    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            PointCloud(np.array([[0.0, np.nan, 0.0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            PointCloud(np.zeros((4, 2)))

    def test_points_are_immutable(self):
        cloud = PointCloud(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0

    @pytest.mark.parametrize("points", [np.array([["a", "b", "c"]]),
                                        np.array([[1.0, 2.0, 3.0 + 1e-9j]]),
                                        [[0.0, 1.0, 2.0], [3.0, 4.0]]],
                             ids=["strings", "complex", "ragged"])
    def test_rejects_non_real_points(self, points):
        with pytest.raises(ValidationError, match="points must be numbers"):
            PointCloud(points)


class TestRigidTransform:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValidationError):
            RigidTransform(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValidationError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_rejects_complex_rotation_and_translation(self):
        with pytest.raises(ValidationError, match="rotation must be numbers"):
            RigidTransform(np.eye(3) + 0j, np.zeros(3))
        with pytest.raises(ValidationError, match="translation must be numbers"):
            RigidTransform(np.eye(3), np.array([0.0, 1.0, 2j]))
        with pytest.raises(ValidationError, match="translation must be numbers"):
            RigidTransform(np.eye(3), ["0", "1", "2"])

    def test_identity(self):
        t = RigidTransform.identity()
        assert np.allclose(t.rotation, np.eye(3))
        assert np.allclose(t.translation, 0.0)


class TestApplyTransform:
    def test_identity_returns_same_points(self, rng):
        cloud = PointCloud(rng.normal(size=(20, 3)))
        moved = apply_transform(cloud, RigidTransform.identity())
        np.testing.assert_array_equal(moved.points, cloud.points)

    def test_z_rotation_analytic(self):
        cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]))
        quarter = RigidTransform(axis_angle_rotation([0, 0, 1], np.pi / 2), np.zeros(3))
        np.testing.assert_allclose(apply_transform(cloud, quarter).points,
                                   [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_matches_per_point_oracle(self, rng):
        points = rng.uniform(-2, 2, size=(100, 3))
        t = random_transform(rng)
        moved = apply_transform(PointCloud(points), t).points
        for i in range(100):
            expected = [
                sum(t.rotation[r][c] * points[i][c] for c in range(3)) + t.translation[r]
                for r in range(3)
            ]
            np.testing.assert_allclose(moved[i], expected, atol=1e-12)

    def test_rejects_empty_cloud(self):
        with pytest.raises(ValidationError):
            apply_transform(PointCloud(np.zeros((0, 3))), RigidTransform.identity())

    def test_preserves_pairwise_distances(self, rng):
        points = rng.normal(size=(40, 3))
        t = random_transform(rng)
        moved = apply_transform(PointCloud(points), t).points
        before = np.linalg.norm(points[:, None] - points[None, :], axis=2)
        after = np.linalg.norm(moved[:, None] - moved[None, :], axis=2)
        assert np.abs(before - after).max() < 1e-9


class TestComposeInvert:
    def test_compose_identity(self, rng):
        t = random_transform(rng)
        composed = compose(t, RigidTransform.identity())
        np.testing.assert_allclose(composed.rotation, t.rotation, atol=1e-12)
        np.testing.assert_allclose(composed.translation, t.translation, atol=1e-12)

    def test_compose_with_inverse_is_identity(self, rng):
        t = random_transform(rng)
        round_trip = compose(t, invert(t))
        assert np.abs(round_trip.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(round_trip.translation).max() < 1e-9

    def test_compose_matches_double_application(self, rng):
        a = random_transform(rng)
        b = random_transform(rng)
        points = rng.normal(size=(50, 3))
        cloud = PointCloud(points)
        via_compose = apply_transform(cloud, compose(a, b)).points
        via_two = apply_transform(apply_transform(cloud, b), a).points
        np.testing.assert_allclose(via_compose, via_two, atol=1e-12)

    def test_invert_pure_translation(self):
        t = RigidTransform(np.eye(3), [0.0, 0.0, 1.0])
        np.testing.assert_allclose(invert(t).translation, [0.0, 0.0, -1.0], atol=1e-15)

    def test_invert_round_trip_on_points(self, rng):
        t = random_transform(rng)
        points = rng.normal(size=(50, 3))
        back = apply_transform(apply_transform(PointCloud(points), t), invert(t)).points
        assert np.abs(back - points).max() < 1e-9

    def test_invert_is_involution(self, rng):
        for _ in range(10):
            t = random_transform(rng)
            twice = invert(invert(t))
            assert np.abs(twice.rotation - t.rotation).max() < 1e-9
            assert np.abs(twice.translation - t.translation).max() < 1e-9


class TestSpatialIndex:
    def test_empty_cloud_rejected(self):
        with pytest.raises(ValidationError):
            build_index(PointCloud(np.zeros((0, 3))))

    def test_single_point_radius(self):
        index = build_index(PointCloud(np.array([[1.0, 2.0, 3.0]])))
        assert index.radius_batch(np.array([[1.0, 2.0, 3.0]]), 0.5)[0].tolist() == [0]

    def test_grid_face_neighbors(self):
        # 3x3x3 unit grid: exactly the center and its 6 face neighbors lie
        # within L2 distance 1 of the center.
        coords = np.array([[x, y, z] for x in range(3) for y in range(3) for z in range(3)],
                          dtype=np.float64)
        index = build_index(PointCloud(coords))
        hits = index.radius_batch(np.array([[1.0, 1.0, 1.0]]), 1.0)[0]
        assert len(hits) == 7
        expected = brute_radius(coords.tolist(), [1.0, 1.0, 1.0], 1.0)
        assert set(hits.tolist()) == expected

    def test_radius_empty_and_full(self, rng):
        points = rng.uniform(0, 1, size=(50, 3))
        index = build_index(PointCloud(points))
        far = np.array([10.0, 10.0, 10.0])
        assert index.radius_batch(far[None], 1e-6)[0].size == 0
        centroid = points.mean(axis=0)
        diameter = np.linalg.norm(points[:, None] - points[None, :], axis=2).max()
        assert len(index.radius_batch(centroid[None], diameter + 1.0)[0]) == 50

    def test_radius_matches_brute_force(self, rng):
        points = rng.uniform(-1, 1, size=(500, 3))
        index = build_index(PointCloud(points))
        pts_list = points.tolist()
        for _ in range(20):
            center = rng.uniform(-1, 1, size=3)
            radius = rng.uniform(0.05, 1.0)
            got = set(index.radius_batch(center[None], radius)[0].tolist())
            assert got == brute_radius(pts_list, center.tolist(), radius)

    def test_knn_exact_hit(self, rng):
        points = rng.normal(size=(30, 3))
        index = build_index(PointCloud(points))
        _, idx = index.knn_batch(points[13:14], 1)
        assert idx.tolist() == [[13]]

    def test_knn_full_permutation(self, rng):
        points = rng.normal(size=(25, 3))
        index = build_index(PointCloud(points))
        center = rng.normal(size=3)
        _, idx = index.knn_batch(center[None, :], 25)
        assert idx[0].tolist() == brute_knn(points.tolist(), center.tolist(), 25)

    def test_knn_matches_brute_force(self, rng):
        points = rng.uniform(-1, 1, size=(200, 3))
        index = build_index(PointCloud(points))
        pts_list = points.tolist()
        for _ in range(25):
            center = rng.uniform(-1, 1, size=3)
            k = int(rng.integers(1, 200))
            dists, idx = index.knn_batch(center[None, :], k)
            assert idx[0].tolist() == brute_knn(pts_list, center.tolist(), k)
            np.testing.assert_allclose(
                dists[0], np.linalg.norm(points[idx[0]] - center, axis=1), rtol=1e-12)

    def test_knn_subset_of_radius_at_kth_distance(self, rng):
        points = rng.uniform(-1, 1, size=(120, 3))
        index = build_index(PointCloud(points))
        for _ in range(10):
            center = rng.uniform(-1, 1, size=3)
            k = int(rng.integers(2, 40))
            _, nearest = index.knn_batch(center[None, :], k)
            kth_dist = np.linalg.norm(points[nearest[0, -1]] - center)
            ball = set(index.radius_batch(center[None], kth_dist)[0].tolist())
            assert set(nearest[0].tolist()) <= ball


def graph_distances(graph, points, centers):
    """``member_distances`` of every member of ``graph`` from its row's centre."""
    owners = np.repeat(np.arange(len(graph.offsets) - 1), graph.counts)
    return member_distances(points, centers, graph.indices, owners)


class TestNeighborGraph:
    def _assert_rows_match_radius_query(self, points, radius):
        index = build_index(PointCloud(points))
        graph = index.neighbor_graph(radius)
        assert graph.offsets[0] == 0 and graph.offsets[-1] == len(graph.indices)
        distances = graph_distances(graph, points, points)
        for i, center in enumerate(points):
            row = slice(graph.offsets[i], graph.offsets[i + 1])
            ball = index.radius_batch(center[None], radius)[0]
            assert graph.indices[row].tolist() == ball.tolist()
            expected = np.linalg.norm(points[graph.indices[row]] - center, axis=1)
            np.testing.assert_allclose(distances[row], expected, rtol=1e-15, atol=0)

    def test_rows_equal_radius_query(self, rng):
        self._assert_rows_match_radius_query(rng.uniform(-1, 1, size=(300, 3)), 0.3)

    def test_rows_include_points_on_the_boundary(self):
        # Unit grid at radius 1: every face neighbor sits exactly on the sphere.
        coords = np.array([[x, y, z] for x in range(3) for y in range(3) for z in range(3)],
                          dtype=np.float64)
        self._assert_rows_match_radius_query(coords, 1.0)
        graph = build_index(PointCloud(coords)).neighbor_graph(1.0)
        assert graph.counts[13] == 7

    def test_same_radius_is_memoised(self, rng):
        index = build_index(PointCloud(rng.normal(size=(50, 3))))
        graph = index.neighbor_graph(0.5)
        assert index.neighbor_graph(0.5) is graph
        assert not graph.indices.flags.writeable

    def test_radii_never_collide(self, rng):
        points = rng.uniform(-1, 1, size=(200, 3))
        index = build_index(PointCloud(points))
        small, large = index.neighbor_graph(0.2), index.neighbor_graph(0.4)
        assert small is not large
        assert index.neighbor_graph(0.2) is small
        assert len(small.indices) < len(large.indices)
        fresh = build_index(PointCloud(points))
        for radius, graph in ((0.2, small), (0.4, large)):
            assert np.array_equal(graph.indices, fresh.neighbor_graph(radius).indices)

    def test_shared_normal_and_low_radius_query_once(self, rng):
        cloud = PointCloud(rng.uniform(0, 0.5, size=(300, 3)))
        params = DescriptorParams()
        assert params.normal_radius == params.low_radius
        index = build_index(cloud)
        tree = count_tree_queries(index)
        normals = estimate_normals(cloud, params.normal_radius, index=index)
        for level in (Level.LOW, Level.HIGH):
            compute_descriptors(cloud, level, params, normals, index)
        # One query per distinct radius: normal == low, then high.
        assert tree.queries == 2

    def test_keep_graphs_releases_the_other_radii(self, rng):
        index = build_index(PointCloud(rng.uniform(-1, 1, size=(200, 3))))
        small, large = index.neighbor_graph(0.2), index.neighbor_graph(0.4)
        index.keep_graphs(0.2)
        assert set(index._graphs) == {0.2}
        assert index.neighbor_graph(0.2) is small
        # A released graph stays valid, and asking again rebuilds the same one.
        again = index.neighbor_graph(0.4)
        assert again is not large
        for name in ("offsets", "indices"):
            assert np.array_equal(getattr(again, name), getattr(large, name))
        index.keep_graphs()
        assert index._graphs == {}

    def test_threads_racing_on_the_memo_get_equal_graphs(self, rng):
        points = rng.uniform(-1, 1, size=(400, 3))
        radii = (0.1, 0.2, 0.3)
        expected = {r: build_index(PointCloud(points)).neighbor_graph(r) for r in radii}
        index = build_index(PointCloud(points))
        seen, errors = [], []

        def worker():
            try:
                for radius in radii * 3:
                    seen.append((radius, index.neighbor_graph(radius)))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(seen) == 6 * 9
        for radius, graph in seen:
            for name in ("offsets", "indices"):
                assert np.array_equal(getattr(graph, name), getattr(expected[radius], name))
        assert set(index._graphs) == set(radii)

    def test_self_knn_is_memoised_per_k(self, rng):
        points = rng.uniform(-1, 1, size=(150, 3))
        index = build_index(PointCloud(points))
        for k in (5, 9):
            dists, idx = index.self_knn(k)
            assert index.self_knn(k)[1] is idx
            assert not dists.flags.writeable and not idx.flags.writeable
            raw_dists, raw_idx = index.knn_batch(points, k)
            assert np.array_equal(idx, raw_idx) and np.array_equal(dists, raw_dists)
        assert set(index._self_knn) == {5, 9}

    def test_radius_batch_without_centers(self, rng):
        index = build_index(PointCloud(rng.normal(size=(5, 3))))
        assert index.radius_batch(np.empty((0, 3)), 0.5) == []


class TestDroppedCandidates:
    """The kd-tree is asked for a slightly inflated radius, so a point just
    outside the closed ball can come back as a candidate and must be dropped.
    Each centre here has members at exactly ``r`` and a point at
    ``r * (1 + 1e-13)``, inside that slack but outside the ball; every offset
    is axis-aligned, so each distance is exact."""

    RADIUS = 0.5

    @classmethod
    def _points(cls) -> np.ndarray:
        r, beyond = cls.RADIUS, cls.RADIUS * (1 + 1e-13)
        steps = np.array([[r, 0, 0], [0, 0, -r], [0, beyond, 0], [0, 0, beyond]])
        centers = np.column_stack([np.arange(4) * 10.0, np.zeros(4), np.zeros(4)])
        return np.vstack([centers] + [c + steps for c in centers])

    @staticmethod
    def _brute(points, centers, radius):
        """Offsets, indices and distances of closed balls, one scan per centre."""
        rows = [np.flatnonzero(np.linalg.norm(points - c, axis=1) <= radius) for c in centers]
        offsets = np.concatenate(([0], np.cumsum([len(row) for row in rows])))
        indices = np.concatenate(rows)
        centre_of = np.repeat(np.arange(len(centers)), np.diff(offsets))
        return offsets, indices, np.linalg.norm(points[indices] - centers[centre_of], axis=1)

    def test_candidates_outside_the_ball_are_dropped(self):
        points = self._points()
        index = build_index(PointCloud(points))
        pairs = index._tree.query_pairs(self.RADIUS * (1 + 1e-12))
        assert (0, 6) in pairs and np.linalg.norm(points[6] - points[0]) > self.RADIUS
        graph = index.neighbor_graph(self.RADIUS)
        offsets, indices, distances = self._brute(points, points, self.RADIUS)
        assert np.array_equal(graph.offsets, offsets)
        assert np.array_equal(graph.indices, indices)
        assert np.array_equal(graph_distances(graph, points, points), distances)
        assert graph.row(0).tolist() == [0, 4, 5]

    def test_radius_batch_drops_them_too(self):
        points = self._points()
        index = build_index(PointCloud(points))
        centers = points[:4]
        offsets, indices, _ = self._brute(points, centers, self.RADIUS)
        balls = index.radius_batch(centers, self.RADIUS)
        assert [ball.tolist() for ball in balls] == \
            [indices[lo:hi].tolist() for lo, hi in zip(offsets[:-1], offsets[1:])]

    def test_radius_graph_of_other_centres(self):
        """The graph ``radius_batch`` splits: exact offsets, indices and
        distances, with centres between and beyond the cloud's points."""
        points = self._points()
        index = build_index(PointCloud(points))
        centers = np.vstack([points[:4], points[:3] + [5.0, 0.0, 0.0], [[100.0, 0.0, 0.0]]])
        graph = index.radius_graph(centers, self.RADIUS)
        for got, expected in zip((graph.offsets, graph.indices,
                                  graph_distances(graph, points, centers)),
                                 self._brute(points, centers, self.RADIUS)):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert graph.counts.tolist() == [3, 3, 3, 3, 0, 0, 0, 0]
        empty = index.radius_graph(np.empty((0, 3)), self.RADIUS)
        assert empty.offsets.tolist() == [0] and empty.indices.dtype == np.intp
        assert empty.indices.size == 0

    def test_radius_batch_with_no_candidates(self, rng):
        index = build_index(PointCloud(rng.uniform(0, 1, size=(20, 3))))
        balls = index.radius_batch(np.full((3, 3), 50.0), 0.5)
        assert len(balls) == 3 and all(ball.size == 0 for ball in balls)

    def test_one_point_cloud(self):
        index = build_index(PointCloud(np.array([[1.0, 2.0, 3.0]])))
        graph = index.neighbor_graph(0.5)
        assert graph.offsets.tolist() == [0, 1] and graph.indices.tolist() == [0]
        assert graph_distances(graph, index.cloud.points, index.cloud.points).tolist() == [0.0]
        balls = index.radius_batch(np.array([[1.0, 2.0, 3.0], [9.0, 9.0, 9.0]]), 0.5)
        assert [ball.tolist() for ball in balls] == [[0], []]
