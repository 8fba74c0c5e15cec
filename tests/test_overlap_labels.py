"""``overlap_labels`` at its radius.

A point overlaps when its nearest neighbour in the other cloud, at the
kd-tree's distance, lies no farther than ``radius``: a neighbour at exactly
``radius`` gives bit 1, and one float step below it gives bit 0, in both
directions. On a room pair the bits equal an unbounded nearest-neighbour
search compared with ``<= radius``.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import cKDTree

from hireg import PointCloud, SamplingRadii, SceneSpec, build_index, generate_scene, overlap_labels
from hireg.cloud import transform_points

from conftest import random_transform


def _nearest(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    return cKDTree(points).query(queries, k=1)[0]


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_neighbour_at_radius_is_inside(scale):
    rng = np.random.default_rng(24)
    source = PointCloud(rng.uniform(0.0, scale, size=(60, 3)))
    target = PointCloud(rng.uniform(0.0, scale, size=(80, 3)))
    gt = random_transform(rng, 0.1 * scale)
    aligned = transform_points(source.points, gt)
    for side, dists in enumerate((_nearest(target.points, aligned),
                                  _nearest(aligned, target.points))):
        for i in rng.choice(len(dists), 8, replace=False):
            d = dists[i]
            assert overlap_labels(source, target, gt, d)[side][i] == 1, (side, i)
            below = np.nextafter(d, 0.0)
            assert overlap_labels(source, target, gt, below)[side][i] == 0, (side, i)


def test_room_bits_equal_unbounded_search():
    scene = generate_scene(SceneSpec(shape="room", n_points=5000, overlap=0.7, seed=1))
    aligned = transform_points(scene.source.points, scene.transform)
    d_src = _nearest(scene.target.points, aligned)
    d_tgt = _nearest(aligned, scene.target.points)
    # the last radius is itself one source point's nearest-neighbour distance
    for radius in (SamplingRadii().positive, 0.01, 0.2, np.sort(d_src)[len(d_src) // 2]):
        src_bits, tgt_bits = overlap_labels(scene.source, scene.target, scene.transform, radius)
        assert np.array_equal(src_bits, (d_src <= radius).astype(np.int8)), radius
        assert np.array_equal(tgt_bits, (d_tgt <= radius).astype(np.int8)), radius
        assert 0 < src_bits.sum() < len(src_bits)


def test_knn_bound_reports_missing_neighbours():
    index = build_index(PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])))
    dists, idx = index.knn_batch(np.array([[0.25, 0.0, 0.0], [3.0, 0.0, 0.0]]), 1, 0.5)
    assert dists.ravel().tolist() == [0.25, np.inf]
    assert idx.ravel().tolist() == [0, 2]
