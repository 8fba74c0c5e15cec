"""Low-level descriptors of chosen centres, and ``register`` computing the
target's low level only inside the fine cells.

A subset row must have the bits of the whole-cloud row, whatever the subset,
the worker count and the triple budget of a centre chunk.
"""

from __future__ import annotations

import numpy as np
import pytest

from hireg import (
    DescriptorParams,
    Level,
    PointCloud,
    RunConfig,
    SceneSpec,
    ValidationError,
    build_index,
    compute_descriptors,
    describe_cloud,
    estimate_normals,
    generate_scene,
    local_cell_match,
    register,
)
from hireg import descriptors, matching
from hireg.cloud import transform_points

from test_kernel_pool import _on_each_pool


@pytest.fixture(scope="module")
def dense():
    """A dense cluster whose central balls hold well over 96 members, in a
    sparse cloud; its normals and low-radius graph are built once."""
    rng = np.random.default_rng(5)
    pc = PointCloud(np.vstack([rng.uniform(-0.05, 0.05, size=(400, 3)),
                               rng.uniform(-1.0, 1.0, size=(200, 3))]))
    params = DescriptorParams(low_radius=0.05, high_radius=0.3, normal_radius=0.08)
    index = build_index(pc)
    normals = estimate_normals(pc, params.normal_radius, index=index)
    assert index.neighbor_graph(params.low_radius).counts.max() > 96
    return pc, params, index, normals


@pytest.mark.parametrize("budget", [1, 7])
def test_subset_rows_equal_whole_cloud_rows(dense, monkeypatch, budget):
    pc, params, index, normals = dense
    whole = compute_descriptors(pc, Level.LOW, params, normals, index).vectors
    counts = index.neighbor_graph(params.low_radius).counts
    rng = np.random.default_rng(0)
    subsets = {
        "empty": np.empty(0, dtype=np.intp),
        "one row": np.array([int(counts.argmax())]),
        "all rows": np.arange(len(pc)),
        "sorted": np.sort(rng.choice(len(pc), size=150, replace=False)),
        "any order": rng.permutation(len(pc))[:90],
    }
    monkeypatch.setattr(descriptors, "_CHUNK_TRIPLES", budget)

    def run():
        return {name: compute_descriptors(pc, Level.LOW, params, normals, index,
                                          centers=centers)
                for name, centers in subsets.items()}

    for result in _on_each_pool(monkeypatch, run):
        for name, centers in subsets.items():
            got = result[name]
            assert got.level == Level.LOW and got.vectors.shape == (len(centers), whole.shape[1])
            assert np.array_equal(got.vectors, whole[centers]), name


def test_centers_are_checked(dense):
    pc, params, index, normals = dense
    with pytest.raises(ValidationError, match="low level only"):
        compute_descriptors(pc, Level.HIGH, params, normals, index, centers=[0])
    for centers in ([-1], [len(pc)]):
        with pytest.raises(ValidationError, match=rf"centers must lie in \[0, {len(pc)}\)"):
            compute_descriptors(pc, Level.LOW, params, normals, index, centers=centers)


def test_cell_reads_rows_of_a_subset(dense):
    pc, params, index, normals = dense
    _, low, _ = describe_cloud(pc, params)
    graph = index.neighbor_graph(params.low_radius)
    anchor = int(graph.counts.argmax())
    members = graph.row(anchor)
    subset = compute_descriptors(pc, Level.LOW, params, normals, index, centers=members)
    want = local_cell_match(index, index, (anchor, anchor), low, low, params.low_radius)
    got = local_cell_match(index, index, (anchor, anchor), low, subset, params.low_radius,
                           target_rows=members)
    assert np.array_equal(got.pairs, want.pairs)
    # A cell member without a row is an error, not a row of another point.
    short = compute_descriptors(pc, Level.LOW, params, normals, index, centers=members[1:])
    with pytest.raises(ValidationError, match="no row"):
        local_cell_match(index, index, (anchor, anchor), low, short, params.low_radius,
                         target_rows=members[1:])


def test_register_computes_target_low_only_for_cell_members(monkeypatch):
    """The target's low descriptors are computed for exactly the union of
    the low-radius balls at the coarse inlier anchors, and the source's for
    every point."""
    scene = generate_scene(SceneSpec(shape="room", n_points=2000, overlap=0.7, seed=11))
    config = RunConfig()
    calls = []
    compute = matching.compute_descriptors

    def spy(pc, level, *args, **kwargs):
        result = compute(pc, level, *args, **kwargs)
        rows = kwargs.get("centers")
        calls.append((pc, Level(level), np.arange(len(pc)) if rows is None else rows, result))
        return result

    monkeypatch.setattr(matching, "compute_descriptors", spy)
    result = register(scene.source, scene.target, config)
    low = {id(pc): (rows, out) for pc, level, rows, out in calls if level == Level.LOW}
    assert set(low) == {id(scene.source), id(scene.target)}
    assert np.array_equal(low[id(scene.source)][0], np.arange(len(scene.source)))

    # The coarse inliers, as RANSAC's final residual check finds them.
    pairs = result.coarse.pairs
    residuals = np.linalg.norm(
        transform_points(scene.source.points[pairs[:, 0]], result.coarse_transform)
        - scene.target.points[pairs[:, 1]], axis=1)
    anchors = pairs[residuals <= config.ransac.inlier_threshold, 1]
    assert len(anchors) == result.inlier_count
    graph = build_index(scene.target).neighbor_graph(config.descriptor.low_radius)
    members = np.unique(np.concatenate([graph.row(a) for a in anchors]))
    rows, out = low[id(scene.target)]
    assert np.array_equal(rows, members)
    assert len(out) == len(members) < len(scene.target)
