"""A spatial index owns its cloud.

The kernels that take a cloud and a ``SpatialIndex`` read every
neighbourhood from the index, so an index of other points is a
``ValidationError``, whether that cloud has as many points or more, and an
index of an equal copy gives the same bits. ``local_cell_match`` takes no
cloud: it reads both clouds from their indices, and descriptors without one
row per indexed point are an error.
"""

from __future__ import annotations

import numpy as np
import pytest

from hireg import (
    DescriptorParams,
    Level,
    PointCloud,
    ValidationError,
    build_index,
    compute_descriptors,
    estimate_normals,
    local_cell_match,
    score_saliency,
)
from hireg.cloud import index_for

PARAMS = DescriptorParams()


def _points(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 0.6, size=(n, 3))


@pytest.fixture(scope="module")
def cloud():
    return PointCloud(_points(19, 400))


@pytest.fixture(scope="module")
def others(cloud):
    """Indices of other clouds: one as large as ``cloud`` and one larger."""
    return {"same size": build_index(PointCloud(_points(23, len(cloud)))),
            "larger": build_index(PointCloud(_points(29, len(cloud) + 200)))}


@pytest.fixture(scope="module")
def kernels(cloud):
    """Each kernel's output for ``cloud`` given an index; the normals and the
    low descriptors it reads come from the cloud's own index."""
    own = build_index(cloud)
    normals = estimate_normals(cloud, PARAMS.normal_radius, own)
    low = compute_descriptors(cloud, Level.LOW, PARAMS, normals, own)
    centers = np.arange(3, len(cloud), 7)
    return {
        "normals": lambda index: estimate_normals(cloud, PARAMS.normal_radius, index),
        "low": lambda index: compute_descriptors(cloud, Level.LOW, PARAMS, normals,
                                                 index).vectors,
        "high": lambda index: compute_descriptors(cloud, Level.HIGH, PARAMS, normals,
                                                  index).vectors,
        "low with its own normals": lambda index: compute_descriptors(
            cloud, Level.LOW, PARAMS, index=index).vectors,
        "low at centers": lambda index: compute_descriptors(
            cloud, Level.LOW, PARAMS, normals, index, centers=centers).vectors,
        "saliency": lambda index: score_saliency(cloud, low, index, 8),
    }


KERNELS = ["normals", "low", "high", "low with its own normals", "low at centers", "saliency"]


@pytest.mark.parametrize("other", ["same size", "larger"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_index_of_other_points_is_rejected(kernels, others, kernel, other):
    with pytest.raises(ValidationError, match="other points"):
        kernels[kernel](others[other])


@pytest.mark.parametrize("kernel", KERNELS)
def test_index_of_an_equal_copy_gives_the_same_bits(cloud, kernels, kernel):
    want = kernels[kernel](build_index(cloud))
    got = kernels[kernel](build_index(PointCloud(cloud.points.copy())))
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_index_for(cloud, others):
    index = build_index(cloud)
    assert index_for(cloud, index) is index
    assert index_for(PointCloud(cloud.points), index) is index
    fresh = index_for(cloud)
    assert fresh is not index and fresh.cloud is cloud
    for other in others.values():
        with pytest.raises(ValidationError, match="other points"):
            index_for(cloud, other)
    with pytest.raises(ValidationError, match="other points"):
        index_for(PointCloud(cloud.points[:-1]), index)


@pytest.fixture(scope="module")
def cell_inputs(cloud):
    """A source and a target cloud, their indices and low descriptors, and a
    coarse pair whose cells hold several points."""
    target = PointCloud(_points(31, 350))
    indices = build_index(cloud), build_index(target)
    lows = [compute_descriptors(pc, Level.LOW, PARAMS, index=index)
            for pc, index in zip((cloud, target), indices)]
    graphs = [index.neighbor_graph(PARAMS.low_radius) for index in indices]
    pair = tuple(int(graph.counts.argmax()) for graph in graphs)
    return indices, lows, pair


def test_cell_match_of_equal_copies_gives_the_same_bits(cell_inputs):
    (src_index, tgt_index), (src_low, tgt_low), pair = cell_inputs
    want = local_cell_match(src_index, tgt_index, pair, src_low, tgt_low, PARAMS.low_radius)
    assert len(want) > 1
    copies = [build_index(PointCloud(index.cloud.points.copy()))
              for index in (src_index, tgt_index)]
    got = local_cell_match(*copies, pair, src_low, tgt_low, PARAMS.low_radius)
    assert np.array_equal(got.pairs, want.pairs)
    assert np.array_equal(got.weights, want.weights)


@pytest.mark.parametrize("side", ["source", "target"])
def test_cell_match_rejects_descriptors_of_other_clouds(cell_inputs, others, side):
    (src_index, tgt_index), (src_low, tgt_low), pair = cell_inputs
    larger = others["larger"]
    rows = len(src_low if side == "source" else tgt_low)
    # An anchor that the descriptors have a row for, whose cell in the larger
    # cloud reaches past their last row.
    graph = larger.neighbor_graph(PARAMS.low_radius)
    anchor = next(i for i in range(rows) if graph.row(i).max() >= rows)
    indices = (larger, tgt_index) if side == "source" else (src_index, larger)
    pair = (anchor, pair[1]) if side == "source" else (pair[0], anchor)
    with pytest.raises(ValidationError, match="indexed clouds"):
        local_cell_match(*indices, pair, src_low, tgt_low, PARAMS.low_radius)
