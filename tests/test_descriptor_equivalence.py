"""The CSR neighbour-graph descriptors against the list-based reference path.

The reference below is the earlier implementation: one ball query per use,
neighbourhoods as a list of arrays, pair angles evaluated for every (center,
a, b) triple. The graph-based path must reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import cKDTree

from hireg import (
    DescriptorParams,
    Level,
    PointCloud,
    SceneSpec,
    build_index,
    compute_descriptors,
    estimate_normals,
    generate_scene,
)


def _ref_neighbor_lists(points: np.ndarray, radius: float) -> list[np.ndarray]:
    raw = cKDTree(points).query_ball_point(points, radius * (1.0 + 1e-12),
                                           return_sorted=True)
    counts = np.fromiter((len(c) for c in raw), dtype=np.intp, count=len(raw))
    flat = np.fromiter((i for cand in raw for i in cand), dtype=np.intp,
                       count=int(counts.sum()))
    rep = np.repeat(np.arange(len(raw), dtype=np.intp), counts)
    diff = points[flat] - points[rep]
    keep = np.sqrt(np.einsum("ij,ij->i", diff, diff)) <= radius
    kept_counts = np.bincount(rep[keep], minlength=len(raw))
    return np.split(flat[keep], np.cumsum(kept_counts)[:-1])


def _ref_flatten_pairs(neighborhoods):
    counts = np.array([len(nb) for nb in neighborhoods], dtype=np.intp)
    centers = np.repeat(np.arange(len(neighborhoods), dtype=np.intp), counts)
    members = np.concatenate(neighborhoods) if counts.sum() else np.empty(0, dtype=np.intp)
    return centers, members


def _ref_covariances(points, neighborhoods):
    n = points.shape[0]
    centers, members = _ref_flatten_pairs(neighborhoods)
    counts = np.bincount(centers, minlength=n).astype(np.float64)
    member_pts = points[members]
    sums = np.stack([np.bincount(centers, weights=member_pts[:, c], minlength=n)
                     for c in range(3)], axis=1)
    sq = np.empty((n, 3, 3))
    for a in range(3):
        for b in range(a, 3):
            acc = np.bincount(centers, weights=member_pts[:, a] * member_pts[:, b],
                              minlength=n)
            sq[:, a, b] = acc
            sq[:, b, a] = acc
    safe = np.maximum(counts, 1.0)
    means = sums / safe[:, None]
    return sq / safe[:, None, None] - means[:, :, None] * means[:, None, :], counts


def _ref_normals(points, radius):
    cov, counts = _ref_covariances(points, _ref_neighbor_lists(points, radius))
    _, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0].copy()
    outward = points - points.mean(axis=0)
    lengths = np.linalg.norm(outward, axis=1)
    cos = np.einsum("ij,ij->i", normals, outward) / np.maximum(lengths, 1e-300)
    normals[cos < -1e-6] *= -1.0
    undecided = np.abs(cos) <= 1e-6
    if undecided.any():
        sub = normals[undecided]
        dominant = np.abs(sub).argmax(axis=1)
        sign = np.sign(sub[np.arange(len(sub)), dominant])
        sub[sign < 0] *= -1.0
        normals[undecided] = sub
    normals[counts < 3] = 0.0
    return normals


def _ref_pairs_center(neighborhoods):
    capped = []
    for nb in neighborhoods:
        if nb.size > 96:
            nb = nb[::int(np.ceil(nb.size / 96))]
        capped.append(nb)
    centers, members = _ref_flatten_pairs(capped)
    keep = centers != members
    return centers[keep], centers[keep], members[keep]


def _ref_pairs_full(neighborhoods):
    rows, sources, targets = [], [], []
    for center, nb in enumerate(neighborhoods):
        m = nb.size
        if m < 2:
            continue
        a = np.repeat(nb, m)
        b = np.tile(nb, m)
        keep = a != b
        rows.append(np.full(keep.sum(), center, dtype=np.intp))
        sources.append(a[keep])
        targets.append(b[keep])
    if not rows:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty.copy(), empty.copy()
    return np.concatenate(rows), np.concatenate(sources), np.concatenate(targets)


def _cross(a, b):
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def _ref_angular_histograms(points, normals, neighborhoods, bins, full_pairs,
                            rings, radius):
    n = points.shape[0]
    if full_pairs:
        centers, pair_src, members = _ref_pairs_full(neighborhoods)
    else:
        centers, pair_src, members = _ref_pairs_center(neighborhoods)
    cols = 3 * bins * rings
    hist = np.zeros((n, cols))
    diff = points[members] - points[pair_src]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    n_c = normals[pair_src]
    n_m = normals[members]
    valid = ((dist > 1e-12) & (np.einsum("ij,ij->i", n_c, n_c) > 0.5)
             & (np.einsum("ij,ij->i", n_m, n_m) > 0.5))
    centers, pair_src, members = centers[valid], pair_src[valid], members[valid]
    if centers.size == 0:
        return hist
    diff, dist = diff[valid], dist[valid]
    n_c, n_m = n_c[valid], n_m[valid]
    d_unit = diff / dist[:, None]
    v = _cross(d_unit, n_c)
    v_norm = np.sqrt(np.einsum("ij,ij->i", v, v))
    ok = v_norm > 1e-9
    centers, pair_src, members = centers[ok], pair_src[ok], members[ok]
    d_unit, v = d_unit[ok], v[ok] / v_norm[ok, None]
    n_c, n_m = n_c[ok], n_m[ok]
    if centers.size == 0:
        return hist
    w = _cross(n_c, v)
    alpha = np.einsum("ij,ij->i", v, n_m)
    phi = np.einsum("ij,ij->i", n_c, d_unit)
    theta = np.arctan2(np.einsum("ij,ij->i", w, n_m), np.einsum("ij,ij->i", n_c, n_m))
    if rings > 1:
        off = points[members] - points[centers]
        center_dist = np.sqrt(np.einsum("ij,ij->i", off, off))
        ring_base = np.minimum((center_dist / radius * rings).astype(np.intp),
                               rings - 1) * (3 * bins)
    else:
        ring_base = np.zeros(centers.size, dtype=np.intp)
    row_base = centers * cols + ring_base
    flat_indices, flat_weights = [], []
    for values, lo, hi, offset, circular in ((alpha, -1.0, 1.0, 0, False),
                                             (phi, -1.0, 1.0, bins, False),
                                             (theta, -np.pi, np.pi, 2 * bins, True)):
        coord = (values - lo) / (hi - lo) * bins - 0.5
        left = np.floor(coord).astype(np.intp)
        frac = coord - left
        right = left + 1
        if circular:
            left %= bins
            right %= bins
        else:
            left = np.clip(left, 0, bins - 1)
            right = np.clip(right, 0, bins - 1)
        flat_indices += [row_base + offset + left, row_base + offset + right]
        flat_weights += [1.0 - frac, frac]
    hist += np.bincount(np.concatenate(flat_indices), weights=np.concatenate(flat_weights),
                        minlength=n * cols).reshape(n, cols)
    for block in range(3 * rings):
        span = slice(block * bins, (block + 1) * bins)
        totals = hist[:, span].sum(axis=1, keepdims=True)
        hist[:, span] = np.where(totals > 0, hist[:, span] / np.maximum(totals, 1e-300), 0.0)
    return hist


def _ref_descriptors(points, level, params, normals):
    radius = params.radius(level)
    neighborhoods = _ref_neighbor_lists(points, radius)
    features = _ref_angular_histograms(
        points, normals, neighborhoods, params.bins, full_pairs=(level == Level.LOW),
        rings=params.low_rings if level == Level.LOW else 1, radius=radius)
    if level == Level.HIGH:
        cov, counts = _ref_covariances(points, neighborhoods)
        eigvals = np.linalg.eigvalsh(cov)[:, ::-1]
        trace = eigvals.sum(axis=1)
        shape = np.where(trace[:, None] > 0, eigvals / np.maximum(trace[:, None], 1e-300), 0.0)
        shape[counts < 2] = 0.0
        features = np.hstack([features, shape])
    norms = np.linalg.norm(features, axis=1)
    nonzero = norms > 0
    features[nonzero] /= norms[nonzero, None]
    return features


def _assert_matches_reference(points: np.ndarray, params: DescriptorParams) -> None:
    cloud = PointCloud(points)
    index = build_index(cloud)
    normals = estimate_normals(cloud, params.normal_radius, index=index)
    ref_normals = _ref_normals(cloud.points, params.normal_radius)
    assert np.array_equal(normals, ref_normals)
    for level in (Level.LOW, Level.HIGH):
        got = compute_descriptors(cloud, level, params, normals, index).vectors
        assert np.array_equal(got, _ref_descriptors(cloud.points, level, params, ref_normals)), \
            level


def test_room_scene_matches_reference():
    scene = generate_scene(SceneSpec(shape="room", n_points=5000, overlap=0.7,
                                     noise_sigma=0.005, seed=11))
    _assert_matches_reference(scene.source.points, DescriptorParams())


def test_dense_cluster_exercises_the_center_pair_cap():
    rng = np.random.default_rng(5)
    points = np.vstack([rng.uniform(-0.08, 0.08, size=(300, 3)),
                        rng.uniform(-1.0, 1.0, size=(200, 3))])
    params = DescriptorParams(low_radius=0.05, high_radius=0.3, normal_radius=0.08)
    counts = build_index(PointCloud(points)).neighbor_graph(params.high_radius).counts
    assert counts.max() > 96
    _assert_matches_reference(points, params)


def test_isolated_points_get_zero_normals_and_match_reference():
    rng = np.random.default_rng(6)
    patch = np.column_stack([rng.uniform(0, 0.3, size=(80, 2)), np.zeros(80)])
    loners = np.array([[5.0, 0.0, 0.0], [5.05, 0.0, 0.0], [-5.0, 3.0, 1.0]])
    points = np.vstack([patch, loners])
    params = DescriptorParams()
    normals = estimate_normals(PointCloud(points), params.normal_radius)
    assert np.all(normals[-3:] == 0.0)
    _assert_matches_reference(points, params)


@pytest.mark.parametrize("points", [
    np.repeat([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]], 5, axis=0),   # coincident points
    np.arange(12, dtype=np.float64).reshape(4, 3) * 10.0,      # every ball a singleton
])
def test_cloud_without_valid_pairs_matches_reference(points):
    params = DescriptorParams()
    for level in (Level.LOW, Level.HIGH):
        hist = compute_descriptors(PointCloud(points), level, params).vectors[:, :3 * params.bins]
        assert not hist.any()
    _assert_matches_reference(points, params)
