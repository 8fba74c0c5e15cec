"""The pair-angle kernels against reference copies of their row-layout forms.

``_pair_bins`` works on (3, N) column blocks and adds each 3-term dot as
``np.einsum("ij,ij->i")`` does: ``(a0 b0 + a2 b2) + a1 b1``. ``_strided_pairs``
computes each kept position as ``offset + k * stride``. The references below
are the earlier forms: (N, 3) rows with ``np.einsum`` dots, and a scan of every
member's rank modulo the stride. Both must be matched bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hireg.cloud import NeighborGraph
from hireg.descriptors import _MAX_CENTER_PAIRS, _dot_cols, _pair_bins, _strided_pairs

BINS = 11

# Zeros, negative values and magnitudes from 1e-3 to 1e3.
_VALUES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@settings(deadline=None, max_examples=200)
@given(arrays(np.float64, st.tuples(st.integers(1, 40), st.just(6)), elements=_VALUES))
# (a0 b0 + a1 b1) + a2 b2 rounds 1 + 1e-6 first and gives another last bit.
@example(np.array([[1.0, 1e-3, -1.0, 1.0, 1e-3, 1.0]]))
def test_column_dot_adds_as_einsum(rows):
    a, b = rows[:, :3], rows[:, 3:]
    got = _dot_cols(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
    assert np.array_equal(got, np.einsum("ij,ij->i", a, b))


def _ref_cross_rows(a, b):
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def _ref_pair_bins(points, normals, src, dst, bins):
    """The row-layout form: (N, 3) points and normals, ``np.einsum`` dots."""
    d_unit = np.take(points, dst, axis=0)
    d_unit -= np.take(points, src, axis=0)
    dist = np.sqrt(np.einsum("ij,ij->i", d_unit, d_unit))
    n_c, n_m = np.take(normals, src, axis=0), np.take(normals, dst, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_unit /= dist[:, None]
        v = _ref_cross_rows(d_unit, n_c)
        v_norm = np.sqrt(np.einsum("ij,ij->i", v, v))
        v /= v_norm[:, None]
    voting = ((dist > 1e-12) & (np.einsum("ij,ij->i", n_c, n_c) > 0.5)
              & (np.einsum("ij,ij->i", n_m, n_m) > 0.5) & (v_norm > 1e-9))
    w = _ref_cross_rows(n_c, v)
    alpha = np.einsum("ij,ij->i", v, n_m)
    phi = np.einsum("ij,ij->i", n_c, d_unit)
    theta = np.arctan2(np.einsum("ij,ij->i", w, n_m), np.einsum("ij,ij->i", n_c, n_m))
    spare = 3 * bins
    cols = np.empty((6, len(src)), dtype=np.min_scalar_type(spare))
    right = np.empty((3, len(src)))
    for row, (values, lo, hi) in enumerate(
            ((alpha, -1.0, 1.0), (phi, -1.0, 1.0), (theta, -np.pi, np.pi))):
        coord = (np.where(voting, values, 0.0) - lo) / (hi - lo) * bins - 0.5
        left = np.floor(coord).astype(np.intp)
        right[row] = coord - left
        if values is theta:
            left, up = left % bins, (left + 1) % bins
        else:
            left, up = np.clip(left, 0, bins - 1), np.clip(left + 1, 0, bins - 1)
        cols[2 * row] = np.where(voting, row * bins + left, spare)
        cols[2 * row + 1] = np.where(voting, row * bins + up, spare)
    return cols, right, voting


def _cloud_with_non_voting_pairs(seed: int, scale: float):
    """Points and unit normals, with coincident points, unset normals and a
    point placed along another's normal."""
    rng = np.random.default_rng(seed)
    n = 40
    points = rng.normal(size=(n, 3)) * scale
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    points[1] = points[0]                                  # coincident
    normals[[2, 3]] = 0.0                                  # normals unset
    points[5] = points[4] + 0.3 * scale * normals[4]       # along 4's normal
    return points, normals


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_pair_bins_match_row_layout(seed, scale):
    points, normals = _cloud_with_non_voting_pairs(seed, scale)
    n = len(points)
    src, dst = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    want_cols, want_right, voting = _ref_pair_bins(points, normals, src, dst, BINS)
    # Every kind of non-voting pair occurs.
    for a, b in ((0, 1), (2, 7), (7, 3), (4, 5), (9, 9)):
        assert not voting[a * n + b]
    assert voting.sum() > n
    got_cols, got_right = _pair_bins(np.ascontiguousarray(points.T),
                                     np.ascontiguousarray(normals.T), src, dst, BINS)
    assert got_cols.dtype == want_cols.dtype
    assert np.array_equal(got_cols, want_cols)
    assert np.array_equal(got_right, want_right)


def _ref_strided_pairs(graph, start, stop):
    """Every member's rank in its list, kept when it is a multiple of the stride."""
    m = graph.counts[start:stop]
    first = graph.offsets[start]
    center = np.repeat(np.arange(start, stop), m)
    stride = np.where(m > _MAX_CENTER_PAIRS, -(-m // _MAX_CENTER_PAIRS), 1)
    rank = np.arange(len(center)) - np.repeat(graph.offsets[start:stop] - first, m)
    picked = np.flatnonzero((rank % np.repeat(stride, m) == 0)
                            & (graph.indices[first:first + len(center)] != center))
    return center[picked], first + picked


SIZES = (1, 2, 95, 96, 97, 191, 192, 193, 500)


def _graph_of_sizes(sizes) -> NeighborGraph:
    """Sorted rows of the given sizes over 600 points; row i holds point i."""
    rng = np.random.default_rng(0)
    rows = []
    for center, m in enumerate(sizes):
        others = np.delete(np.arange(600), center)
        rows.append(np.sort(np.append(rng.choice(others, size=m - 1, replace=False), center)))
    offsets = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
    indices = np.concatenate(rows)
    return NeighborGraph(offsets, indices)


@pytest.mark.parametrize("start, stop", [(0, len(SIZES)), (0, 1), (3, 6), (4, 5), (8, 9),
                                         (2, 2)])
def test_strided_pairs_match_rank_scan(start, stop):
    graph = _graph_of_sizes(SIZES)
    center, pos = _strided_pairs(graph, start, stop)
    want_center, want_pos = _ref_strided_pairs(graph, start, stop)
    assert np.array_equal(center, want_center)
    assert np.array_equal(pos, want_pos)
    assert np.bincount(center, minlength=1).max() <= _MAX_CENTER_PAIRS
