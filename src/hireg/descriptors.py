"""Deterministic dual-level point descriptors.

Two receptive fields are computed from the same machinery: a small-radius
("low") angular-histogram descriptor that keeps local geometric detail, and a
large-radius ("high") descriptor that additionally encodes the neighborhood's
covariance shape, trading detail for global distinctiveness. Both are rigid
invariant and need no training.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse

from .cloud import (NeighborGraph, PointCloud, SpatialIndex, build_index, map_chunks,
                    _require_nonempty)
from .errors import ValidationError

_UNIT_TOL = 1e-6
# Cosine threshold below which the centroid direction no longer disambiguates
# a normal's sign and the lexicographic fallback rule applies.
_SIGN_COS_TOL = 1e-6
# Histogram sample budget per point at the wide receptive field. Striding the
# index-sorted neighbor list keeps the subset deterministic and bounds the
# quadratic blowup on dense clouds, but which members it keeps depends on point
# order: a permuted cloud yields other high descriptors.
_MAX_CENTER_PAIRS = 96
# Centres per chunk of the histogram and moment kernels: every bin and moment
# still sums its votes in one pass and in order, while the temporaries stay
# bounded.
_CHUNK_CENTERS = 256
# Shared low-level pairs whose angles one chunk computes.
_CHUNK_PAIRS = 1 << 14


class Level(str, Enum):
    LOW = "low"
    HIGH = "high"


@dataclass(frozen=True)
class DescriptorParams:
    """Receptive-field radii and histogram resolution.

    The low level splits its neighborhood into ``low_rings`` radial rings
    with one angular histogram each (dimension 3 * bins * low_rings), which
    keeps nearby points distinguishable on weakly structured surfaces. The
    high level is a single histogram plus the trace-normalized covariance
    eigenvalue triple (dimension 3 * bins + 3).
    """

    low_radius: float = 0.1
    high_radius: float = 0.4
    bins: int = 11
    normal_radius: float = 0.1
    low_rings: int = 3

    def __post_init__(self):
        if not 0 < self.low_radius < self.high_radius:
            raise ValidationError("require 0 < low_radius < high_radius")
        if self.bins < 2:
            raise ValidationError("bins must be >= 2")
        if not self.normal_radius > 0:
            raise ValidationError("normal_radius must be positive")
        if self.low_rings < 1:
            raise ValidationError("low_rings must be >= 1")

    def radius(self, level: Level) -> float:
        return self.low_radius if level == Level.LOW else self.high_radius

    def dimension(self, level: Level) -> int:
        if level == Level.LOW:
            return 3 * self.bins * self.low_rings
        return 3 * self.bins + 3


@dataclass(frozen=True)
class DescriptorSet:
    """Per-point feature vectors at one level; rows are unit or zero."""

    level: Level
    vectors: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vectors, dtype=np.float64)
        if vec.ndim != 2 or vec.shape[1] < 1:
            raise ValidationError(f"descriptor vectors must be (N, D), got {vec.shape}")
        if not np.isfinite(vec).all():
            raise ValidationError("descriptor vectors contain NaN or Inf")
        norms = np.linalg.norm(vec, axis=1)
        bad = ~((np.abs(norms - 1.0) <= _UNIT_TOL) | (norms <= _UNIT_TOL))
        if bad.any():
            raise ValidationError("descriptor rows must be unit length or zero")
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "vectors", vec)
        object.__setattr__(self, "level", Level(self.level))

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.vectors.shape[0]


def _adjacency(graph: NeighborGraph, start: int = 0, stop: int | None = None) -> sparse.csr_matrix:
    """Rows ``start:stop`` of the graph as a 0/1 matrix over all N points:
    row ``i`` holds centre ``start + i``'s members."""
    n = len(graph.offsets) - 1
    stop = n if stop is None else stop
    first, last = graph.offsets[start], graph.offsets[stop]
    return sparse.csr_matrix((np.ones(last - first), graph.indices[first:last],
                              graph.offsets[start:stop + 1] - first), shape=(stop - start, n))


# Moment column of each (a, b) entry of the symmetric second-moment matrix.
_MOMENT_AB = np.array([[3, 4, 5], [4, 6, 7], [5, 7, 8]])


def _neighborhood_covariances(points: np.ndarray,
                              graph: NeighborGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per-point neighborhood covariance (N,3,3) and member count (N,), self included."""
    a, b = np.triu_indices(3)
    point_moments = np.hstack([points, points[:, a] * points[:, b]])
    moments = np.empty_like(point_moments)

    def accumulate(start: int, stop: int) -> None:
        # Each row sums its members' x, y, z and six products in member order.
        moments[start:stop] = _adjacency(graph, start, stop) @ point_moments

    map_chunks(accumulate, len(points), _CHUNK_CENTERS)
    counts = graph.counts.astype(np.float64)
    safe = np.maximum(counts, 1.0)
    means = moments[:, :3] / safe[:, None]
    cov = moments[:, _MOMENT_AB] / safe[:, None, None] - means[:, :, None] * means[:, None, :]
    return cov, counts


def estimate_normals(cloud: PointCloud, radius: float,
                     index: SpatialIndex | None = None) -> np.ndarray:
    """Unit surface normals from neighborhood covariance.

    The normal is the smallest-eigenvalue eigenvector, signed to point along
    the centroid-to-point direction. Points whose radius neighborhood holds
    fewer than 3 points (self included) get the flag value (0, 0, 0).
    """
    _require_nonempty(cloud)
    if not radius > 0:
        raise ValidationError("radius must be positive")
    if index is None:
        index = build_index(cloud)
    pts = cloud.points
    cov, counts = _neighborhood_covariances(pts, index.neighbor_graph(radius))
    _, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0].copy()

    outward = pts - pts.mean(axis=0)
    lengths = np.linalg.norm(outward, axis=1)
    cos = np.einsum("ij,ij->i", normals, outward) / np.maximum(lengths, 1e-300)
    flip = cos < -_SIGN_COS_TOL
    normals[flip] *= -1.0
    # Degenerate direction (normal perpendicular to the centroid ray, e.g. a
    # plane through the centroid): sign the dominant component positive.
    undecided = np.abs(cos) <= _SIGN_COS_TOL
    if undecided.any():
        sub = normals[undecided]
        dominant = np.abs(sub).argmax(axis=1)
        sign = np.sign(sub[np.arange(len(sub)), dominant])
        sub[sign < 0] *= -1.0
        normals[undecided] = sub

    normals[counts < 3] = 0.0
    return normals


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def _full_pairs(graph: NeighborGraph, start: int, stop: int):
    """(center, position of a, position of b) of every ordered pair a != b in
    the neighborhoods of centers ``start:stop``, in (center, a, b) order."""
    m = graph.counts[start:stop]
    per = m * (m - 1)
    k = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per)
    i, j = np.divmod(k, np.repeat(m - 1, per))
    first = np.repeat(graph.offsets[start:stop], per)
    return np.repeat(np.arange(start, stop), per), first + i, first + j + (j >= i)


def _strided_pairs(graph: NeighborGraph, start: int, stop: int):
    """(center, position of member) of the center-to-member pairs of centers
    ``start:stop``, each neighbor list strided down to ``_MAX_CENTER_PAIRS``."""
    m = graph.counts[start:stop]
    first = graph.offsets[start]
    center = np.repeat(np.arange(start, stop), m)
    stride = np.where(m > _MAX_CENTER_PAIRS, -(-m // _MAX_CENTER_PAIRS), 1)
    rank = np.arange(len(center)) - np.repeat(graph.offsets[start:stop] - first, m)
    picked = np.flatnonzero((rank % np.repeat(stride, m) == 0)
                            & (graph.indices[first:first + len(center)] != center))
    return center[picked], first + picked


def _pair_bins(points: np.ndarray, normals: np.ndarray, src: np.ndarray, dst: np.ndarray,
               bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Soft-bin votes of ordered pairs' (alpha, phi, theta): the (6, pairs)
    left/right bin columns and masses within one ring's block. A pair that
    does not vote (coincident, a normal unset, or along the source normal)
    gets zero masses, which leave every bin sum unchanged."""
    d_unit = np.take(points, dst, axis=0)
    d_unit -= np.take(points, src, axis=0)
    dist = np.sqrt(np.einsum("ij,ij->i", d_unit, d_unit))
    n_c, n_m = np.take(normals, src, axis=0), np.take(normals, dst, axis=0)
    # Non-voting pairs divide by zero here; their values are replaced below.
    with np.errstate(divide="ignore", invalid="ignore"):
        d_unit /= dist[:, None]
        v = _cross_rows(d_unit, n_c)
        v_norm = np.sqrt(np.einsum("ij,ij->i", v, v))
        v /= v_norm[:, None]
    voting = ((dist > 1e-12) & (np.einsum("ij,ij->i", n_c, n_c) > 0.5)
              & (np.einsum("ij,ij->i", n_m, n_m) > 0.5) & (v_norm > 1e-9))
    w = _cross_rows(n_c, v)
    alpha = np.einsum("ij,ij->i", v, n_m)
    phi = np.einsum("ij,ij->i", n_c, d_unit)
    theta = np.arctan2(np.einsum("ij,ij->i", w, n_m), np.einsum("ij,ij->i", n_c, n_m))
    cols = np.empty((6, len(src)), dtype=np.intp)
    weights = np.empty((6, len(src)))
    for row, (offset, values, lo, hi) in enumerate(
            ((0, alpha, -1.0, 1.0), (bins, phi, -1.0, 1.0), (2 * bins, theta, -np.pi, np.pi))):
        # Linear soft binning: each value splits its unit mass between the
        # two nearest bin centers, so the histogram varies continuously with
        # the input. The angle feature wraps around instead of clamping.
        coord = (np.where(voting, values, 0.0) - lo) / (hi - lo) * bins - 0.5
        left = np.floor(coord).astype(np.intp)
        weights[2 * row + 1] = coord - left
        weights[2 * row] = 1.0 - weights[2 * row + 1]
        right = left + 1
        if values is theta:
            left, right = left % bins, right % bins
        else:
            left, right = np.clip(left, 0, bins - 1), np.clip(right, 0, bins - 1)
        cols[2 * row], cols[2 * row + 1] = offset + left, offset + right
    weights *= voting
    return cols, weights


def _angular_histograms(points: np.ndarray, normals: np.ndarray, graph: NeighborGraph,
                        bins: int, full_pairs: bool, rings: int = 1,
                        radius: float = 1.0) -> np.ndarray:
    """Histogram of (alpha, phi, theta) pair angles per center point.

    ``full_pairs`` histograms every ordered pair inside the neighborhood
    (denser signal, quadratic cost; used for the small low-level field)
    instead of only center-to-neighbor pairs; a pair shared by several
    neighborhoods has its angles computed once. With ``rings`` > 1 a pair
    votes into the radial ring of its member point's distance from the center,
    so nearby points on weakly structured surfaces get distinct signatures.
    Both the shared pairs and the centres run in chunks on the worker pool.
    """
    n, width = points.shape[0], 3 * bins * rings
    if full_pairs:
        # Every (a, b) that shares a neighborhood, as sorted keys a * n + b.
        adjacency = _adjacency(graph)
        shared = (adjacency.T @ adjacency).tocsr().sorted_indices()
        keys = np.repeat(np.arange(n, dtype=np.intp), np.diff(shared.indptr)) * n + shared.indices
        cols = np.empty((6, len(keys)), dtype=np.intp)
        weights = np.empty((6, len(keys)))

        def bin_shared(start: int, stop: int) -> None:
            cols[:, start:stop], weights[:, start:stop] = _pair_bins(
                points, normals, *np.divmod(keys[start:stop], n), bins)

        map_chunks(bin_shared, len(keys), _CHUNK_PAIRS)

    hist = np.empty((n, width))

    def histogram(start: int, stop: int) -> None:
        if full_pairs:
            center, pos_a, pos_b = _full_pairs(graph, start, stop)
            slot = np.searchsorted(keys, graph.indices[pos_a] * n + graph.indices[pos_b])
            pair_cols, pair_weights = np.take(cols, slot, axis=1), np.take(weights, slot, axis=1)
        else:
            center, pos_b = _strided_pairs(graph, start, stop)
            pair_cols, pair_weights = _pair_bins(points, normals, center,
                                                 graph.indices[pos_b], bins)
        ring = np.minimum((graph.distances[pos_b] / radius * rings).astype(np.intp), rings - 1)
        row_base = (center - start) * width + ring * (3 * bins)
        votes = np.bincount((row_base + pair_cols).ravel(), pair_weights.ravel(),
                            (stop - start) * width)
        hist[start:stop] = votes.reshape(stop - start, width)

    map_chunks(histogram, n, _CHUNK_CENTERS)
    # Relative frequencies per block, so the histogram is invariant to
    # neighborhood size (sampling density varies between cloud pairs).
    blocks = hist.reshape(n, 3 * rings, bins)
    totals = blocks.sum(axis=2, keepdims=True)
    return np.where(totals > 0, blocks / np.maximum(totals, 1e-300), 0.0).reshape(n, width)


def compute_descriptors(cloud: PointCloud, level: Level, params: DescriptorParams,
                        normals: np.ndarray | None = None,
                        index: SpatialIndex | None = None) -> DescriptorSet:
    """Per-point descriptor at the given level's receptive field.

    ``normals`` and ``index`` may be precomputed to share them across levels;
    both default to fresh, deterministic computations. Points with no usable
    neighborhood yield the zero vector.
    """
    _require_nonempty(cloud)
    level = Level(level)
    if index is None:
        index = build_index(cloud)
    if normals is None:
        normals = estimate_normals(cloud, params.normal_radius, index=index)
    else:
        normals = np.asarray(normals, dtype=np.float64)
        if normals.shape != cloud.points.shape:
            raise ValidationError("normals must match the cloud point-for-point")

    low = level == Level.LOW
    graph = index.neighbor_graph(params.radius(level))
    features = _angular_histograms(cloud.points, normals, graph, params.bins, full_pairs=low,
                                   rings=params.low_rings if low else 1,
                                   radius=params.radius(level))

    if level == Level.HIGH:
        cov, counts = _neighborhood_covariances(cloud.points, graph)
        eigvals = np.linalg.eigvalsh(cov)[:, ::-1]  # descending
        trace = eigvals.sum(axis=1)
        shape = np.where(trace[:, None] > 0, eigvals / np.maximum(trace[:, None], 1e-300), 0.0)
        shape[counts < 2] = 0.0
        features = np.hstack([features, shape])

    norms = np.linalg.norm(features, axis=1)
    nonzero = norms > 0
    features[nonzero] /= norms[nonzero, None]
    return DescriptorSet(level, features)
