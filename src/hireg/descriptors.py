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

from .cloud import NeighborGraph, PointCloud, SpatialIndex, build_index, _require_nonempty
from .errors import ValidationError

_UNIT_TOL = 1e-6
# Cosine threshold below which the centroid direction no longer disambiguates
# a normal's sign and the lexicographic fallback rule applies.
_SIGN_COS_TOL = 1e-6


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


def _neighborhood_covariances(points: np.ndarray,
                              graph: NeighborGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per-point neighborhood covariance (N,3,3) and member count (N,), self included."""
    n = points.shape[0]
    centers = graph.centers()
    counts = graph.counts.astype(np.float64)
    member_pts = points[graph.indices]
    sums = np.stack([np.bincount(centers, weights=member_pts[:, c], minlength=n)
                     for c in range(3)], axis=1)
    sq = np.empty((n, 3, 3))
    for a in range(3):
        for b in range(a, 3):
            sq[:, a, b] = sq[:, b, a] = np.bincount(
                centers, weights=member_pts[:, a] * member_pts[:, b], minlength=n)
    safe = np.maximum(counts, 1.0)
    means = sums / safe[:, None]
    cov = sq / safe[:, None, None] - means[:, :, None] * means[:, None, :]
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


# Histogram sample budget per point at the wide receptive field; striding the
# index-sorted neighbor list keeps the subset deterministic and rigid
# invariant while bounding the quadratic blowup on dense clouds.
_MAX_CENTER_PAIRS = 96
# Centres histogrammed per bincount call: every bin still sums its votes in
# one pass and in order, while the per-pair temporaries stay bounded.
_CHUNK_CENTERS = 256


def _full_pairs(graph: NeighborGraph, start: int, stop: int):
    """(center, position of a, position of b) of every ordered pair a != b in
    the neighborhoods of centers ``start:stop``, in (center, a, b) order."""
    m = graph.counts[start:stop]
    per = m * (m - 1)
    k = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per)
    i, j = np.divmod(k, np.repeat(m - 1, per))
    first = np.repeat(graph.offsets[start:stop], per)
    return np.repeat(np.arange(start, stop), per), first + i, first + j + (j >= i)


def _pair_bins(points: np.ndarray, normals: np.ndarray, src: np.ndarray, dst: np.ndarray,
               bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Soft-bin votes of ordered pairs' (alpha, phi, theta): the voting pairs
    (not coincident, both normals set, not along the source normal) and their
    (6, votes) left/right bin columns and masses within one ring's block."""
    diff = points[dst] - points[src]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    n_c, n_m = normals[src], normals[dst]
    voting = np.flatnonzero((dist > 1e-12) & (np.einsum("ij,ij->i", n_c, n_c) > 0.5)
                            & (np.einsum("ij,ij->i", n_m, n_m) > 0.5))
    d_unit = diff[voting] / dist[voting, None]
    n_c, n_m = n_c[voting], n_m[voting]
    v = _cross_rows(d_unit, n_c)
    v_norm = np.sqrt(np.einsum("ij,ij->i", v, v))
    ok = v_norm > 1e-9
    voting, d_unit, n_c, n_m = voting[ok], d_unit[ok], n_c[ok], n_m[ok]
    v = v[ok] / v_norm[ok, None]
    w = _cross_rows(n_c, v)
    alpha = np.einsum("ij,ij->i", v, n_m)
    phi = np.einsum("ij,ij->i", n_c, d_unit)
    theta = np.arctan2(np.einsum("ij,ij->i", w, n_m), np.einsum("ij,ij->i", n_c, n_m))
    cols, weights = [], []
    for offset, values, lo, hi in ((0, alpha, -1.0, 1.0), (bins, phi, -1.0, 1.0),
                                   (2 * bins, theta, -np.pi, np.pi)):
        # Linear soft binning: each value splits its unit mass between the
        # two nearest bin centers, so the histogram varies continuously with
        # the input. The angle feature wraps around instead of clamping.
        coord = (values - lo) / (hi - lo) * bins - 0.5
        left = np.floor(coord).astype(np.intp)
        frac = coord - left
        right = left + 1
        if values is theta:
            left, right = left % bins, right % bins
        else:
            left, right = np.clip(left, 0, bins - 1), np.clip(right, 0, bins - 1)
        cols += [offset + left, offset + right]
        weights += [1.0 - frac, frac]
    return voting, np.stack(cols), np.stack(weights)


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
    """
    n, width = points.shape[0], 3 * bins * rings
    if full_pairs:
        # Every (a, b) that shares a neighborhood, as sorted keys a * n + b.
        adjacency = sparse.csr_matrix(
            (np.ones(len(graph.indices)), graph.indices, graph.offsets), shape=(n, n))
        shared = (adjacency.T @ adjacency).tocsr().sorted_indices()
        keys = np.repeat(np.arange(n, dtype=np.intp), np.diff(shared.indptr)) * n + shared.indices
        voting, cols, weights = _pair_bins(points, normals, *np.divmod(keys, n), bins)
        slots = np.full(len(keys), -1, dtype=np.intp)
        slots[voting] = np.arange(len(voting))
    else:
        # Center-to-neighbor pairs, each neighbor list strided down to the cap.
        centers, counts = graph.centers(), graph.counts
        stride = np.where(counts > _MAX_CENTER_PAIRS, -(-counts // _MAX_CENTER_PAIRS), 1)
        rank = np.arange(len(centers)) - graph.offsets[centers]
        picked = np.flatnonzero((rank % stride[centers] == 0) & (graph.indices != centers))
        centers = centers[picked]
        voting, cols, weights = _pair_bins(points, normals, centers, graph.indices[picked], bins)
        centers, picked = centers[voting], picked[voting]

    hist = np.zeros((n, width))
    for start in range(0, n, _CHUNK_CENTERS):
        stop = min(start + _CHUNK_CENTERS, n)
        if full_pairs:
            center, pos_a, pos_b = _full_pairs(graph, start, stop)
            slot = slots[np.searchsorted(keys, graph.indices[pos_a] * n + graph.indices[pos_b])]
            keep = slot >= 0
            center, pos_b, slot = center[keep], pos_b[keep], slot[keep]
        else:
            slot = np.arange(*np.searchsorted(centers, (start, stop)))
            center, pos_b = centers[slot], picked[slot]
        ring = np.minimum((graph.distances[pos_b] / radius * rings).astype(np.intp), rings - 1)
        row_base = (center - start) * width + ring * (3 * bins)
        votes = np.bincount((row_base + np.take(cols, slot, axis=1)).ravel(),
                            np.take(weights, slot, axis=1).ravel(), (stop - start) * width)
        hist[start:stop] = votes.reshape(stop - start, width)
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
