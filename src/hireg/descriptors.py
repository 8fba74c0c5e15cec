"""Deterministic dual-level point descriptors.

Two receptive fields are computed from the same machinery: a small-radius
("low") angular-histogram descriptor that keeps local geometric detail, and a
large-radius ("high") descriptor that additionally encodes the neighborhood's
covariance shape, trading detail for global distinctiveness. Both are rigid
invariant and need no training.

The pair angles read points and normals as (3, N) column blocks, so each
vector operation runs over one contiguous row per coordinate. Their 3-term
dots add ``(a0 b0 + a2 b2) + a1 b1``, the order of ``np.einsum("ij,ij->i")``
on numpy 2.4 x86_64, so the histograms have the bits of the (N, 3) row form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse

from .cloud import (NeighborGraph, PointCloud, SpatialIndex, index_for, map_chunks,
                    member_distances, real_array)
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
# (center, a, b) triples of one low-level chunk: about 120 bytes of
# temporaries each, whatever the density.
_CHUNK_TRIPLES = 1 << 16
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
        if not 0 < self.low_radius < self.high_radius < np.inf:
            raise ValidationError("require 0 < low_radius < high_radius, both finite")
        if self.bins < 2:
            raise ValidationError("bins must be >= 2")
        if not 0 < self.normal_radius < np.inf:
            raise ValidationError("normal_radius must be finite and positive")
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
        vec = feature_matrix(self.vectors)
        if vec.shape[1] < 1:
            raise ValidationError(f"descriptor vectors must be (N, D), got {vec.shape}")
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


def feature_matrix(features) -> np.ndarray:
    """Features as an (N, D) float64 matrix: a ``DescriptorSet`` gives its
    vectors unchecked, as they were checked when it was built; anything else
    must be a 2-D array of finite numbers."""
    if isinstance(features, DescriptorSet):
        return features.vectors
    mat = real_array(features, "features")
    if mat.ndim != 2:
        raise ValidationError(f"features must be (N, D), got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValidationError("features contain NaN or Inf")
    return mat


def _adjacency(graph: NeighborGraph, start: int, stop: int) -> sparse.csr_matrix:
    """Rows ``start:stop`` of the graph as a 0/1 matrix over all N points:
    row ``i`` holds centre ``start + i``'s members."""
    n = len(graph.offsets) - 1
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
    if not 0 < radius < np.inf:
        raise ValidationError("radius must be finite and positive")
    pts = cloud.points
    cov, counts = _neighborhood_covariances(pts, index_for(cloud, index).neighbor_graph(radius))
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


def _dot_cols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dots of the columns of two (3, n) blocks, added in the order in which
    ``np.einsum("ij,ij->i")`` adds three terms on numpy 2.4 x86_64:
    ``(a0 b0 + a2 b2) + a1 b1``."""
    out = a[0] * b[0]
    out += a[2] * b[2]
    out += a[1] * b[1]
    return out


def _cross_cols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    np.subtract(a[1] * b[2], a[2] * b[1], out=out[0])
    np.subtract(a[2] * b[0], a[0] * b[2], out=out[1])
    np.subtract(a[0] * b[1], a[1] * b[0], out=out[2])
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
    ``start:stop``, each neighbor list strided down to ``_MAX_CENTER_PAIRS``:
    a list of m members keeps ranks 0, s, 2s, ... below m, with stride
    s = ceil(m / ``_MAX_CENTER_PAIRS``) once m exceeds the cap."""
    m = graph.counts[start:stop]
    stride = np.where(m > _MAX_CENTER_PAIRS, -(-m // _MAX_CENTER_PAIRS), 1)
    kept = -(-m // stride)
    first = np.cumsum(kept) - kept
    # Pick j of the chunk is pick j - first of its centre, which sits that
    # many strides past the centre's offset.
    pos = np.repeat(graph.offsets[start:stop] - first * stride, kept)
    pos += np.arange(kept.sum()) * np.repeat(stride, kept)
    center = np.repeat(np.arange(start, stop), kept)
    own = graph.indices[pos] != center
    return center[own], pos[own]


def _center_chunks(triples: np.ndarray) -> list[int]:
    """Bounds of consecutive centre chunks, each of at most ``_CHUNK_CENTERS``
    centres and ``_CHUNK_TRIPLES`` of their ``triples``, or of one centre
    that alone holds more."""
    ends = np.concatenate(([0], np.cumsum(triples)))
    bounds = [0]
    while bounds[-1] < len(triples):
        start = bounds[-1]
        stop = int(np.searchsorted(ends, ends[start] + _CHUNK_TRIPLES, side="right")) - 1
        bounds.append(min(max(stop, start + 1), start + _CHUNK_CENTERS, len(triples)))
    return bounds


def _pair_bins(points: np.ndarray, normals: np.ndarray, src: np.ndarray, dst: np.ndarray,
               bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Soft-bin votes of ordered pairs' (alpha, phi, theta) within one ring's
    block of ``3 * bins`` columns: the (6, pairs) left/right bin columns and
    the (3, pairs) right-hand masses; each left mass is ``1.0 - right``. A
    pair that does not vote (coincident, a normal unset, or along the source
    normal) has all six columns at the spare column ``3 * bins``.

    ``points`` and ``normals`` are (3, N) column blocks (see the module
    docstring)."""
    d_unit = np.take(points, dst, axis=1)
    d_unit -= np.take(points, src, axis=1)
    dist = np.sqrt(_dot_cols(d_unit, d_unit))
    n_c, n_m = np.take(normals, src, axis=1), np.take(normals, dst, axis=1)
    # Non-voting pairs divide by zero here; their values are replaced below.
    with np.errstate(divide="ignore", invalid="ignore"):
        d_unit /= dist
        v = _cross_cols(d_unit, n_c)
        v_norm = np.sqrt(_dot_cols(v, v))
        v /= v_norm
    voting = ((dist > 1e-12) & (_dot_cols(n_c, n_c) > 0.5)
              & (_dot_cols(n_m, n_m) > 0.5) & (v_norm > 1e-9))
    w = _cross_cols(n_c, v)
    alpha = _dot_cols(v, n_m)
    phi = _dot_cols(n_c, d_unit)
    theta = np.arctan2(_dot_cols(w, n_m), _dot_cols(n_c, n_m))
    spare = 3 * bins
    cols = np.empty((6, len(src)), dtype=np.min_scalar_type(spare))
    right = np.empty((3, len(src)))
    for row, (values, lo, hi) in enumerate(
            ((alpha, -1.0, 1.0), (phi, -1.0, 1.0), (theta, -np.pi, np.pi))):
        # Linear soft binning: each value splits its unit mass between the
        # two nearest bin centers, so the histogram varies continuously with
        # the input. The angle feature wraps around instead of clamping.
        coord = (np.where(voting, values, 0.0) - lo) / (hi - lo) * bins - 0.5
        left = np.floor(coord).astype(np.intp)
        right[row] = coord - left
        if values is theta:
            left, up = left % bins, (left + 1) % bins
        else:
            left, up = np.clip(left, 0, bins - 1), np.clip(left + 1, 0, bins - 1)
        cols[2 * row] = np.where(voting, row * bins + left, spare)
        cols[2 * row + 1] = np.where(voting, row * bins + up, spare)
    return cols, right


def _angular_histograms(points: np.ndarray, normals: np.ndarray, graph: NeighborGraph,
                        bins: int, full_pairs: bool, rings: int, radius: float,
                        centers: np.ndarray | None) -> np.ndarray:
    """Histogram of (alpha, phi, theta) pair angles per row of ``graph``.

    ``full_pairs`` histograms every ordered pair inside the neighborhood
    (denser signal, quadratic cost; used for the small low-level field)
    instead of only center-to-neighbor pairs; a pair shared by several
    neighborhoods has its angles computed once and kept in 30 bytes. With
    ``rings`` > 1 a pair votes into the radial ring of its member point's
    distance from the center, so nearby points on weakly structured surfaces
    get distinct signatures. Both the shared pairs and the centres run in
    chunks on the worker pool; a centre chunk holds at most
    ``_CHUNK_TRIPLES`` (center, a, b) triples unless one centre has more.

    With ``full_pairs`` the graph may hold the rows of some centres only
    (``NeighborGraph.rows`` of points ``centers``): the shared pairs are then
    those of these rows, and each row has the bits of the whole graph's row,
    since its bins sum the same votes in the same (center, a, b) order.
    """
    n, width = points.shape[0], 3 * bins * rings
    n_rows = len(graph.offsets) - 1
    # The pair angles read coordinates and normals as (3, N) column blocks.
    points_t, normals_t = np.ascontiguousarray(points.T), np.ascontiguousarray(normals.T)
    if full_pairs:
        # Every (a, b) that shares a neighborhood, as sorted keys a * n + b.
        # The product is symmetric, so its columns read as its rows.
        adjacency = sparse.csr_matrix((np.ones(len(graph.indices), dtype=bool),
                                       graph.indices, graph.offsets), shape=(n_rows, n))
        shared = adjacency.T @ adjacency
        shared.sort_indices()
        keys = np.repeat(np.arange(n, dtype=np.intp) * n, np.diff(shared.indptr))
        keys += shared.indices
        del adjacency, shared
        cols = np.empty((6, len(keys)), dtype=np.min_scalar_type(3 * bins))
        right = np.empty((3, len(keys)))

        def bin_shared(start: int, stop: int) -> None:
            cols[:, start:stop], right[:, start:stop] = _pair_bins(
                points_t, normals_t, *np.divmod(keys[start:stop], n), bins)

        map_chunks(bin_shared, len(keys), _CHUNK_PAIRS)
        m = graph.counts
        bounds = _center_chunks(m * (m - 1))
    else:
        bounds = [*range(0, n_rows, _CHUNK_CENTERS), n_rows]

    # Each (center, ring) block has a spare last column for the votes of
    # pairs that do not vote; it is dropped below, so every real bin sums the
    # same masses in the same order.
    block = 3 * bins + 1
    hist = np.empty((n_rows, width))

    def histogram(start: int, stop: int) -> None:
        if full_pairs:
            center, pos_a, pos_b = _full_pairs(graph, start, stop)
            slot = np.searchsorted(keys, graph.indices[pos_a] * n + graph.indices[pos_b])
            del pos_a
            pair_cols, pair_right = cols, right
        else:
            # The pairs are binned in vote order, so no slot lookup follows.
            center, pos_b = _strided_pairs(graph, start, stop)
            pair_cols, pair_right = _pair_bins(points_t, normals_t, center,
                                               graph.indices[pos_b], bins)
            slot = None
        ring = 0
        if rings > 1:  # from the distances of the chunk's members
            first = graph.offsets[start]
            owners = np.arange(start, stop) if centers is None else centers[start:stop]
            dist = member_distances(points, points, graph.indices[first:graph.offsets[stop]],
                                    np.repeat(owners, graph.counts[start:stop]))
            ring = np.minimum((dist[pos_b - first] / radius * rings).astype(np.intp), rings - 1)
        row_base = ((center - start) * rings + ring) * block
        del center, pos_b, ring
        # Bins and masses of all pairs, left and right of each angle in turn.
        at = np.empty((6, len(row_base)), dtype=np.intp)
        masses = np.empty((6, len(row_base)))
        if slot is None:
            np.add(row_base, pair_cols, out=at)
            masses[1::2] = pair_right
        else:
            for row in range(6):
                np.add(row_base, np.take(pair_cols[row], slot), out=at[row])
            for row in range(3):
                # Slots are in range by construction; "clip" lets take write
                # into the row directly.
                np.take(pair_right[row], slot, out=masses[2 * row + 1], mode="clip")
        np.subtract(1.0, masses[1::2], out=masses[::2])
        votes = np.bincount(at.ravel(), masses.ravel(), (stop - start) * rings * block)
        hist[start:stop].reshape(stop - start, rings, block - 1)[:] = \
            votes.reshape(stop - start, rings, block)[:, :, :-1]

    map_chunks(lambda k, _: histogram(bounds[k], bounds[k + 1]), len(bounds) - 1, 1)
    # Relative frequencies per block, so the histogram is invariant to
    # neighborhood size (sampling density varies between cloud pairs).
    blocks = hist.reshape(n_rows, 3 * rings, bins)
    totals = blocks.sum(axis=2, keepdims=True)
    return np.where(totals > 0, blocks / np.maximum(totals, 1e-300), 0.0).reshape(n_rows, width)


def compute_descriptors(cloud: PointCloud, level: Level, params: DescriptorParams,
                        normals: np.ndarray | None = None,
                        index: SpatialIndex | None = None,
                        centers: np.ndarray | None = None) -> DescriptorSet:
    """Per-point descriptor at the given level's receptive field.

    ``normals`` and ``index`` may be precomputed to share them across levels;
    both default to fresh, deterministic computations, and an index of other
    points is an error. Points with no usable neighborhood yield the zero
    vector. At the low level, ``centers`` (point indices) limits the work to
    those points: row ``i`` of the result is point ``centers[i]``'s
    descriptor, with the bits it has in the whole-cloud result.
    """
    index = index_for(cloud, index)
    level = Level(level)
    if normals is None:
        normals = estimate_normals(cloud, params.normal_radius, index=index)
    else:
        normals = np.asarray(normals, dtype=np.float64)
        if normals.shape != cloud.points.shape:
            raise ValidationError("normals must match the cloud point-for-point")

    low = level == Level.LOW
    if centers is not None and not low:
        raise ValidationError("centers apply to the low level only")
    graph = index.neighbor_graph(params.radius(level))
    if centers is not None:
        centers = np.asarray(centers, dtype=np.intp).reshape(-1)
        if centers.size and not (0 <= centers.min() and centers.max() < len(cloud)):
            raise ValidationError("centers index outside the cloud")
        graph = graph.rows(centers)
    features = _angular_histograms(cloud.points, normals, graph, params.bins, full_pairs=low,
                                   rings=params.low_rings if low else 1,
                                   radius=params.radius(level), centers=centers)

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
