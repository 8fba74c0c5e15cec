"""Point cloud and rigid transform primitives, a spatial index, and the
worker pool the kernels share.

Everything here is immutable after construction and safe to share across
threads. The spatial index memoises one read-only neighbour graph per radius
and one self k-NN per k, pure functions of (cloud, radius) and (cloud, k):
threads racing on a key build equal results, and either may be kept. An
entry lives as long as its index unless ``keep_graphs`` releases it; a
released graph stays valid for whoever holds it, and a later query at its
radius builds it again. ``describe`` keeps only the low-radius graph
once the high-level descriptors are done, since matching reads no other.
Distances are Euclidean, radii are meters, radius queries use closed balls
(boundary points included). A graph keeps no distances: ``member_distances``
gives the bits its closed-ball test compared, which the low rings read.

An index owns its cloud: a kernel given a cloud and an index reads every
neighbourhood from the index, so ``index_for`` accepts only an index of that
cloud's points and raises ``ValidationError`` for an index of other points.

The descriptor and score kernels split their work into fixed-size chunks of
rows and run them on one process-wide pool with a worker per CPU the process
may run on (``taskset`` restricts that set). Each chunk writes rows of an
output allocated beforehand, so results do not depend on the worker count.
Callers on several threads, such as ``HIREG_THREADS`` bench pairs, share the
one pool; chunks never submit to it, so no caller waits on a blocked worker.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import ValidationError

# Tolerance for rotation-matrix validity (orthonormality and determinant).
ROTATION_TOL = 1e-9

# Relative inflation applied before handing a radius to the kd-tree, so the
# exact closed-ball filter afterwards never misses a boundary point.
_BALL_SLACK = 1.0 + 1e-12
# Candidate neighbours whose exact distance one chunk computes.
_CHUNK_KEYS = 1 << 16


def worker_count() -> int:
    """CPUs in this process's affinity mask (all CPUs where there is no mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_in_worker = threading.local()


def _mark_worker() -> None:
    _in_worker.active = True


def _forget_pool() -> None:  # a forked child has none of the parent's threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def map_chunks(fn, n: int, chunk: int) -> None:
    """Call ``fn(start, stop)`` for every ``chunk``-sized slice of ``range(n)``
    on the shared pool and wait for all of them; the first error is raised.

    ``fn`` must only write its own slice of a caller's output, so the result
    is the same for any worker count. Runs inline on one CPU, for a single
    chunk, and when called from a pool worker.
    """
    global _pool
    starts = range(0, n, chunk)
    if len(starts) <= 1 or getattr(_in_worker, "active", False) or worker_count() == 1:
        for start in starts:
            fn(start, min(start + chunk, n))
        return
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(worker_count(), "hireg-kernel", _mark_worker)
    for _ in _pool.map(lambda start: fn(start, min(start + chunk, n)), starts):
        pass


def real_array(value, name: str) -> np.ndarray:
    """``value`` as a float64 array; strings, complex values and other
    non-real input raise ``ValidationError`` instead of converting."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be numbers: {exc}") from exc
    if array.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must be numbers: real, not {array.dtype}")
    return array.astype(np.float64, copy=False)


def _as_points(array: np.ndarray) -> np.ndarray:
    pts = real_array(array, "points")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValidationError(f"expected points with shape (N, 3), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValidationError("points contain NaN or Inf coordinates")
    return pts


def _as_vector3(value, name: str) -> np.ndarray:
    vec = real_array(value, name).reshape(-1)
    if vec.shape != (3,):
        raise ValidationError(f"{name} must be a 3-vector, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValidationError(f"{name} contains NaN or Inf")
    return vec


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of 3D points (meters) with an opaque id label."""

    points: np.ndarray
    cloud_id: str = ""

    def __post_init__(self):
        pts = _as_points(self.points).copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def _require_nonempty(cloud: PointCloud) -> None:
    if len(cloud) < 1:
        raise ValidationError("operation requires a cloud with at least one point")


@dataclass(frozen=True)
class RigidTransform:
    """A proper rotation (3x3) plus translation (meters)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = real_array(self.rotation, "rotation")
        if rot.shape != (3, 3) or not np.isfinite(rot).all():
            raise ValidationError("rotation must be a finite 3x3 matrix")
        if np.abs(rot.T @ rot - np.eye(3)).max() > ROTATION_TOL:
            raise ValidationError("rotation is not orthonormal within tolerance")
        if abs(np.linalg.det(rot) - 1.0) > ROTATION_TOL:
            raise ValidationError("rotation determinant is not +1 within tolerance")
        trans = _as_vector3(self.translation, "translation")
        rot = rot.copy()
        rot.setflags(write=False)
        trans = trans.copy()
        trans.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))


def transform_points(points: np.ndarray, transform: RigidTransform) -> np.ndarray:
    """Apply ``transform`` to an (N, 3) array, preserving order."""
    return points @ transform.rotation.T + transform.translation


def apply_transform(cloud: PointCloud, transform: RigidTransform) -> PointCloud:
    """Return a new cloud with every point rotated then translated."""
    _require_nonempty(cloud)
    return PointCloud(transform_points(cloud.points, transform), cloud.cloud_id)


def compose(first: RigidTransform, second: RigidTransform) -> RigidTransform:
    """Transform equivalent to applying ``second`` then ``first``."""
    return RigidTransform(
        first.rotation @ second.rotation,
        first.rotation @ second.translation + first.translation,
    )


def invert(transform: RigidTransform) -> RigidTransform:
    rot_t = transform.rotation.T
    return RigidTransform(rot_t, -(rot_t @ transform.translation))


def member_distances(points: np.ndarray, centers: np.ndarray, members: np.ndarray,
                     owners: np.ndarray) -> np.ndarray:
    """Distance of ``points[members[k]]`` from ``centers[owners[k]]`` for every
    k. Balls compare it in sqrt space, so the ``np.linalg.norm`` distance of
    a k-th neighbour that a caller computes lands inside its own ball."""
    diff = np.take(points, members, axis=0)
    diff -= np.take(centers, owners, axis=0)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


@dataclass(frozen=True)
class NeighborGraph:
    """Closed-ball neighbourhoods in CSR form: row ``i`` is
    ``indices[offsets[i]:offsets[i + 1]]`` in ascending point order; a
    member's distance from its centre comes from ``member_distances``."""

    offsets: np.ndarray
    indices: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def row(self, i: int) -> np.ndarray:
        return self.indices[self.offsets[i]:self.offsets[i + 1]]

    def rows(self, ids: np.ndarray) -> "NeighborGraph":
        """The graph of rows ``ids`` alone, in the order given."""
        ids = np.asarray(ids, dtype=np.intp)
        counts = self.offsets[ids + 1] - self.offsets[ids]
        offsets = np.zeros(len(ids) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        pos = np.repeat(self.offsets[ids] - offsets[:-1], counts)
        pos += np.arange(offsets[-1])
        return NeighborGraph(offsets, np.take(self.indices, pos))


@dataclass(frozen=True)
class SpatialIndex:
    """Immutable accelerator for radius and k-nearest-neighbor queries.

    Queries return exactly what a brute-force scan over the indexed cloud
    would return; the kd-tree is only used to prefilter candidates.
    """

    cloud: PointCloud
    _tree: cKDTree = field(repr=False)
    _graphs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _self_knn: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _graph(self, centers: np.ndarray, keys: np.ndarray, radius: float) -> NeighborGraph:
        """Exact closed balls from kd-tree candidate keys ``row * n + point``.

        ``keys`` is sorted in place and becomes the graph's indices, so the
        build holds the keys, one byte per candidate for the closed-ball
        test and, only if any candidate lies outside its ball, one copy of
        the keys without those.
        """
        n = len(self.cloud)
        keys.sort()
        offsets = np.searchsorted(keys, np.arange(len(centers) + 1, dtype=np.intp) * n)
        outside = np.empty(len(keys), dtype=bool)

        def measure(start: int, stop: int) -> None:
            rows, cols = np.divmod(keys[start:stop], n)
            np.greater(member_distances(self.cloud.points, centers, cols, rows), radius,
                       out=outside[start:stop])
            keys[start:stop] = cols

        map_chunks(measure, len(keys), _CHUNK_KEYS)
        dropped = np.flatnonzero(outside)
        if len(dropped):
            # A row loses the candidates dropped before its start.
            offsets -= np.searchsorted(dropped, offsets)
            keys = np.delete(keys, dropped)
        return NeighborGraph(offsets, keys)

    def neighbor_graph(self, radius: float) -> NeighborGraph:
        """Closed-ball neighbourhood of every indexed point, memoised per radius."""
        graph = self._graphs.get(radius)
        if graph is None:
            n = len(self.cloud)
            pairs = self._tree.query_pairs(radius * _BALL_SLACK, output_type="ndarray")
            # Each unordered pair i < j keyed both ways, then every self pair.
            p = len(pairs)
            i, j = pairs.T
            keys = np.empty(2 * p + n, dtype=np.intp)
            np.multiply(i, n, out=keys[:p])
            keys[:p] += j
            np.multiply(j, n, out=keys[p:2 * p])
            keys[p:2 * p] += i
            del pairs, i, j
            np.multiply(np.arange(n, dtype=np.intp), n + 1, out=keys[2 * p:])
            graph = self._graph(self.cloud.points, keys, radius)
            for array in (graph.offsets, graph.indices):
                array.setflags(write=False)
            self._graphs[radius] = graph
        return graph

    def keep_graphs(self, *radii: float) -> None:
        """Release every memoised neighbour graph whose radius is not in ``radii``."""
        for radius in list(self._graphs):
            if radius not in radii:
                self._graphs.pop(radius, None)

    def radius_graph(self, centers: np.ndarray, radius: float) -> NeighborGraph:
        """Closed-ball neighbourhoods of arbitrary centres (exact), one row
        per centre; not memoised."""
        centers = np.asarray(centers, dtype=np.float64)
        if len(centers) == 0:
            return NeighborGraph(np.zeros(1, dtype=np.intp), np.empty(0, dtype=np.intp))
        found = cKDTree(centers).sparse_distance_matrix(
            self._tree, radius * _BALL_SLACK, output_type="ndarray")
        keys = np.multiply(found["i"], len(self.cloud), dtype=np.intp)
        keys += found["j"]
        del found
        return self._graph(centers, keys, radius)

    def radius_batch(self, centers: np.ndarray, radius: float) -> list[np.ndarray]:
        """``radius_graph`` split into one index array per centre."""
        graph = self.radius_graph(centers, radius)
        return np.split(graph.indices, graph.offsets[1:-1]) if len(graph.offsets) > 1 else []

    def knn_batch(self, centers: np.ndarray, k: int,
                  bound: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
        """Raw kd-tree k-NN for many centers; no tie-break guarantee. A neighbour
        at ``bound`` or beyond is missing: distance inf, index ``len(cloud)``."""
        dists, idx = self._tree.query(np.asarray(centers, dtype=np.float64), k=k,
                                      distance_upper_bound=bound, workers=worker_count())
        return np.atleast_2d(dists), np.atleast_2d(idx)

    def self_knn(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``knn_batch`` of the indexed points themselves, memoised per ``k``
        and read-only."""
        found = self._self_knn.get(k)
        if found is None:
            found = self.knn_batch(self.cloud.points, k)
            for array in found:
                array.setflags(write=False)
            self._self_knn[k] = found
        return found


def build_index(cloud: PointCloud) -> SpatialIndex:
    if len(cloud) == 0:
        raise ValidationError("cannot build a spatial index over an empty cloud")
    return SpatialIndex(cloud, cKDTree(cloud.points))


def index_for(cloud: PointCloud, index: SpatialIndex | None = None) -> SpatialIndex:
    """``index`` when it describes the points of ``cloud``, a new index of
    ``cloud`` when it is None; an index of other points is an error."""
    if index is None:
        return build_index(cloud)
    if index.cloud is not cloud and not np.array_equal(index.cloud.points, cloud.points):
        raise ValidationError("the spatial index describes other points than the cloud")
    return index
