"""Point cloud and rigid transform primitives, a spatial index, and the
worker pool the kernels share.

Everything here is immutable after construction and safe to share across
threads. The spatial index memoises one read-only neighbour graph per radius,
a pure function of (cloud, radius): threads racing on a radius build equal
graphs, and either may be kept. Distances are Euclidean, radii are meters,
radius queries use closed balls (boundary points included).

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


def _as_points(array: np.ndarray) -> np.ndarray:
    pts = np.asarray(array, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValidationError(f"expected points with shape (N, 3), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValidationError("points contain NaN or Inf coordinates")
    return pts


def _as_vector3(value, name: str) -> np.ndarray:
    vec = np.asarray(value, dtype=np.float64).reshape(-1)
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
        rot = np.asarray(self.rotation, dtype=np.float64)
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


@dataclass(frozen=True)
class NeighborGraph:
    """Closed-ball neighbourhoods in CSR form: row ``i`` is
    ``indices[offsets[i]:offsets[i + 1]]`` in ascending point order, with each
    member's distance from centre ``i`` in ``distances``."""

    offsets: np.ndarray
    indices: np.ndarray
    distances: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def row(self, i: int) -> np.ndarray:
        return self.indices[self.offsets[i]:self.offsets[i + 1]]


@dataclass(frozen=True)
class SpatialIndex:
    """Immutable accelerator for radius and k-nearest-neighbor queries.

    Queries return exactly what a brute-force scan over the indexed cloud
    would return; the kd-tree is only used to prefilter candidates.
    """

    cloud: PointCloud
    _tree: cKDTree = field(repr=False)
    _graphs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _graph(self, centers: np.ndarray, keys: np.ndarray, radius: float) -> NeighborGraph:
        """Exact closed balls from kd-tree candidate keys ``row * n + point``."""
        keys.sort()
        rows, cols, dist = np.empty_like(keys), np.empty_like(keys), np.empty(len(keys))

        def measure(start: int, stop: int) -> None:
            rows[start:stop], cols[start:stop] = np.divmod(keys[start:stop], len(self.cloud))
            diff = np.take(self.cloud.points, cols[start:stop], axis=0)
            diff -= np.take(centers, rows[start:stop], axis=0)
            # Compare in sqrt space so "distance of the k-th neighbor" computed
            # by callers via np.linalg.norm lands inside its own closed ball.
            dist[start:stop] = np.sqrt(np.einsum("ij,ij->i", diff, diff))

        map_chunks(measure, len(keys), _CHUNK_KEYS)
        keep = dist <= radius
        offsets = np.searchsorted(rows[keep], np.arange(len(centers) + 1))
        return NeighborGraph(offsets, cols[keep], dist[keep])

    def neighbor_graph(self, radius: float) -> NeighborGraph:
        """Closed-ball neighbourhood of every indexed point, memoised per radius."""
        graph = self._graphs.get(radius)
        if graph is None:
            n = len(self.cloud)
            pairs = self._tree.query_pairs(radius * _BALL_SLACK, output_type="ndarray")
            i, j = pairs.astype(np.intp).T  # each unordered pair once, i < j
            keys = np.concatenate([i * n + j, j * n + i, np.arange(n, dtype=np.intp) * (n + 1)])
            graph = self._graph(self.cloud.points, keys, radius)
            for array in (graph.offsets, graph.indices, graph.distances):
                array.setflags(write=False)
            self._graphs[radius] = graph
        return graph

    def radius_batch(self, centers: np.ndarray, radius: float) -> list[np.ndarray]:
        """Closed-ball radius query for many centers at once (exact)."""
        centers = np.asarray(centers, dtype=np.float64)
        if len(centers) == 0:
            return []
        found = cKDTree(centers).sparse_distance_matrix(
            self._tree, radius * _BALL_SLACK, output_type="ndarray")
        keys = found["i"].astype(np.intp) * len(self.cloud) + found["j"]
        graph = self._graph(centers, keys, radius)
        return np.split(graph.indices, graph.offsets[1:-1])

    def knn_batch(self, centers: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Raw kd-tree k-NN for many centers; no tie-break guarantee."""
        dists, idx = self._tree.query(np.asarray(centers, dtype=np.float64), k=k,
                                      workers=worker_count())
        return np.atleast_2d(dists), np.atleast_2d(idx)


def build_index(cloud: PointCloud) -> SpatialIndex:
    if len(cloud) == 0:
        raise ValidationError("cannot build a spatial index over an empty cloud")
    return SpatialIndex(cloud, cKDTree(cloud.points))


def radius_query(index: SpatialIndex, center, radius: float) -> np.ndarray:
    """Indices of all points with ||p - center|| <= radius, ascending."""
    if not radius > 0:
        raise ValidationError("radius must be positive")
    center = _as_vector3(center, "center")
    return index.radius_batch(center[None, :], float(radius))[0]
