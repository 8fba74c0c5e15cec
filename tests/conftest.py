"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from hireg import RigidTransform


def axis_angle_rotation(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a (not necessarily unit) axis."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def random_transform(rng: np.random.Generator,
                     translation_scale: float = 1.0) -> RigidTransform:
    return RigidTransform(random_rotation(rng),
                          rng.uniform(-translation_scale, translation_scale, size=3))


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class CountingTree:
    """Stands in for a ``SpatialIndex``'s kd-tree and counts the attribute
    reads, one per query method called on it."""

    def __init__(self, tree):
        self.tree, self.queries = tree, 0

    def __getattr__(self, name):
        self.queries += 1
        return getattr(self.tree, name)


def count_tree_queries(index) -> CountingTree:
    """Swap ``index``'s kd-tree for a ``CountingTree`` and return it."""
    tree = CountingTree(index._tree)
    object.__setattr__(index, "_tree", tree)
    return tree


def register_arrays(result) -> dict:
    """The arrays of a ``RegistrationResult``, to compare bit for bit."""
    return {
        "rotation": result.transform.rotation, "translation": result.transform.translation,
        "coarse_rotation": result.coarse_transform.rotation,
        "coarse_translation": result.coarse_transform.translation,
        "coarse_pairs": result.coarse.pairs, "fine_pairs": result.fine.pairs,
        "fine_weights": result.fine.weights,
        "src_keypoints": result.source_keypoints.indices,
        "tgt_keypoints": result.target_keypoints.indices,
        "counts": np.array([result.inlier_count, result.iterations_used]),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
