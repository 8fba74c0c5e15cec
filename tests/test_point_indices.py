"""Point indices a caller passes are integers inside what they index, and
the value types own their arrays.

A float, a bool, a negative or a past-the-end index is a ``ValidationError``
that names the argument: it is never truncated by an ``intp`` cast or
``int()``, wrapped to the end of a cloud, or left to numpy's bare
``IndexError``. Each value type stores read-only copies of the arrays it is
given.
"""

from __future__ import annotations

import numpy as np
import pytest

from hireg import (
    CorrespondenceSet,
    DescriptorParams,
    DescriptorSet,
    KeypointSet,
    Level,
    PointCloud,
    RigidTransform,
    ScoreSet,
    Stage,
    TargetScores,
    ValidationError,
    build_index,
    compute_descriptors,
    estimate_normals,
    local_cell_match,
    rating_loss,
    repeatability,
)

from conftest import unit_rows

N = 30
CLOUD = PointCloud(np.random.default_rng(3).uniform(0.0, 0.5, size=(N, 3)))
INDEX = build_index(CLOUD)
PARAMS = DescriptorParams()
LOW = DescriptorSet(Level.LOW, unit_rows(np.random.default_rng(4), N, 8))
KEYPOINTS = KeypointSet(np.arange(3))


def _centers(bad):
    normals = estimate_normals(CLOUD, PARAMS.normal_radius, INDEX)
    compute_descriptors(CLOUD, Level.LOW, PARAMS, normals, INDEX, centers=bad)


def _coarse_pair(bad):
    local_cell_match(INDEX, INDEX, (bad[0], 0), LOW, LOW, cell_radius=0.1)


def _source_keypoints(bad):
    repeatability(KeypointSet(bad), KEYPOINTS, CLOUD, CLOUD, RigidTransform.identity())


def _target_keypoints(bad):
    repeatability(KEYPOINTS, KeypointSet(bad), CLOUD, CLOUD, RigidTransform.identity())


def _rankings(bad):
    rating_loss(np.full(len(bad), 0.5), bad, TargetScores())


# entry point: (call with the bad indices, their bound, message for a
# non-integer, message for an index out of range)
_KEYPOINT_RANGE = r"keypoint indices must be nonnegative|{} keypoints must lie in \[0, 30\)"
ENTRY_POINTS = {
    "centers": (_centers, N, "centers must be integers", r"centers must lie in \[0, 30\)"),
    "coarse_pair": (_coarse_pair, N, r"coarse_pair\[0\] must be integers",
                    r"coarse_pair\[0\] must lie in \[0, 30\)"),
    "source keypoints": (_source_keypoints, N, "keypoint indices must be integers",
                         _KEYPOINT_RANGE.format("source")),
    "target keypoints": (_target_keypoints, N, "keypoint indices must be integers",
                         _KEYPOINT_RANGE.format("target")),
    "rankings": (_rankings, 4, "rankings must be integers", r"rankings must lie in \[0, 4\)"),
}
# A float of integral value passes a test for membership in range(size).
BAD = {"float": lambda size: np.array([1.0]), "bool": lambda size: np.array([True]),
       "negative": lambda size: np.array([-1]), "past the end": lambda size: np.array([size])}


@pytest.mark.parametrize("bad", list(BAD))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_bad_index_is_a_validation_error_naming_it(entry, bad):
    call, size, not_integer, out_of_range = ENTRY_POINTS[entry]
    message = not_integer if bad in ("float", "bool") else out_of_range
    with pytest.raises(ValidationError, match=message):
        call(BAD[bad](size))


VALUE_TYPES = {
    "PointCloud": (PointCloud, lambda: (np.zeros((2, 3)),), ("points",)),
    "RigidTransform": (RigidTransform, lambda: (np.eye(3), np.zeros(3)),
                       ("rotation", "translation")),
    "DescriptorSet": (DescriptorSet, lambda: (Level.LOW, np.eye(2)), ("vectors",)),
    "ScoreSet": (ScoreSet, lambda: (Level.LOW, np.full(3, 0.5), np.full(3, 0.25)),
                 ("matchability", "overlap", "detection")),
    "KeypointSet": (KeypointSet, lambda: (np.arange(3),), ("indices",)),
    "CorrespondenceSet": (CorrespondenceSet,
                          lambda: (np.arange(4).reshape(2, 2), np.ones(2), Stage.FINE),
                          ("pairs", "weights")),
}


@pytest.mark.parametrize("kind", list(VALUE_TYPES))
def test_value_types_hold_read_only_copies(kind):
    cls, make_args, stored = VALUE_TYPES[kind]
    given = make_args()
    value = cls(*given)
    before = {name: getattr(value, name).copy() for name in stored}
    for name in stored:
        with pytest.raises(ValueError, match="read-only"):
            getattr(value, name)[...] = 0
    for array in given:
        if isinstance(array, np.ndarray):
            array[...] = 7
    for name in stored:
        np.testing.assert_array_equal(getattr(value, name), before[name], err_msg=name)
