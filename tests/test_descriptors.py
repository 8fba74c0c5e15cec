"""Descriptor and normal estimation contracts.

The plane-vs-corner regression value below was computed once from the
deterministic construction in its test and frozen.
"""

import numpy as np
import pytest

from hireg import (
    DescriptorParams,
    DescriptorSet,
    Level,
    PointCloud,
    RigidTransform,
    ValidationError,
    apply_transform,
    compute_descriptors,
    estimate_normals,
)

from conftest import random_transform

# Frozen from the deterministic plane/corner constructions in
# test_plane_vs_corner_gap (seedless grids; exact reproduction expected).
PLANE_CORNER_GAP = 0.970091


def unit_grid_plane(spacing=0.03, count=21):
    g = np.arange(count) * spacing
    return np.array([[x, y, 0.0] for x in g for y in g])


class TestDescriptorParams:
    def test_dimension_bookkeeping(self):
        params = DescriptorParams()
        assert params.dimension(Level.LOW) == 3 * 11 * 3
        assert params.dimension(Level.HIGH) == 3 * 11 + 3

    def test_invalid_radii(self):
        with pytest.raises(ValidationError):
            DescriptorParams(low_radius=0.5, high_radius=0.4)
        with pytest.raises(ValidationError):
            DescriptorParams(bins=1)

    @pytest.mark.parametrize("field", ["high_radius", "normal_radius"])
    def test_infinite_radius_rejected(self, field):
        with pytest.raises(ValidationError, match="finite"):
            DescriptorParams(**{field: np.inf})


class TestDescriptorSet:
    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValidationError):
            DescriptorSet(Level.LOW, np.full((2, 4), 0.6))

    def test_rejects_complex_rows(self):
        """A complex row of unit modulus is not silently cast to its real part."""
        with pytest.raises(ValidationError, match="features must be numbers"):
            DescriptorSet(Level.LOW, np.eye(3) * (0.6 + 0.8j))

    def test_accepts_zero_rows(self):
        vec = np.zeros((3, 4))
        vec[0, 0] = 1.0
        descs = DescriptorSet(Level.LOW, vec)
        assert descs.dimension == 4


class TestEstimateNormals:
    def test_plane_normals_consistent(self):
        cloud = PointCloud(unit_grid_plane())
        normals = estimate_normals(cloud, 0.1)
        # all +-(0,0,1), consistently signed across the cloud
        np.testing.assert_allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)
        assert np.all(normals[:, 2] > 0) or np.all(normals[:, 2] < 0)

    def test_sphere_normals_near_radial(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(4000, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        normals = estimate_normals(PointCloud(points), 0.25)
        cos = np.einsum("ij,ij->i", normals, points)
        angles = np.degrees(np.arccos(np.clip(np.abs(cos), -1.0, 1.0)))
        assert angles.max() < 5.0
        # signed toward the centroid-to-point (outward) direction
        assert (cos > 0).all()

    def test_isolated_point_flagged(self):
        points = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [5.0, 0.1, 0.0],
                           [5.0, 0.0, 0.1], [5.1, 0.0, 0.0]])
        normals = estimate_normals(PointCloud(points), 0.3)
        np.testing.assert_array_equal(normals[0], [0.0, 0.0, 0.0])
        assert np.linalg.norm(normals[1]) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValidationError):
            estimate_normals(PointCloud(np.zeros((1, 3))), 0.0)

    def test_rejects_infinite_radius(self):
        with pytest.raises(ValidationError, match="finite"):
            estimate_normals(PointCloud(np.zeros((4, 3))), np.inf)


class TestComputeDescriptors:
    def test_rigid_invariance_both_levels(self, rng):
        cloud = PointCloud(rng.uniform(0.0, 1.0, size=(400, 3)))
        transform = random_transform(rng)
        moved = apply_transform(cloud, transform)
        params = DescriptorParams()
        for level in (Level.LOW, Level.HIGH):
            base = compute_descriptors(cloud, level, params)
            rotated = compute_descriptors(moved, level, params)
            assert np.abs(base.vectors - rotated.vectors).max() < 1e-5

    def test_plane_interior_uniform(self):
        cloud = PointCloud(unit_grid_plane())
        low = compute_descriptors(cloud, Level.LOW, DescriptorParams())
        interior = [i for i, p in enumerate(cloud.points)
                    if 0.21 <= p[0] <= 0.39 and 0.21 <= p[1] <= 0.39]
        rows = low.vectors[interior]
        assert np.abs(rows - rows[0]).max() < 1e-5

    def test_plane_vs_corner_gap(self):
        plane = PointCloud(unit_grid_plane())
        low_plane = compute_descriptors(plane, Level.LOW, DescriptorParams())
        interior = [i for i, p in enumerate(plane.points)
                    if 0.21 <= p[0] <= 0.39 and 0.21 <= p[1] <= 0.39]
        plane_row = low_plane.vectors[interior[len(interior) // 2]]

        # three orthogonal quarter-planes meeting at the origin
        s = np.arange(8) * 0.03
        corner_pts = np.unique(np.array(
            [[a, b, 0.0] for a in s for b in s]
            + [[a, 0.0, b] for a in s for b in s]
            + [[0.0, a, b] for a in s for b in s]), axis=0)
        corner = PointCloud(corner_pts)
        low_corner = compute_descriptors(corner, Level.LOW, DescriptorParams())
        apex = int(np.argmin(np.linalg.norm(corner_pts, axis=1)))
        gap = float(np.linalg.norm(plane_row - low_corner.vectors[apex]))
        assert gap > 0.1
        assert gap == pytest.approx(PLANE_CORNER_GAP, abs=1e-6)

    def test_determinism_bit_identical(self, rng):
        cloud = PointCloud(rng.uniform(0, 1, size=(150, 3)))
        params = DescriptorParams()
        a = compute_descriptors(cloud, Level.HIGH, params)
        b = compute_descriptors(cloud, Level.HIGH, params)
        assert np.array_equal(a.vectors, b.vectors)

    def test_empty_neighborhood_zero_vector(self):
        points = np.vstack([[[10.0, 0.0, 0.0]], np.random.default_rng(0).normal(size=(30, 3)) * 0.05])
        low = compute_descriptors(PointCloud(points), Level.LOW, DescriptorParams())
        np.testing.assert_array_equal(low.vectors[0], 0.0)

    def test_receptive_field_ordering(self, rng):
        # A dense cluster plus one point between the level radii: moving it
        # must change high-level descriptors of cluster points but leave
        # low-level ones untouched.
        cluster = rng.uniform(-0.05, 0.05, size=(60, 3))
        outsider = np.array([[0.30, 0.0, 0.0]])
        params = DescriptorParams()  # low 0.1, high 0.4, normals 0.1
        base = np.vstack([cluster, outsider])
        moved = base.copy()
        moved[-1] += [0.0, 0.02, 0.0]

        low_a = compute_descriptors(PointCloud(base), Level.LOW, params)
        low_b = compute_descriptors(PointCloud(moved), Level.LOW, params)
        high_a = compute_descriptors(PointCloud(base), Level.HIGH, params)
        high_b = compute_descriptors(PointCloud(moved), Level.HIGH, params)

        np.testing.assert_array_equal(low_a.vectors[:60], low_b.vectors[:60])
        assert np.abs(high_a.vectors[:60] - high_b.vectors[:60]).max() > 0

    def test_unit_or_zero_rows(self, rng):
        cloud = PointCloud(rng.uniform(0, 0.5, size=(80, 3)))
        for level in (Level.LOW, Level.HIGH):
            descs = compute_descriptors(cloud, level, DescriptorParams())
            norms = np.linalg.norm(descs.vectors, axis=1)
            assert np.all((np.abs(norms - 1) < 1e-9) | (norms == 0))
