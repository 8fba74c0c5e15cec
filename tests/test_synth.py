"""Synthetic scene generation: determinism, overlap control, ground truth."""

import numpy as np
import pytest

from hireg import (
    GenerationError,
    RigidTransform,
    SceneSpec,
    ValidationError,
    generate_scene,
    measured_overlap,
)
from hireg.cloud import transform_points


class TestSceneSpec:
    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            SceneSpec(overlap=1.5)
        with pytest.raises(ValidationError):
            SceneSpec(noise_sigma=-0.1)
        with pytest.raises(ValidationError):
            SceneSpec(shape="torus")
        with pytest.raises(ValidationError):
            SceneSpec(outlier_fraction=2.0)

    @pytest.mark.parametrize("field, value", [
        ("n_points", 700.5), ("n_points", 700.0), ("n_points", True), ("n_points", "700"),
        ("seed", 1.5), ("seed", False), ("seed", None),
    ])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            SceneSpec(**{field: value})

    def test_accepts_numpy_integers(self):
        spec = SceneSpec(n_points=np.int64(700), seed=np.int32(3))
        assert spec.n_points == 700 and spec.seed == 3


class TestGenerateScene:
    def test_exact_copy_when_lossless(self, rng):
        spec = SceneSpec(shape="room", n_points=800, overlap=1.0, noise_sigma=0.0,
                         outlier_fraction=0.0, seed=2)
        scene = generate_scene(spec)
        expected = transform_points(scene.source.points, scene.transform)
        np.testing.assert_array_equal(scene.target.points, expected)
        assert scene.overlap_mask.all()
        np.testing.assert_array_equal(scene.target_index_of_source, np.arange(800))

    def test_overlap_measured_within_band(self):
        spec = SceneSpec(shape="room", n_points=3000, overlap=0.5, noise_sigma=0.003, seed=4)
        scene = generate_scene(spec)
        measured = measured_overlap(scene.source, scene.target, scene.transform,
                                    spec.overlap_radius)
        assert 0.45 <= measured <= 0.55

    def test_deterministic(self):
        spec = SceneSpec(shape="room", n_points=1000, overlap=0.7, noise_sigma=0.004, seed=9)
        a = generate_scene(spec)
        b = generate_scene(spec)
        np.testing.assert_array_equal(a.source.points, b.source.points)
        np.testing.assert_array_equal(a.target.points, b.target.points)
        np.testing.assert_array_equal(a.transform.rotation, b.transform.rotation)

    def test_unreachable_overlap_raises(self):
        # noise far larger than the overlap radius pushes every measured
        # overlap to ~0 regardless of the crop
        spec = SceneSpec(shape="plane", n_points=500, overlap=0.9, noise_sigma=0.5,
                         seed=0, overlap_radius=0.02)
        with pytest.raises(GenerationError):
            generate_scene(spec)

    def test_explicit_transform_respected(self):
        gt = RigidTransform(np.eye(3), [0.3, -0.2, 0.1])
        spec = SceneSpec(shape="box", n_points=500, overlap=1.0, noise_sigma=0.0,
                         seed=1, transform=gt)
        scene = generate_scene(spec)
        np.testing.assert_array_equal(scene.transform.rotation, np.eye(3))
        np.testing.assert_array_equal(scene.transform.translation, [0.3, -0.2, 0.1])

    def test_outliers_appended_without_mapping(self):
        spec = SceneSpec(shape="room", n_points=1000, overlap=0.8, noise_sigma=0.002,
                         outlier_fraction=0.2, seed=6)
        scene = generate_scene(spec)
        kept = int(scene.overlap_mask.sum())
        assert len(scene.target) == kept + int(np.floor(0.2 * kept))
        mapped = scene.target_index_of_source[scene.target_index_of_source >= 0]
        assert mapped.max() < kept

    def test_mask_matches_mapping(self):
        spec = SceneSpec(shape="room", n_points=1200, overlap=0.6, noise_sigma=0.003, seed=13)
        scene = generate_scene(spec)
        np.testing.assert_array_equal(scene.overlap_mask,
                                      scene.target_index_of_source >= 0)
        # mapped targets are the transformed sources up to noise
        src_idx = np.flatnonzero(scene.overlap_mask)
        aligned = transform_points(scene.source.points[src_idx], scene.transform)
        tgt = scene.target.points[scene.target_index_of_source[src_idx]]
        assert np.linalg.norm(aligned - tgt, axis=1).max() < 6 * 0.003

    def test_shapes_generate(self):
        for shape in ("plane", "box", "room"):
            scene = generate_scene(SceneSpec(shape=shape, n_points=400, overlap=0.9,
                                             noise_sigma=0.002, seed=3))
            assert len(scene.source) == 400
