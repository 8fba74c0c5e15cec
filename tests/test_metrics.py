"""Evaluation metric definitions and aggregate report structure."""

import math

import numpy as np
import pytest

from hireg import (
    CorrespondenceSet,
    PointCloud,
    RigidTransform,
    ValidationError,
    apply_transform,
    feature_matching_recall,
    inlier_ratio,
    registration_recall,
    repeatability,
    rotation_error,
    translation_error,
)
from hireg.detectors import KeypointSet
from hireg.matching import Stage
from hireg.metrics import BenchmarkReport, PairEvaluation, aggregate

from conftest import axis_angle_rotation, random_transform


def make_eval(pair_id="p", rre=0.0, rte=0.0, ir=1.0, rep=1.0,
              rre_max=5.0, rte_max=2.0, fmr_threshold=0.05):
    return PairEvaluation(
        pair_id=pair_id, rre=rre, rte=rte, inlier_ratio=ir,
        fmr_hit=1 if ir > fmr_threshold else 0,
        repeatability=rep,
        registered=1 if (rre < rre_max and rte < rte_max) else 0,
    )


class TestRotationError:
    def test_zero_for_equal(self, rng):
        # arccos near 1 has ~sqrt(eps) conditioning, so "zero" means < 1e-5 deg
        t = random_transform(rng)
        assert rotation_error(t, t) < 1e-5

    def test_ninety_degree_composition(self, rng):
        base = random_transform(rng)
        quarter = axis_angle_rotation([0, 0, 1], np.pi / 2)
        turned = RigidTransform(base.rotation @ quarter, base.translation)
        assert rotation_error(turned, base) == pytest.approx(90.0, abs=1e-9)

    def test_matches_axis_angle_construction(self, rng):
        for _ in range(200):
            axis = rng.normal(size=3)
            angle = rng.uniform(np.radians(1.0), np.radians(179.0))
            est = RigidTransform(axis_angle_rotation(axis, angle), np.zeros(3))
            gt = RigidTransform.identity()
            assert rotation_error(est, gt) == pytest.approx(np.degrees(angle), abs=1e-9)

    def test_symmetric(self, rng):
        a = random_transform(rng)
        b = random_transform(rng)
        assert rotation_error(a, b) == pytest.approx(rotation_error(b, a), abs=1e-12)

    def test_range_bounded(self, rng):
        for _ in range(100):
            a = random_transform(rng)
            b = random_transform(rng)
            err = rotation_error(a, b)
            assert 0.0 <= err <= 180.0


class TestTranslationError:
    def test_zero_for_equal(self, rng):
        t = random_transform(rng)
        assert translation_error(t, t) == 0.0

    def test_three_four_five(self):
        a = RigidTransform(np.eye(3), [3.0, 4.0, 0.0])
        b = RigidTransform(np.eye(3), [0.0, 0.0, 0.0])
        assert translation_error(a, b) == pytest.approx(5.0, abs=1e-12)

    def test_matches_scalar_loop(self, rng):
        a = random_transform(rng)
        b = random_transform(rng)
        expected = math.sqrt(sum((float(a.translation[i]) - float(b.translation[i])) ** 2
                                 for i in range(3)))
        assert translation_error(a, b) == pytest.approx(expected, rel=1e-12)


class TestRegistrationRecall:
    def test_all_exact(self):
        evals = [make_eval(rre=0.0, rte=0.0) for _ in range(4)]
        assert registration_recall(evals) == 1.0

    def test_one_of_two_fails_rotation(self):
        evals = [make_eval(rre=0.1, rte=0.1), make_eval(rre=7.0, rte=0.1)]
        assert registration_recall(evals, rre_max=5.0, rte_max=2.0) == 0.5

    def test_default_pose_thresholds_strict(self):
        boundary = [make_eval(rre=5.0, rte=0.0), make_eval(rre=0.0, rte=2.0)]
        assert registration_recall(boundary, rre_max=5.0, rte_max=2.0) == 0.0

    def test_monotone_in_thresholds(self, rng):
        evals = [make_eval(rre=float(rng.uniform(0, 10)), rte=float(rng.uniform(0, 3)))
                 for _ in range(50)]
        recalls = [registration_recall(evals, rre_max=r, rte_max=t)
                   for r, t in ((1, 0.5), (5, 2.0), (10.5, 3.5))]
        assert recalls[0] <= recalls[1] <= recalls[2]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            registration_recall([])


class TestInlierRatio:
    def test_exact_correspondences(self, rng):
        src = PointCloud(rng.uniform(0, 1, size=(20, 3)))
        gt = random_transform(rng)
        tgt = apply_transform(src, gt)
        pairs = np.column_stack([np.arange(20), np.arange(20)])
        corr = CorrespondenceSet(pairs, np.ones(20), Stage.FINE)
        assert inlier_ratio(corr, src, tgt, gt, tau=0.1) == 1.0

    def test_random_beyond_tau(self, rng):
        src = PointCloud(rng.uniform(0, 1, size=(10, 3)))
        tgt = PointCloud(rng.uniform(50, 51, size=(10, 3)))
        pairs = np.column_stack([np.arange(10), np.arange(10)])
        corr = CorrespondenceSet(pairs, np.ones(10), Stage.FINE)
        assert inlier_ratio(corr, src, tgt, RigidTransform.identity(), tau=0.1) == 0.0

    def test_known_mixed_count(self, rng):
        src = PointCloud(rng.uniform(0, 1, size=(10, 3)))
        gt = random_transform(rng)
        aligned = src.points @ gt.rotation.T + gt.translation
        k = 7
        tgt_pts = aligned.copy()
        tgt_pts[k:] += 5.0  # push 3 out of tolerance
        corr = CorrespondenceSet(np.column_stack([np.arange(10), np.arange(10)]),
                                 np.ones(10), Stage.FINE)
        ratio = inlier_ratio(corr, src, PointCloud(tgt_pts), gt, tau=0.1)
        assert ratio == pytest.approx(k / 10)

    def test_negative_index_rejected(self, rng):
        # Once read as the last point: (-1, 9) on an identity pair gave 1.0.
        with pytest.raises(ValidationError, match="nonnegative"):
            CorrespondenceSet(np.array([[-1, 9]]), np.ones(1), Stage.FINE)

    @pytest.mark.parametrize("pair, side", [((10, 0), "source"), ((0, 10), "target")],
                             ids=["source", "target"])
    def test_index_past_cloud_rejected(self, rng, pair, side):
        src = PointCloud(rng.uniform(0, 1, size=(10, 3)))
        corr = CorrespondenceSet(np.array([pair]), np.ones(1), Stage.FINE)
        with pytest.raises(ValidationError, match=rf"{side} indices must lie in \[0, 10\)"):
            inlier_ratio(corr, src, src, RigidTransform.identity())

    def test_empty_is_zero(self, rng):
        src = PointCloud(rng.uniform(0, 1, size=(5, 3)))
        corr = CorrespondenceSet(np.empty((0, 2)), np.empty(0), Stage.FINE)
        assert inlier_ratio(corr, src, src, RigidTransform.identity()) == 0.0

    def test_invariant_under_common_rigid_motion(self, rng):
        src = PointCloud(rng.uniform(0, 1, size=(30, 3)))
        gt = random_transform(rng)
        tgt_pts = (src.points @ gt.rotation.T + gt.translation
                   + rng.normal(0, 0.05, size=(30, 3)))
        tgt = PointCloud(tgt_pts)
        corr = CorrespondenceSet(np.column_stack([np.arange(30), np.arange(30)]),
                                 np.ones(30), Stage.FINE)
        base = inlier_ratio(corr, src, tgt, gt, tau=0.08)

        s = random_transform(rng)
        src2 = apply_transform(src, s)
        tgt2 = apply_transform(tgt, s)
        # conjugate the ground truth: gt2 = s . gt . s^-1
        rot = s.rotation @ gt.rotation @ s.rotation.T
        trans = (s.rotation @ gt.translation + s.translation
                 - rot @ s.translation)
        gt2 = RigidTransform(rot, trans)
        assert inlier_ratio(corr, src2, tgt2, gt2, tau=0.08) == pytest.approx(base)


class TestFeatureMatchingRecall:
    def test_all_ones(self):
        assert feature_matching_recall([1.0, 1.0, 1.0]) == 1.0

    def test_boundary_excluded(self):
        assert feature_matching_recall([0.05], threshold=0.05) == 0.0

    def test_counting_oracle(self, rng):
        ratios = rng.uniform(0, 0.2, size=40)
        expected = sum(1 for r in ratios if r > 0.05) / 40
        assert feature_matching_recall(ratios, 0.05) == pytest.approx(expected)


class TestRepeatability:
    def test_identical_everything(self, rng):
        cloud = PointCloud(rng.uniform(0, 1, size=(30, 3)))
        kp = KeypointSet(indices=np.arange(10))
        value = repeatability(kp, kp, cloud, cloud, RigidTransform.identity(), radius=0.1)
        assert value == 1.0

    def test_all_farther_than_radius(self, rng):
        src = PointCloud(rng.uniform(0, 1, size=(10, 3)))
        tgt = PointCloud(rng.uniform(30, 31, size=(10, 3)))
        kp_s = KeypointSet(indices=np.arange(5))
        kp_t = KeypointSet(indices=np.arange(5))
        assert repeatability(kp_s, kp_t, src, tgt, RigidTransform.identity(), 0.1) == 0.0

    def test_constructed_fraction(self, rng):
        src = PointCloud(np.array([[float(i), 0.0, 0.0] for i in range(6)]))
        # keep targets matching the first 4 keypoints, push the rest away
        tgt_pts = src.points.copy()
        tgt_pts[4:] += 10.0
        tgt = PointCloud(tgt_pts)
        kp = KeypointSet(indices=np.arange(6))
        value = repeatability(kp, kp, src, tgt, RigidTransform.identity(), radius=0.05)
        assert value == pytest.approx(4 / 6)

    def test_empty_rejected(self, rng):
        cloud = PointCloud(rng.uniform(0, 1, size=(5, 3)))
        kp = KeypointSet(indices=np.arange(3))
        empty = KeypointSet(indices=np.empty(0, dtype=int))
        with pytest.raises(ValidationError):
            repeatability(empty, kp, cloud, cloud, RigidTransform.identity())


class TestAggregatesAndReport:
    def test_aggregate_recomputable_from_rows(self, rng):
        rows = [make_eval(pair_id=f"p{i}", rre=float(rng.uniform(0, 8)),
                          rte=float(rng.uniform(0, 2.5)), ir=float(rng.uniform(0, 1)),
                          rep=float(rng.uniform(0, 1)))
                for i in range(20)]
        agg = aggregate(rows)
        assert agg["RR"] == pytest.approx(np.mean([r.registered for r in rows]))
        assert agg["mean IR"] == pytest.approx(np.mean([r.inlier_ratio for r in rows]))
        assert agg["FMR"] == pytest.approx(np.mean([r.fmr_hit for r in rows]))
        registered = [r.rre for r in rows if r.registered]
        if registered:
            assert agg["median RRE (deg)"] == pytest.approx(np.median(registered))

    def test_report_text_has_block_per_sample_count(self):
        rows = [make_eval(pair_id="a"), make_eval(pair_id="b")]
        report = BenchmarkReport(blocks={250: rows, 500: rows, 1000: rows}, config={})
        text = report.to_text()
        header = text.splitlines()[0]
        for count in (250, 500, 1000):
            assert str(count) in header
        assert "RR" in text and "mean Rep" in text

    def test_report_json_round_trip_fields(self):
        rows = [make_eval(pair_id="a", rre=1.0, rte=0.5, ir=0.7, rep=0.9)]
        report = BenchmarkReport(blocks={500: rows}, config={"seed": 3})
        data = report.to_dict()
        assert data["config"]["seed"] == 3
        assert data["blocks"]["500"]["pairs"][0]["pair_id"] == "a"
        assert data["blocks"]["500"]["aggregate"]["RR"] == 1.0

    def test_pair_evaluation_validates(self):
        with pytest.raises(ValidationError):
            PairEvaluation(pair_id="x", rre=np.nan, rte=0.0, inlier_ratio=0.5,
                           fmr_hit=1, repeatability=0.5, registered=1)
