"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS line (with its runtime) after its assertions, so
`pytest -s tests/test_acceptance.py` doubles as the acceptance report.
"""

import json
import math
import time

import numpy as np
import pytest

from hireg import (
    CircleLossParams,
    CorrespondenceSet,
    DescriptorSet,
    Level,
    NegativeMode,
    NoConsensusError,
    PointCloud,
    RansacParams,
    RigidTransform,
    RunConfig,
    SampleBatch,
    SceneSpec,
    TargetScores,
    build_index,
    circle_loss,
    generate_scene,
    inlier_ratio,
    keypoint_rankings,
    overlap_loss,
    ransac_transform,
    rating_loss,
    register,
    registration_recall,
    repeatability,
    rotation_error,
    sample_keypoints,
    transform_points,
    translation_error,
    weighted_svd,
)
from hireg.cli import _scalar_circle_loss, main
from hireg.detectors import KeypointSet, ScoreSet
from hireg.matching import Stage
from hireg.metrics import PairEvaluation
from hireg import io

from conftest import axis_angle_rotation, random_transform, unit_rows


def report(number: int, name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"
    print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s < {budget:.0f}s)")


def random_batch(rng, n_anchor=6, n_target=30):
    positives, local_neg, global_neg = [], [], []
    for _ in range(n_anchor):
        chosen = rng.choice(n_target, size=9, replace=False)
        positives.append(chosen[:3])
        local_neg.append(chosen[3:6])
        global_neg.append(chosen[6:])
    return SampleBatch(
        anchors=np.arange(n_anchor, dtype=np.intp),
        positives=tuple(positives),
        local_negatives=tuple(local_neg),
        global_negatives=tuple(global_neg),
        requested=n_anchor,
        eligible=n_anchor,
    )


def test_criterion_1_equation_exactness():
    started = time.perf_counter()
    # dual keypoint rankings: exhaustive 4-case truth table
    table = {(0, 0): (0, 0), (0, 1): (1, 2), (1, 0): (2, 1), (1, 1): (3, 3)}
    for (mh, ml), expected in table.items():
        high, low = keypoint_rankings([mh], [ml])
        assert (int(high[0]), int(low[0])) == expected

    # rating regression loss vs scalar-loop MSE
    rng = np.random.default_rng(11)
    targets = TargetScores()
    lookup = [targets.rank0, targets.rank1, targets.rank2, targets.rank3]
    for _ in range(50):
        scores = rng.uniform(0, 1, size=48)
        ranks = rng.integers(0, 4, size=48)
        loss, _ = rating_loss(scores, ranks, targets)
        reference = sum((float(s) - lookup[r]) ** 2 for s, r in zip(scores, ranks)) / 48
        assert abs(loss - reference) < 1e-10

    # contrastive loss vs scalar-loop evaluation on 100 random batches
    params = CircleLossParams()
    for trial in range(100):
        trial_rng = np.random.default_rng(1000 + trial)
        batch = random_batch(trial_rng)
        f_src = unit_rows(trial_rng, 6, 4)
        f_tgt = unit_rows(trial_rng, 30, 4)
        mode = NegativeMode.GLOBAL if trial % 2 == 0 else NegativeMode.LOCAL
        got = circle_loss(f_src, f_tgt, batch, mode, params).loss
        want = _scalar_circle_loss(f_src, f_tgt, batch, mode, params)
        assert abs(got - want) < 1e-10
    report(1, "equation exactness", started, budget=10.0)


def test_criterion_2_gradient_suite():
    started = time.perf_counter()
    h = 1e-5
    params = CircleLossParams()
    targets = TargetScores()

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-6)

    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        batch = random_batch(rng)
        f_src = unit_rows(rng, 6, 4)
        f_tgt = unit_rows(rng, 30, 4)
        for mode in (NegativeMode.GLOBAL, NegativeMode.LOCAL):
            result = circle_loss(f_src, f_tgt, batch, mode, params)
            for _ in range(20):
                i = int(rng.integers(6))
                j = int(rng.integers(4))
                bumped = f_src.copy()
                bumped[i, j] += h
                up = circle_loss(bumped, f_tgt, batch, mode, params).loss
                bumped[i, j] -= 2 * h
                down = circle_loss(bumped, f_tgt, batch, mode, params).loss
                assert rel(result.grad_source[i, j], (up - down) / (2 * h)) < 1e-4

        scores = rng.uniform(0.02, 0.98, size=40)
        ranks = rng.integers(0, 4, size=40)
        _, grad = rating_loss(scores, ranks, targets)
        for i in rng.integers(0, 40, size=20):
            bumped = scores.copy()
            bumped[i] += h
            up, _ = rating_loss(bumped, ranks, targets)
            bumped[i] -= 2 * h
            down, _ = rating_loss(bumped, ranks, targets)
            assert rel(grad[i], (up - down) / (2 * h)) < 1e-4

        pred = rng.uniform(0.02, 0.98, size=40)
        labels = rng.integers(0, 2, size=40)
        _, grad = overlap_loss(pred, labels)
        for i in rng.integers(0, 40, size=20):
            bumped = pred.copy()
            bumped[i] += h
            up, _ = overlap_loss(bumped, labels)
            bumped[i] -= 2 * h
            down, _ = overlap_loss(bumped, labels)
            assert rel(grad[i], (up - down) / (2 * h)) < 1e-4
    report(2, "gradient suite", started, budget=30.0)


def test_criterion_3_geometry_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    # 1,000 exact-fit recoveries
    for _ in range(1000):
        points = rng.normal(size=(8, 3))
        transform = random_transform(rng)
        weights = rng.uniform(0.1, 1.0, size=8)
        estimate = weighted_svd(points, transform_points(points, transform), weights)
        relative = estimate.rotation @ transform.rotation.T
        angle = math.acos(min(1.0, max(-1.0, (np.trace(relative) - 1.0) / 2.0)))
        assert angle < 1e-6
        assert np.linalg.norm(estimate.translation - transform.translation) < 1e-6

    # spatial index vs brute force on 100 random instances
    for instance in range(100):
        inst_rng = np.random.default_rng(2000 + instance)
        points = inst_rng.uniform(-1, 1, size=(120, 3))
        index = build_index(PointCloud(points))
        center = inst_rng.uniform(-1, 1, size=3)
        radius = inst_rng.uniform(0.1, 1.2)
        got = set(index.radius_batch(center[None], radius)[0].tolist())
        want = {i for i in range(120)
                if math.dist(points[i], center) <= radius}
        assert got == want
    report(3, "geometry suite", started, budget=30.0)


def test_criterion_4_robust_matching():
    started = time.perf_counter()
    successes = 0
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        transform = random_transform(rng)
        src_in = rng.uniform(-1, 1, size=(40, 3))
        tgt_in = transform_points(src_in, transform)
        src_out = rng.uniform(-1, 1, size=(60, 3))
        tgt_out = rng.uniform(-1, 1, size=(60, 3))
        source = PointCloud(np.vstack([src_in, src_out]))
        target = PointCloud(np.vstack([tgt_in, tgt_out]))
        pairs = np.column_stack([np.arange(100), np.arange(100)])
        correspondences = CorrespondenceSet(pairs, np.ones(100), Stage.COARSE)
        params = RansacParams(max_iterations=1000, inlier_threshold=0.05)
        try:
            estimate, _, _ = ransac_transform(source, target, correspondences, params,
                                              seed=seed)
        except NoConsensusError:
            continue
        if (rotation_error(estimate, transform) < 0.5
                and translation_error(estimate, transform) < 0.02):
            successes += 1
    assert successes >= 99
    report(4, "robust matching", started, budget=60.0)


def test_criterion_5_global_to_local_trend():
    started = time.perf_counter()
    ir_wins = 0
    coarse_rre, fine_rre = [], []
    coarse_rte, fine_rte = [], []
    for seed in range(50):
        scene = generate_scene(SceneSpec(shape="room", n_points=5000, overlap=0.7,
                                         noise_sigma=0.005, seed=seed))
        result = register(scene.source, scene.target, RunConfig(seed=seed))
        ir_coarse = inlier_ratio(result.coarse, scene.source, scene.target,
                                 scene.transform, tau=0.1)
        ir_fine = inlier_ratio(result.fine, scene.source, scene.target,
                               scene.transform, tau=0.1)
        if ir_fine >= ir_coarse:
            ir_wins += 1
        coarse_rre.append(rotation_error(result.coarse_transform, scene.transform))
        fine_rre.append(rotation_error(result.transform, scene.transform))
        coarse_rte.append(translation_error(result.coarse_transform, scene.transform))
        fine_rte.append(translation_error(result.transform, scene.transform))
    assert ir_wins >= 45, f"fine IR >= coarse IR on only {ir_wins}/50 pairs"
    assert np.median(fine_rre) <= np.median(coarse_rre), (
        f"median fine RRE {np.median(fine_rre):.4f} > "
        f"median coarse RRE {np.median(coarse_rre):.4f}")
    # same trend direction for translation (global-to-local refinement gain)
    assert np.median(fine_rte) <= np.median(coarse_rte), (
        f"median fine RTE {np.median(fine_rte):.4f} > "
        f"median coarse RTE {np.median(coarse_rte):.4f}")
    report(5, "global-to-local trend", started, budget=300.0)


def test_criterion_6_detector_sanity():
    started = time.perf_counter()
    detection = np.array([0.4, 0.3, 0.2, 0.08, 0.02])
    scores = ScoreSet(Level.HIGH, detection, np.ones_like(detection))
    trials = 10_000
    counts = np.zeros(detection.size)
    for seed in range(trials):
        counts[sample_keypoints(scores, 1, seed=seed).indices[0]] += 1
    shares = detection / detection.sum()
    for i, p in enumerate(shares):
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(counts[i] - trials * p) <= 3 * sigma, f"slot {i} off by >3 sigma"

    rng = np.random.default_rng(9)
    cloud = PointCloud(rng.uniform(0, 1, size=(50, 3)))
    keypoints = KeypointSet(indices=np.arange(20))
    value = repeatability(keypoints, keypoints, cloud, cloud,
                          RigidTransform.identity(), radius=0.1)
    assert value == 1.0
    report(6, "detector sanity", started, budget=60.0)


def test_criterion_7_metric_analytics():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(1000):
        axis = rng.normal(size=3)
        angle = rng.uniform(math.radians(1.0), math.radians(179.0))
        estimate = RigidTransform(axis_angle_rotation(axis, angle), np.zeros(3))
        got = rotation_error(estimate, RigidTransform.identity())
        assert abs(got - math.degrees(angle)) < 1e-9

    def row(rre, rte):
        return PairEvaluation(pair_id="c", rre=rre, rte=rte, inlier_ratio=1.0,
                              fmr_hit=1, repeatability=1.0,
                              registered=1 if (rre < 5.0 and rte < 2.0) else 0)

    crafted = [row(1.0, 0.5), row(4.99, 1.99), row(5.0, 0.1), row(0.1, 2.0),
               row(6.0, 3.0), row(2.0, 1.0)]
    # hand count: rows 0, 1, 5 pass both strict pose thresholds
    assert registration_recall(crafted, rre_max=5.0, rte_max=2.0) == pytest.approx(3 / 6)
    crafted_all = [row(0.2, 0.01) for _ in range(7)]
    assert registration_recall(crafted_all, rre_max=5.0, rte_max=2.0) == 1.0
    report(7, "metric analytics", started, budget=30.0)


def test_criterion_8_label_pipeline(tmp_path):
    started = time.perf_counter()
    n = 30
    anchor = 15
    line = PointCloud(np.array([[i * 0.07, 0.0, 0.0] for i in range(n)]))
    src = tmp_path / "src.xyz"
    tgt = tmp_path / "tgt.xyz"
    io.save_xyz(src, line)
    io.save_xyz(tgt, line)
    gt = tmp_path / "gt.json"
    io.save_transform(gt, RigidTransform.identity())

    rng = np.random.default_rng(4)
    low_rows = unit_rows(rng, n, 8)
    high_rows = unit_rows(rng, n, 8)

    def dump(name, level, rows):
        path = tmp_path / name
        io.save_descriptors(path, DescriptorSet(level, rows))
        return str(path)

    # identity scene with distinct per-point descriptors: all ranks 3
    out = tmp_path / "identity.jsonl"
    code = main([
        "labels", "--src", str(src), "--tgt", str(tgt), "--gt", str(gt),
        "--seed", "0", "--out", str(out),
        "--desc-src-low", dump("sl.hdrg", Level.LOW, low_rows),
        "--desc-src-high", dump("sh.hdrg", Level.HIGH, high_rows),
        "--desc-tgt-low", dump("tl.hdrg", Level.LOW, low_rows),
        "--desc-tgt-high", dump("th.hdrg", Level.HIGH, high_rows),
    ])
    assert code == 0
    records = [json.loads(line_) for line_ in out.read_text().splitlines()]
    assert len(records) == n
    assert all(r.get("r_high") == 3 and r.get("r_low") == 3 for r in records)

    # crafted anchor: low-level match succeeds, high-level fails
    tgt_high = high_rows.copy()
    displaced = np.zeros(8)
    displaced[0] = 1.0
    if abs(np.dot(displaced, high_rows[anchor])) > 0.9:
        displaced = np.zeros(8)
        displaced[1] = 1.0
    tgt_high[anchor] = displaced
    tgt_high[0] = high_rows[anchor]  # global negative carrying the anchor's descriptor
    out2 = tmp_path / "crafted.jsonl"
    code = main([
        "labels", "--src", str(src), "--tgt", str(tgt), "--gt", str(gt),
        "--seed", "0", "--out", str(out2),
        "--desc-src-low", dump("sl2.hdrg", Level.LOW, low_rows),
        "--desc-src-high", dump("sh2.hdrg", Level.HIGH, high_rows),
        "--desc-tgt-low", dump("tl2.hdrg", Level.LOW, low_rows),
        "--desc-tgt-high", dump("th2.hdrg", Level.HIGH, tgt_high),
    ])
    assert code == 0
    records = {r["anchor"]: r for r in
               (json.loads(line_) for line_ in out2.read_text().splitlines())}
    target_record = records[anchor]
    assert (target_record["m_high"], target_record["m_low"]) == (0, 1)
    assert (target_record["r_high"], target_record["r_low"]) == (1, 2)
    report(8, "label pipeline", started, budget=60.0)
