"""Benchmark workloads: seeded inputs, one op, its output check, exact counters.

An op of a registration workload is one ``register`` call on a synthetic
room pair; an op of ``train-5k`` is one training step on cached descriptors
and detector scores. ``execute`` is the timed part; ``check`` runs after the
timer stops and scores the output against the ``synth`` ground truth.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from hireg import matching, training
from hireg.cloud import build_index
from hireg.config import RunConfig
from hireg.descriptors import DescriptorSet, Level, compute_descriptors, estimate_normals
from hireg.detectors import ScoreSet, score_overlap_heuristic, score_saliency
from hireg.errors import (
    DegenerateBatchError,
    DegenerateGeometryError,
    NoConsensusError,
    NoCorrespondenceError,
)
from hireg.metrics import evaluate_pair
from hireg.synth import SceneSpec, SyntheticScene, generate_scene
from hireg.training import NegativeMode, SampleBatch

CONFIG = RunConfig()
# The training step takes the training module's own defaults, as
# ``hireg losscheck`` does, so it does not depend on RunConfig's layout.
RADII = training.SamplingRadii()
CIRCLE = training.CircleLossParams()
TARGETS = training.TargetScores()
ANCHORS = 256

# Directional finite-difference check of the circle-loss gradient.
_FD_ANCHORS = 3
_FD_STEP = 1e-6
_FD_RTOL = 1e-4
_FD_ATOL = 1e-7


@dataclass
class Raw:
    """What the timed part returns: its duration and the op's output or error."""

    start: float
    end: float
    output: object = None
    error: Exception | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Outcome:
    """A checked op. ``failure`` is None when the op and its check passed."""

    op: int
    pair: int
    seconds: float
    counters: dict
    failure: dict | None = None
    unexpected: bool = False
    accuracy: dict = field(default_factory=dict)
    timings_ms: dict = field(default_factory=dict)


def _timed(fn, *args) -> Raw:
    start = time.perf_counter()
    try:
        output, error = fn(*args), None
    except Exception as exc:  # recorded and classified by the check
        output, error = None, exc
    return Raw(start, time.perf_counter(), output, error)


def _scene(recipe: dict, seed: int, index: int, scale: float) -> SyntheticScene:
    """Pair ``index`` of a run seeded with ``seed``; ``scale`` shrinks the point count."""
    points = max(1, round(recipe["n_points"] * scale))
    return generate_scene(SceneSpec(seed=seed * 1000 + index, **(recipe | {"n_points": points})))


def _raised(outcome: Outcome, exc: Exception, typed: tuple[type, ...]) -> Outcome:
    """Record an op that raised. Errors outside ``typed`` keep their traceback."""
    outcome.failure = {
        "pair": outcome.pair,
        "error": type(exc).__name__,
        "message": str(exc),
        "stage": getattr(exc, "stage", None),
        "best_inliers": getattr(exc, "best_inliers", None),
        "iterations": getattr(exc, "iterations", None),
    }
    outcome.unexpected = not isinstance(exc, typed)
    if outcome.unexpected:
        outcome.failure["traceback"] = "".join(traceback.format_exception(exc))
    return outcome


@dataclass(frozen=True)
class RegisterWorkload:
    name: str
    why: str
    scene: dict
    pairs: int
    # Known defects that the benchmark keeps visible: failures are counted in
    # ``failed`` but do not make the run incorrect.
    tolerates_failures: bool
    dominant: tuple[str, ...]
    typed_errors = (NoConsensusError, DegenerateGeometryError)

    def prepare(self, seed: int, index: int, scale: float = 1.0) -> SyntheticScene:
        return _scene(self.scene, seed, index, scale)

    def input_key(self, op: int) -> int:
        """Ops cycle over the pairs, so op ``op`` repeats pair ``op % pairs``."""
        return op % self.pairs

    def execute(self, scene, op: int) -> Raw:
        return _timed(matching.register, scene.source, scene.target, CONFIG)

    def check(self, scene, pair: int, op: int, raw: Raw) -> Outcome:
        outcome = Outcome(op, pair, raw.seconds, counters={})
        exc = raw.error
        if exc is not None:
            if isinstance(exc, NoConsensusError):
                outcome.counters = {"ransac_iterations": exc.iterations,
                                    "ransac_inliers": exc.best_inliers}
            return _raised(outcome, exc, self.typed_errors)
        result = raw.output
        outcome.timings_ms = dict(result.timings_ms)
        outcome.counters = {
            "ransac_iterations": int(result.iterations_used),
            "ransac_inliers": int(result.inlier_count),
            "coarse_pairs": len(result.coarse),
            "fine_pairs": len(result.fine),
            "keypoint_shortfall": int(result.source_keypoints.shortfall
                                      + result.target_keypoints.shortfall),
        }
        m = CONFIG.metrics
        evaluation = evaluate_pair(
            f"{self.name}-{pair}", result.transform, scene.transform, result.fine,
            scene.source, scene.target, result.source_keypoints, result.target_keypoints,
            tau=m.inlier_tau, fmr_threshold=m.fmr_threshold,
            repeat_radius=m.repeatability_radius, rre_max=m.rre_max_deg,
            rte_max=m.rte_max_m)
        outcome.accuracy = {"rre": evaluation.rre, "rte": evaluation.rte,
                            "inlier_ratio": evaluation.inlier_ratio,
                            "repeatability": evaluation.repeatability,
                            "registered": evaluation.registered}
        if not evaluation.registered:
            outcome.failure = {"pair": pair, "error": "not registered",
                               "rre": evaluation.rre, "rte": evaluation.rte}
        return outcome


@dataclass
class TrainPair:
    scene: SyntheticScene
    src_low: DescriptorSet
    src_high: DescriptorSet
    tgt_low: DescriptorSet
    tgt_high: DescriptorSet
    src_scores_low: ScoreSet
    src_scores_high: ScoreSet
    overlap_pred: np.ndarray


@dataclass
class StepOutput:
    batch: SampleBatch
    high: training.CircleLossResult
    low: training.CircleLossResult
    valid: np.ndarray
    overlap_bits: tuple[np.ndarray, np.ndarray]
    total: float


def _train_step(pair: TrainPair, anchor_seed: int) -> StepOutput:
    """One step of the supervision math, in the pairing ``hireg labels`` uses."""
    scene = pair.scene
    batch = training.build_sample_batch(scene.source, scene.target, scene.transform,
                                        RADII, ANCHORS, anchor_seed)
    high = training.circle_loss(pair.src_high, pair.tgt_high, batch,
                                NegativeMode.GLOBAL, CIRCLE)
    low = training.circle_loss(pair.src_low, pair.tgt_low, batch,
                               NegativeMode.LOCAL, CIRCLE)
    high_bits, high_valid = training.matchability_labels(
        pair.src_high, pair.tgt_high, batch, NegativeMode.GLOBAL)
    low_bits, low_valid = training.matchability_labels(
        pair.src_low, pair.tgt_low, batch, NegativeMode.LOCAL)
    valid = high_valid & low_valid
    high_rank, low_rank = training.keypoint_rankings(high_bits[valid], low_bits[valid])
    anchors = batch.anchors[valid]
    rate_high, _ = training.rating_loss(pair.src_scores_high.detection[anchors],
                                        high_rank, TARGETS)
    rate_low, _ = training.rating_loss(pair.src_scores_low.detection[anchors],
                                       low_rank, TARGETS)
    bits = training.overlap_labels(scene.source, scene.target, scene.transform,
                                   RADII.positive)
    overlap, _ = training.overlap_loss(pair.overlap_pred, np.concatenate(bits))
    total = training.total_loss(high.loss, low.loss, overlap, rate_high, rate_low)
    return StepOutput(batch, high, low, valid, bits, total)


def _gradient_ok(pair: TrainPair, batch: SampleBatch, seed: int) -> bool:
    """Seeded directional finite difference of circle_loss on a few anchors."""
    rng = np.random.default_rng(seed)
    for mode, f_src, f_tgt in ((NegativeMode.GLOBAL, pair.src_high, pair.tgt_high),
                               (NegativeMode.LOCAL, pair.src_low, pair.tgt_low)):
        negatives = batch.negatives(mode)
        usable = [s for s in range(len(batch))
                  if batch.positives[s].size and negatives[s].size]
        if not usable:
            continue
        slots = rng.choice(usable, size=min(_FD_ANCHORS, len(usable)), replace=False)
        sub = SampleBatch(
            anchors=batch.anchors[slots],
            positives=tuple(batch.positives[s] for s in slots),
            local_negatives=tuple(batch.local_negatives[s] for s in slots),
            global_negatives=tuple(batch.global_negatives[s] for s in slots),
            requested=len(slots), eligible=len(slots))
        src, tgt = f_src.vectors, f_tgt.vectors
        v_src = rng.normal(size=src.shape)
        v_tgt = rng.normal(size=tgt.shape)
        base = training.circle_loss(src, tgt, sub, mode, CIRCLE)
        up = training.circle_loss(src + _FD_STEP * v_src, tgt + _FD_STEP * v_tgt,
                                  sub, mode, CIRCLE).loss
        down = training.circle_loss(src - _FD_STEP * v_src, tgt - _FD_STEP * v_tgt,
                                    sub, mode, CIRCLE).loss
        numeric = (up - down) / (2.0 * _FD_STEP)
        analytic = float(np.sum(base.grad_source * v_src) + np.sum(base.grad_target * v_tgt))
        if not abs(numeric - analytic) <= _FD_ATOL + _FD_RTOL * abs(analytic):
            return False
    return True


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    why: str
    scene: dict
    pairs: int
    tolerates_failures: bool
    dominant: tuple[str, ...]
    typed_errors = (DegenerateBatchError, NoCorrespondenceError)

    def prepare(self, seed: int, index: int, scale: float = 1.0) -> TrainPair:
        """Scene plus the descriptors and detector scores a step reads."""
        scene = _scene(self.scene, seed, index, scale)
        params = CONFIG.descriptor
        sets = {}
        for side, cloud in (("src", scene.source), ("tgt", scene.target)):
            index_ = build_index(cloud)
            normals = estimate_normals(cloud, params.normal_radius, index=index_)
            for level in (Level.LOW, Level.HIGH):
                sets[side, level] = compute_descriptors(cloud, level, params, normals, index_)
            sets[side, "index"] = index_
        overlap_src = score_overlap_heuristic(sets["src", Level.HIGH], sets["tgt", Level.HIGH])
        overlap_tgt = score_overlap_heuristic(sets["tgt", Level.HIGH], sets["src", Level.HIGH])
        k = CONFIG.detector.saliency_k
        scores = {level: ScoreSet(level, score_saliency(scene.source, sets["src", level],
                                                        sets["src", "index"], k), overlap_src)
                  for level in (Level.LOW, Level.HIGH)}
        return TrainPair(scene, sets["src", Level.LOW], sets["src", Level.HIGH],
                         sets["tgt", Level.LOW], sets["tgt", Level.HIGH],
                         scores[Level.LOW], scores[Level.HIGH],
                         np.concatenate([overlap_src, overlap_tgt]))

    @staticmethod
    def input_key(op: int) -> int:
        """Every step draws its own anchors, so no two ops share an input."""
        return op

    @staticmethod
    def anchor_seed(op: int) -> int:
        return 7919 * (op + 1)

    def execute(self, pair: TrainPair, op: int) -> Raw:
        return _timed(_train_step, pair, self.anchor_seed(op))

    def check(self, pair: TrainPair, index: int, op: int, raw: Raw) -> Outcome:
        outcome = Outcome(op, index, raw.seconds, counters={})
        exc = raw.error
        if exc is not None:
            return _raised(outcome, exc, self.typed_errors)
        step = raw.output
        batch = step.batch
        outcome.counters = {
            "anchors": len(batch),
            "eligible": int(batch.eligible),
            "positives": int(sum(p.size for p in batch.positives)),
            "local_negatives": int(sum(n.size for n in batch.local_negatives)),
            "global_negatives": int(sum(n.size for n in batch.global_negatives)),
            "anchors_used_global": int(step.high.used_anchors),
            "anchors_used_local": int(step.low.used_anchors),
            "anchors_skipped_global": len(step.high.skipped_anchors),
            "anchors_skipped_local": len(step.low.skipped_anchors),
            "labelled_anchors": int(step.valid.sum()),
            "overlap_bits": [int(b.sum()) for b in step.overlap_bits],
        }
        outcome.accuracy = {"total_loss": step.total}
        if not np.isfinite(step.total):
            outcome.failure = {"pair": index, "error": "non-finite loss"}
        elif not _gradient_ok(pair, batch, self.anchor_seed(op)):
            outcome.failure = {"pair": index, "error": "circle_loss gradient check failed"}
        return outcome


# Why each workload exists, in one line, is also in perfbench/README.md.
WORKLOADS = {
    w.name: w for w in (
        RegisterWorkload(
            "room-5k",
            "paper's standard room pair; descriptors and detector scores do nearly all the work",
            dict(shape="room", n_points=5000, overlap=0.7, noise_sigma=0.005),
            pairs=8, tolerates_failures=False, dominant=("descriptors", "detectors")),
        RegisterWorkload(
            "sparse-outliers",
            "sparse pair with 50% outliers; RANSAC dominates and about 1 pair in 8 fails",
            dict(shape="room", n_points=1500, overlap=0.5, noise_sigma=0.005,
                 outlier_fraction=0.5),
            pairs=8, tolerates_failures=True, dominant=("matching",)),
        TrainWorkload(
            "train-5k",
            "training step on a room-5k pair; global-negative circle_loss dominates",
            dict(shape="room", n_points=5000, overlap=0.7, noise_sigma=0.005),
            pairs=3, tolerates_failures=False, dominant=("training.circle_global",)),
    )
}
