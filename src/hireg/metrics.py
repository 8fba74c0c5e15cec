"""Registration and descriptor/detector evaluation metrics.

Rotation error is the geodesic angle between rotations (degrees), translation
error the Euclidean gap (meters). Registration recall applies strict pose
thresholds (defaults 5 degrees / 2 m); feature matching recall counts pairs
whose inlier ratio strictly exceeds its threshold.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .cloud import PointCloud, RigidTransform, build_index, index_array, transform_points
from .detectors import KeypointSet
from .errors import ValidationError
from .matching import CorrespondenceSet


def rotation_error(estimated: RigidTransform, ground_truth: RigidTransform) -> float:
    """Geodesic distance between the rotations, in degrees, in [0, 180]."""
    trace = float(np.trace(ground_truth.rotation.T @ estimated.rotation))
    angle = np.arccos(np.clip((trace - 1.0) / 2.0, -1.0, 1.0))
    return float(np.degrees(angle))


def translation_error(estimated: RigidTransform, ground_truth: RigidTransform) -> float:
    """Euclidean distance between the translations, in meters."""
    return float(np.linalg.norm(estimated.translation - ground_truth.translation))


def inlier_ratio(correspondences: CorrespondenceSet, source: PointCloud,
                 target: PointCloud, ground_truth: RigidTransform,
                 tau: float = 0.1) -> float:
    """Fraction of pairs whose aligned source point lands within tau.

    An empty correspondence set is defined as ratio 0.
    """
    if not tau > 0:
        raise ValidationError("tau must be positive")
    if len(correspondences) == 0:
        return 0.0
    correspondences.check_indices(len(source), len(target))
    aligned = transform_points(source.points[correspondences.pairs[:, 0]], ground_truth)
    residuals = np.linalg.norm(aligned - target.points[correspondences.pairs[:, 1]], axis=1)
    return float(np.mean(residuals <= tau))


def feature_matching_recall(inlier_ratios, threshold: float = 0.05) -> float:
    """Fraction of pairs with inlier ratio strictly above the threshold."""
    ratios = np.asarray(inlier_ratios, dtype=np.float64).reshape(-1)
    if ratios.size == 0:
        raise ValidationError("need at least one inlier ratio")
    return float(np.mean(ratios > threshold))


def repeatability(source_keypoints: KeypointSet, target_keypoints: KeypointSet,
                  source: PointCloud, target: PointCloud,
                  ground_truth: RigidTransform, radius: float = 0.1) -> float:
    """Fraction of source keypoints re-detected within radius after alignment."""
    if not radius > 0:
        raise ValidationError("radius must be positive")
    if len(source_keypoints) == 0 or len(target_keypoints) == 0:
        raise ValidationError("keypoint sets must be nonempty")
    src_idx = index_array(source_keypoints.indices, "source keypoints", len(source))
    tgt_idx = index_array(target_keypoints.indices, "target keypoints", len(target))
    aligned = transform_points(source.points[src_idx], ground_truth)
    kp_cloud = PointCloud(target.points[tgt_idx])
    nearest, _ = build_index(kp_cloud).knn_batch(aligned, 1)
    return float(np.mean(nearest.reshape(-1) <= radius))


@dataclass(frozen=True)
class PairEvaluation:
    """Metrics for one registered cloud pair."""

    pair_id: str
    rre: float
    rte: float
    inlier_ratio: float
    fmr_hit: int
    repeatability: float
    registered: int

    def __post_init__(self):
        for name in ("rre", "rte", "inlier_ratio", "repeatability"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if not 0 <= self.inlier_ratio <= 1 or not 0 <= self.repeatability <= 1:
            raise ValidationError("ratios must lie in [0, 1]")


def registration_recall(evaluations, rre_max: float = 5.0,
                        rte_max: float = 2.0) -> float:
    """Fraction of pairs with RRE < rre_max and RTE < rte_max (both strict)."""
    evals = list(evaluations)
    if not evals:
        raise ValidationError("need at least one pair evaluation")
    hits = [1 if (e.rre < rre_max and e.rte < rte_max) else 0 for e in evals]
    return float(np.mean(hits))


def evaluate_pair(pair_id: str, estimated: RigidTransform, ground_truth: RigidTransform,
                  correspondences: CorrespondenceSet, source: PointCloud,
                  target: PointCloud, source_keypoints: KeypointSet,
                  target_keypoints: KeypointSet, *, tau: float = 0.1,
                  fmr_threshold: float = 0.05, repeat_radius: float = 0.1,
                  rre_max: float = 5.0, rte_max: float = 2.0) -> PairEvaluation:
    """Assemble the standard per-pair evaluation row."""
    rre = rotation_error(estimated, ground_truth)
    rte = translation_error(estimated, ground_truth)
    ratio = inlier_ratio(correspondences, source, target, ground_truth, tau)
    rep = repeatability(source_keypoints, target_keypoints, source, target,
                        ground_truth, repeat_radius)
    return PairEvaluation(
        pair_id=pair_id,
        rre=rre,
        rte=rte,
        inlier_ratio=ratio,
        fmr_hit=1 if ratio > fmr_threshold else 0,
        repeatability=rep,
        registered=1 if (rre < rre_max and rte < rte_max) else 0,
    )


def aggregate(evaluations: list[PairEvaluation]) -> dict[str, float]:
    """Summary row over pair evaluations.

    RRE/RTE statistics are computed over registered pairs only (failed pairs
    would dominate the means); they are NaN when nothing registered.
    """
    if not evaluations:
        raise ValidationError("need at least one pair evaluation")
    rres = np.array([e.rre for e in evaluations])
    rtes = np.array([e.rte for e in evaluations])
    reg = np.array([e.registered for e in evaluations], dtype=bool)
    ok = np.flatnonzero(reg)
    return {
        "RR": float(reg.mean()),
        "mean RRE (deg)": float(rres[ok].mean()) if ok.size else float("nan"),
        "median RRE (deg)": float(np.median(rres[ok])) if ok.size else float("nan"),
        "mean RTE (m)": float(rtes[ok].mean()) if ok.size else float("nan"),
        "median RTE (m)": float(np.median(rtes[ok])) if ok.size else float("nan"),
        "mean IR": float(np.mean([e.inlier_ratio for e in evaluations])),
        "FMR": float(np.mean([e.fmr_hit for e in evaluations])),
        "mean Rep": float(np.mean([e.repeatability for e in evaluations])),
    }


@dataclass
class BenchmarkReport:
    """Per-sample-count evaluation blocks plus the config that produced them.

    ``blocks`` maps a keypoint sample count to its pair evaluations;
    aggregates are always recomputable from the rows.
    """

    blocks: dict[int, list[PairEvaluation]]
    config: dict
    rr_definition: str = "pose thresholds: RRE < rre_max and RTE < rte_max"
    failures: list[dict] | None = None

    def aggregates(self) -> dict[int, dict[str, float]]:
        return {count: aggregate(rows) for count, rows in self.blocks.items()}

    def to_dict(self) -> dict:
        return {
            "rr_definition": self.rr_definition,
            "config": self.config,
            "blocks": {
                str(count): {
                    "aggregate": aggregate(rows),
                    "pairs": [asdict(row) for row in rows],
                }
                for count, rows in self.blocks.items()
            },
            "failures": self.failures or [],
        }

    def to_json(self, indent: int = 2) -> str:
        """Strict JSON: an undefined aggregate (NaN RRE/RTE statistics of a
        block where nothing registered) is written as ``null``."""
        doc = self.to_dict()
        for block in doc["blocks"].values():
            block["aggregate"] = {key: None if np.isnan(value) else value
                                  for key, value in block["aggregate"].items()}
        return json.dumps(doc, indent=indent, allow_nan=False)

    def to_text(self) -> str:
        counts = sorted(self.blocks)
        aggs = self.aggregates()
        width = 12
        header = "metric".ljust(20) + "".join(str(c).rjust(width) for c in counts)
        lines = [header, "-" * len(header)]
        # Every aggregate holds the same keys, in the order ``aggregate`` builds.
        for key in next(iter(aggs.values()), ()):
            row = key.ljust(20)
            row += "".join(f"{aggs[c][key]:{width}.4f}" for c in counts)
            lines.append(row)
        lines.append("")
        lines.append(f"pairs per block: {[len(self.blocks[c]) for c in counts]}")
        lines.append(f"RR definition: {self.rr_definition}")
        if self.failures:
            lines.append(f"failures: {len(self.failures)}")
        return "\n".join(lines)
