"""Hierarchical dual-level descriptor/detector point cloud registration."""

from .cloud import (
    NeighborGraph,
    PointCloud,
    RigidTransform,
    SpatialIndex,
    apply_transform,
    build_index,
    compose,
    invert,
    transform_points,
)
from .config import DetectorParams, MatchingParams, MetricParams, RunConfig, load_config, save_config
from .descriptors import (
    DescriptorParams,
    DescriptorSet,
    Level,
    compute_descriptors,
    estimate_normals,
)
from .detectors import (
    KeypointSet,
    ScoreSet,
    sample_keypoints,
    score_overlap_heuristic,
    score_saliency,
)
from .errors import (
    DegenerateBatchError,
    DegenerateGeometryError,
    DegenerateScoreError,
    GenerationError,
    NoConsensusError,
    NoCorrespondenceError,
    ValidationError,
)
from .matching import (
    CorrespondenceSet,
    RansacParams,
    RegistrationResult,
    Stage,
    coarse,
    describe,
    describe_cloud,
    local_cell_match,
    match_features,
    ransac_transform,
    refine,
    register,
    select_fine_subset,
    weighted_svd,
)
from .metrics import (
    BenchmarkReport,
    PairEvaluation,
    aggregate,
    evaluate_pair,
    feature_matching_recall,
    inlier_ratio,
    registration_recall,
    repeatability,
    rotation_error,
    translation_error,
)
from .synth import SceneSpec, SyntheticScene, generate_scene, measured_overlap
from .training import (
    CircleLossParams,
    CircleLossResult,
    NegativeMode,
    SampleBatch,
    SamplingRadii,
    TargetScores,
    build_sample_batch,
    circle_loss,
    keypoint_rankings,
    matchability_labels,
    overlap_labels,
    overlap_loss,
    rating_loss,
    total_loss,
)

__version__ = "0.1.0"
