"""RANSAC in stacked blocks against the per-sample loop.

``ransac_transform`` draws its minimal samples one per iteration, in
iteration order, fits and scores a block of them with stacked ``svd`` and
``@`` and one residual matrix, then replays the best-count and early-exit
logic sample by sample. The reference below is the earlier loop: one draw,
one nondegeneracy SVD, one weighted SVD and one residual pass per iteration.
The transform, the mask, the iteration count and the fields of
``NoConsensusError`` must match it bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from hireg import (
    CorrespondenceSet,
    DegenerateGeometryError,
    NoConsensusError,
    PointCloud,
    RansacParams,
    RigidTransform,
    ValidationError,
)
from hireg import matching
from hireg.cloud import transform_points
from hireg.matching import _RANSAC_BLOCK, Stage, ransac_transform

from conftest import random_rotation


def _ref_weighted_svd(src, tgt, w):
    w = w / w.sum()
    centroid_src = w @ src
    centroid_tgt = w @ tgt
    x = src - centroid_src
    y = tgt - centroid_tgt
    cross_cov = (x * w[:, None]).T @ y
    u, s, vt = np.linalg.svd(cross_cov)
    if s[0] <= 0 or s[1] <= 1e-9 * s[0]:
        raise DegenerateGeometryError("collinear")
    v = vt.T
    d = np.sign(np.linalg.det(v @ u.T))
    rotation = v @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(rotation, centroid_tgt - rotation @ centroid_src)


def _ref_nondegenerate_sample(points):
    spread = points - points.mean(axis=0)
    _, s, _ = np.linalg.svd(spread, full_matrices=False)
    return s[0] > 0 and s[1] > 1e-9 * s[0]


def _ref_ransac(source, target, correspondences, params, seed, bend=None):
    """The per-sample loop. ``bend(iteration, sample)`` may return a function
    that replaces the rotation fitted at that iteration (1-based)."""
    n_pairs = len(correspondences)
    src = source.points[correspondences.pairs[:, 0]]
    tgt = target.points[correspondences.pairs[:, 1]]
    rng = np.random.default_rng(seed)
    unit = np.ones(params.sample_size)
    best_count, best_mask, best_residual = 0, None, float("inf")
    needed = params.max_iterations
    iterations = 0
    while iterations < min(params.max_iterations, needed):
        iterations += 1
        pick = rng.choice(n_pairs, size=params.sample_size, replace=False)
        if not _ref_nondegenerate_sample(src[pick]):
            continue
        try:
            model = _ref_weighted_svd(src[pick], tgt[pick], unit)
        except DegenerateGeometryError:
            continue
        bent = bend and bend(iterations, src[pick])
        if bent:
            model = RigidTransform(bent(model.rotation), model.translation)
        residuals = np.linalg.norm(transform_points(src, model) - tgt, axis=1)
        mask = residuals <= params.inlier_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count, best_mask = count, mask
            best_residual = float(np.sqrt(np.mean(residuals[mask] ** 2)))
            p_all_inlier = (count / n_pairs) ** params.sample_size
            if p_all_inlier >= 1.0:
                break
            if p_all_inlier > 0.0:
                bound = np.log1p(-params.confidence) / np.log1p(-p_all_inlier)
                needed = int(min(params.max_iterations, np.ceil(bound)))
    floor = max(params.sample_size + 1, int(np.ceil(params.min_inlier_fraction * n_pairs)))
    if best_mask is None or best_count < floor:
        raise NoConsensusError("no consensus", best_inliers=best_count,
                               best_residual=best_residual, iterations=iterations)
    refit = _ref_weighted_svd(src[best_mask], tgt[best_mask], np.ones(best_count))
    residuals = np.linalg.norm(transform_points(src, refit) - tgt, axis=1)
    return refit, residuals <= params.inlier_threshold, iterations


def _outcome(fn, *args) -> tuple:
    """Everything a run returns or raises, as bytes where it is an array."""
    try:
        transform, mask, iterations = fn(*args)
    except NoConsensusError as exc:
        return ("no consensus", exc.best_inliers, np.float64(exc.best_residual).tobytes(),
                exc.iterations)
    return ("fit", transform.rotation.tobytes(), transform.translation.tobytes(),
            mask.tobytes(), iterations)


def _problem(seed: int, inliers: int, outliers: int, noise: float = 0.005,
             collinear_src: int = 0, collinear_tgt: bool = False):
    """Correspondences under a random rigid motion plus uniform outliers.
    The first ``collinear_src`` inlier sources lie on one line; with
    ``collinear_tgt`` every target does."""
    rng = np.random.default_rng(seed)
    rotation, translation = random_rotation(rng), rng.uniform(-1, 1, size=3)
    src = rng.uniform(-1, 1, size=(inliers + outliers, 3))
    src[:collinear_src] = np.outer(rng.uniform(-1, 1, size=collinear_src), [0.3, -0.5, 0.8])
    tgt = src @ rotation.T + translation + rng.normal(0, noise, size=src.shape)
    tgt[inliers:] = rng.uniform(-1, 1, size=(outliers, 3))
    if collinear_tgt:
        tgt = np.outer(rng.uniform(-1, 1, size=len(tgt)), [1.0, 2.0, -0.5])
    pairs = np.column_stack([np.arange(len(src))] * 2)
    return (PointCloud(src), PointCloud(tgt),
            CorrespondenceSet(pairs, np.ones(len(src)), Stage.COARSE))


def _assert_same(problem, params, seed) -> tuple:
    want = _outcome(_ref_ransac, *problem, params, seed)
    got = _outcome(ransac_transform, *problem, params, seed)
    assert got == want
    return got


@pytest.mark.parametrize("sample_size", [3, 4, 5])
@pytest.mark.parametrize("seed", range(4))
def test_outlier_heavy_pairs_match_per_sample_loop(sample_size, seed):
    problem = _problem(seed, inliers=30, outliers=30)
    params = RansacParams(max_iterations=3000, sample_size=sample_size)
    outcome = _assert_same(problem, params, seed)
    assert outcome[0] == "fit"


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("inliers", [70, 50, 40])
def test_early_exit_mid_block(seed, inliers):
    # The confidence bound ends the run in the first, second or fourth block.
    problem = _problem(seed, inliers=inliers, outliers=100 - inliers)
    outcome = _assert_same(problem, RansacParams(), seed)
    iterations = outcome[-1]
    assert outcome[0] == "fit" and iterations < RansacParams().max_iterations
    assert iterations % _RANSAC_BLOCK != 0


def test_every_pair_an_inlier_stops_at_the_first_fit():
    problem = _problem(3, inliers=20, outliers=0, noise=0.0)
    assert _assert_same(problem, RansacParams(), 3)[-1] == 1


@pytest.mark.parametrize("max_iterations", [1, 31, 33, 50])
@pytest.mark.parametrize("inliers, outliers", [(0, 40), (25, 75)])
def test_iteration_caps(max_iterations, inliers, outliers):
    problem = _problem(max_iterations, inliers=inliers, outliers=outliers)
    params = RansacParams(max_iterations=max_iterations)
    outcome = _assert_same(problem, params, 11)
    if outcome[0] == "no consensus":
        assert outcome[-1] == max_iterations


@pytest.mark.parametrize("sample_size", [3, 4, 5])
def test_collinear_samples_are_skipped_in_draw_order(sample_size):
    # Nearly half the samples drawn from these 60 pairs span only a line.
    problem = _problem(5, inliers=50, outliers=10, collinear_src=48)
    _assert_same(problem, RansacParams(max_iterations=400, sample_size=sample_size), 2)


def test_collinear_targets_fit_nothing():
    problem = _problem(6, inliers=30, outliers=0, collinear_tgt=True)
    outcome = _assert_same(problem, RansacParams(max_iterations=70), 4)
    assert outcome[:2] == ("no consensus", 0) and outcome[-1] == 70


def test_near_collinear_sample_is_skipped_though_its_fit_constrains_a_rotation():
    # The sources span a line to 1e-12 while the targets are placed so that
    # the cross-covariance keeps two comparable singular values.
    src = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 1e-12, 0.0]])
    tgt = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1e-12, 0.0, 0.0]])
    pairs = np.column_stack([np.arange(3)] * 2)
    problem = (PointCloud(src), PointCloud(tgt),
               CorrespondenceSet(pairs, np.ones(3), Stage.COARSE))
    outcome = _assert_same(problem, RansacParams(max_iterations=40, inlier_threshold=10.0), 0)
    assert outcome[:2] == ("no consensus", 0) and outcome[-1] == 40


def _reflect(rotation):
    """Orthonormal, with determinant -1."""
    return rotation @ np.diag([1.0, 1.0, -1.0])


def _stretch(rotation):
    """Not orthonormal."""
    return rotation * (1.0 + 1e-6)


def _bent_fits(monkeypatch, bend, sample_size: int) -> None:
    """Make ``ransac_transform``'s stacked fits apply ``bend`` to the fit of
    each sample, numbered in draw order; the final refit is left alone."""
    fits, drawn = matching._rigid_fits, [0]

    def bent_fits(source, target, weights):
        rotations, translations, fitted = fits(source, target, weights)
        if source.shape[1] == sample_size:
            for i, sample in enumerate(source):
                bent = bend(drawn[0] + i + 1, sample)
                if bent:
                    rotations[i] = bent(rotations[i])
            drawn[0] += len(source)
        return rotations, translations, fitted

    monkeypatch.setattr(matching, "_rigid_fits", bent_fits)


@pytest.mark.parametrize("bends, message", [
    ({40: _reflect}, "determinant"),
    ({40: _stretch, 45: _reflect}, "orthonormal"),
    ({40: _reflect, 45: _stretch}, "determinant"),
    ({3: _stretch, 70: _reflect}, "orthonormal"),
])
def test_improper_fit_raises_at_the_same_iteration(monkeypatch, bends, message):
    """The first improper fit in draw order raises RigidTransform's error, as
    it did when each fitted sample built a RigidTransform; two different
    bends in one block tell which sample raised."""
    problem = _problem(7, inliers=20, outliers=80)
    params = RansacParams(max_iterations=3000)
    assert _outcome(_ref_ransac, *problem, params, 7)[-1] > 100

    def bend(iteration, sample):
        return bends.get(iteration)

    with pytest.raises(ValidationError, match=message) as want:
        _ref_ransac(*problem, params, 7, bend=bend)
    _bent_fits(monkeypatch, bend, params.sample_size)
    with pytest.raises(ValidationError, match=message) as got:
        ransac_transform(*problem, params, 7)
    assert str(got.value) == str(want.value)


def test_improper_fits_after_the_exit_or_of_a_line_never_raise(monkeypatch):
    """Samples drawn into a block after its early exit are never checked,
    and neither are samples that span only a line."""
    problem = _problem(5, inliers=50, outliers=10, collinear_src=48)
    params = RansacParams(max_iterations=400)
    exit_at = _outcome(_ref_ransac, *problem, params, 2)[-1]
    assert exit_at % _RANSAC_BLOCK != 0

    def bend(iteration, sample):
        spread = np.linalg.svd(sample - sample.mean(axis=0), compute_uv=False)
        if iteration > exit_at or not spread[1] > 1e-9 * spread[0]:
            return _reflect

    _bent_fits(monkeypatch, bend, params.sample_size)
    assert _outcome(ransac_transform, *problem, params, 2) \
        == _outcome(_ref_ransac, *problem, params, 2, bend)
