"""The flattened-layout supervision math against the per-anchor reference.

The reference below is the earlier implementation: one Python iteration per
anchor, ``np.linalg.norm`` distances, per-anchor sums and ``np.add.at`` over
every sample row. The flattened path must give the same loss value, sample
sets and label bits bit for bit, and gradients within 1e-12 of the largest
reference entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from hireg import (
    CircleLossParams,
    DescriptorParams,
    Level,
    NegativeMode,
    SampleBatch,
    SamplingRadii,
    SceneSpec,
    build_index,
    build_sample_batch,
    circle_loss,
    compute_descriptors,
    estimate_normals,
    generate_scene,
    matchability_labels,
)
from hireg.cloud import transform_points
from hireg.errors import DegenerateBatchError
from hireg.training import CircleLossResult

_GRAD_RTOL = 1e-12


def _ref_build_sample_batch(source, target, gt, radii, n_anchors, seed):
    aligned = transform_points(source.points, gt)
    index = build_index(target)
    pos_balls = index.radius_batch(aligned, radii.positive)
    eligible = np.flatnonzero([ball.size > 0 for ball in pos_balls])
    rng = np.random.default_rng(seed)
    if eligible.size >= n_anchors:
        anchors = rng.choice(eligible, size=n_anchors, replace=False)
    else:
        anchors = eligible
    anchors = anchors.astype(np.intp)
    all_idx = np.arange(len(target), dtype=np.intp)
    r_l2 = radii.local_negative ** 2
    r_g2 = radii.global_negative ** 2
    local_sets, global_sets = [], []
    for point, inside in zip(aligned[anchors],
                             index.radius_batch(aligned[anchors], radii.global_negative)):
        d2 = np.einsum("ij,ij->i", target.points[inside] - point,
                       target.points[inside] - point)
        local_sets.append(inside[(d2 > r_l2) & (d2 < r_g2)])
        global_sets.append(np.setdiff1d(all_idx, inside, assume_unique=True))
    return SampleBatch(anchors=anchors, positives=tuple(pos_balls[a] for a in anchors),
                       local_negatives=tuple(local_sets), global_negatives=tuple(global_sets),
                       requested=n_anchors, eligible=int(eligible.size))


def _ref_circle_loss(f_src, f_tgt, batch, mode, params):
    negatives = batch.negatives(mode)
    grad_src = np.zeros_like(f_src)
    grad_tgt = np.zeros_like(f_tgt)
    total = 0.0
    used = 0
    skipped = []
    for slot, anchor in enumerate(batch.anchors):
        pos = batch.positives[slot]
        neg = negatives[slot]
        if pos.size == 0 or neg.size == 0:
            skipped.append(int(anchor))
            continue
        a = f_src[anchor]
        diff_p = a - f_tgt[pos]
        diff_n = a - f_tgt[neg]
        d_p = np.linalg.norm(diff_p, axis=1)
        d_n = np.linalg.norm(diff_n, axis=1)
        e_p = np.exp(params.scale * (d_p - params.positive_margin))
        e_n = np.exp(params.scale * (params.negative_margin - d_n))
        sum_p = e_p.sum()
        sum_n = e_n.sum()
        total += np.log1p(sum_p * sum_n)
        used += 1
        denom = 1.0 + sum_p * sum_n
        dl_dp = sum_n * e_p * params.scale / denom
        dl_dn = -sum_p * e_n * params.scale / denom
        u_p = np.where(d_p[:, None] > 0, diff_p / np.maximum(d_p, 1e-300)[:, None], 0.0)
        u_n = np.where(d_n[:, None] > 0, diff_n / np.maximum(d_n, 1e-300)[:, None], 0.0)
        grad_src[anchor] += dl_dp @ u_p + dl_dn @ u_n
        np.add.at(grad_tgt, pos, -dl_dp[:, None] * u_p)
        np.add.at(grad_tgt, neg, -dl_dn[:, None] * u_n)
    if used == 0:
        raise DegenerateBatchError("every anchor was skipped (empty sample sets)")
    return CircleLossResult(loss=float(total / used), grad_source=grad_src / used,
                            grad_target=grad_tgt / used, used_anchors=used,
                            skipped_anchors=tuple(skipped))


def _ref_matchability_labels(f_src, f_tgt, batch, mode):
    negatives = batch.negatives(mode)
    bits = np.zeros(len(batch), dtype=np.int8)
    valid = np.zeros(len(batch), dtype=bool)
    for slot, anchor in enumerate(batch.anchors):
        pos = batch.positives[slot]
        neg = negatives[slot]
        if pos.size == 0 or neg.size == 0:
            continue
        d_pos = np.linalg.norm(f_src[anchor] - f_tgt[pos], axis=1)
        d_neg = np.linalg.norm(f_src[anchor] - f_tgt[neg], axis=1)
        bits[slot] = 1 if d_pos.min() - d_neg.min() < 0 else 0
        valid[slot] = True
    return bits, valid


def _assert_circle_matches(f_src, f_tgt, batch, mode, params):
    got = circle_loss(f_src, f_tgt, batch, mode, params)
    ref = _ref_circle_loss(f_src, f_tgt, batch, mode, params)
    assert got.loss == ref.loss
    assert got.used_anchors == ref.used_anchors
    assert got.skipped_anchors == ref.skipped_anchors
    for grad, ref_grad in ((got.grad_source, ref.grad_source),
                           (got.grad_target, ref.grad_target)):
        assert grad.shape == ref_grad.shape
        assert np.abs(grad - ref_grad).max() <= _GRAD_RTOL * np.abs(ref_grad).max()
    return got


def _assert_labels_match(f_src, f_tgt, batch, mode):
    bits, valid = matchability_labels(f_src, f_tgt, batch, mode)
    ref_bits, ref_valid = _ref_matchability_labels(f_src, f_tgt, batch, mode)
    assert bits.dtype == ref_bits.dtype and valid.dtype == ref_valid.dtype
    assert np.array_equal(bits, ref_bits)
    assert np.array_equal(valid, ref_valid)
    return bits, valid


def _assert_batches_equal(got: SampleBatch, ref: SampleBatch) -> None:
    assert np.array_equal(got.anchors, ref.anchors) and got.anchors.dtype == ref.anchors.dtype
    assert (got.requested, got.eligible) == (ref.requested, ref.eligible)
    for name in ("positives", "local_negatives", "global_negatives"):
        sets, ref_sets = getattr(got, name), getattr(ref, name)
        assert isinstance(sets, tuple) and len(sets) == len(ref_sets), name
        for s, r in zip(sets, ref_sets):
            assert s.dtype == np.intp and np.array_equal(s, r), name


@pytest.fixture(scope="module")
def room():
    """A seeded room-5k pair with both descriptor levels and a 256-anchor batch."""
    scene = generate_scene(SceneSpec(shape="room", n_points=5000, overlap=0.7,
                                     noise_sigma=0.005, seed=23))
    params = DescriptorParams()
    features = {}
    for side, cloud in (("src", scene.source), ("tgt", scene.target)):
        index = build_index(cloud)
        normals = estimate_normals(cloud, params.normal_radius, index=index)
        for level in (Level.LOW, Level.HIGH):
            features[side, level] = compute_descriptors(cloud, level, params, normals,
                                                        index).vectors
    batch = build_sample_batch(scene.source, scene.target, scene.transform,
                               SamplingRadii(), n_anchors=256, seed=41)
    return scene, features, batch


def test_room_sample_batch_matches_reference(room):
    scene, _, batch = room
    ref = _ref_build_sample_batch(scene.source, scene.target, scene.transform,
                                  SamplingRadii(), 256, 41)
    _assert_batches_equal(batch, ref)
    assert sum(n.size for n in batch.global_negatives) > 0
    assert sum(n.size for n in batch.local_negatives) > 0


def test_sample_batch_with_fewer_eligible_than_requested_matches_reference():
    scene = generate_scene(SceneSpec(shape="box", n_points=400, overlap=0.5,
                                     noise_sigma=0.002, seed=3))
    radii = SamplingRadii(positive=0.03, local_negative=0.08, global_negative=0.3)
    args = (scene.source, scene.target, scene.transform, radii, 10_000, 5)
    batch = build_sample_batch(*args)
    assert len(batch) == batch.eligible < 10_000
    _assert_batches_equal(batch, _ref_build_sample_batch(*args))


# The "-constant" in each id names the exponent: the constant scale times
# the margin gap.
@pytest.mark.parametrize("level, mode", [(Level.HIGH, NegativeMode.GLOBAL),
                                         (Level.LOW, NegativeMode.LOCAL)],
                         ids=["high-global-constant", "low-local-constant"])
def test_room_circle_loss_matches_reference(room, level, mode):
    _, features, batch = room
    result = _assert_circle_matches(features["src", level], features["tgt", level], batch,
                                    mode, CircleLossParams())
    assert result.used_anchors > 0


@pytest.mark.parametrize("level, mode", [(Level.HIGH, NegativeMode.GLOBAL),
                                         (Level.LOW, NegativeMode.LOCAL)])
def test_room_per_anchor_losses_match_reference(room, level, mode):
    # A batch's mean absorbs a last-bit change in a few anchors' terms; a
    # one-anchor batch exposes each term and so the order of its sums.
    _, features, batch = room
    f_src, f_tgt = features["src", level], features["tgt", level]
    params = CircleLossParams()
    for slot in range(len(batch)):
        one = SampleBatch(anchors=batch.anchors[[slot]], positives=(batch.positives[slot],),
                          local_negatives=(batch.local_negatives[slot],),
                          global_negatives=(batch.global_negatives[slot],),
                          requested=1, eligible=1)
        assert circle_loss(f_src, f_tgt, one, mode, params).loss == \
            _ref_circle_loss(f_src, f_tgt, one, mode, params).loss, slot


# The "-min" in each id names the positive reduction: the closest positive.
@pytest.mark.parametrize("level, mode", [(Level.HIGH, NegativeMode.GLOBAL),
                                         (Level.LOW, NegativeMode.LOCAL)],
                         ids=["high-global-min", "low-local-min"])
def test_room_matchability_labels_match_reference(room, level, mode):
    _, features, batch = room
    bits, valid = _assert_labels_match(features["src", level], features["tgt", level],
                                       batch, mode)
    assert valid.any() and 0 < bits[valid].sum() < valid.sum()


def _ids(*values):
    return np.array(values, dtype=np.intp)


@pytest.fixture
def crafted():
    """Repeated targets and anchors, empty sets and a zero distance in one batch."""
    rng = np.random.default_rng(77)
    f_src = rng.normal(size=(6, 5))
    f_tgt = rng.normal(size=(12, 5))
    f_src[2] = f_tgt[4]  # anchor 2 coincides with its positive 4: d == 0
    batch = SampleBatch(
        anchors=_ids(0, 2, 3, 0, 5, 1),  # anchor 0 appears twice
        positives=(_ids(1, 1, 2), _ids(4, 5), _ids(), _ids(7), _ids(8), _ids(9, 10)),
        local_negatives=(_ids(3, 3), _ids(6), _ids(6), _ids(), _ids(9, 0), _ids(11)),
        global_negatives=(_ids(5, 6, 11, 11), _ids(0, 1), _ids(2), _ids(3), _ids(),
                          _ids(4, 4, 4)),
        requested=6, eligible=6)
    return f_src, f_tgt, batch


@pytest.mark.parametrize("mode", [NegativeMode.GLOBAL, NegativeMode.LOCAL],
                         ids=["global-constant", "local-constant"])
def test_crafted_batch_circle_loss_matches_reference(crafted, mode):
    f_src, f_tgt, batch = crafted
    result = _assert_circle_matches(f_src, f_tgt, batch, mode, CircleLossParams())
    # slot 2 has no positives; slot 3 no local and slot 4 no global negatives
    skipped = (3, 0) if mode == NegativeMode.LOCAL else (3, 5)
    assert result.skipped_anchors == skipped
    assert result.used_anchors == 4
    assert np.isfinite(result.grad_source).all() and np.isfinite(result.grad_target).all()


@pytest.mark.parametrize("mode", [NegativeMode.GLOBAL, NegativeMode.LOCAL],
                         ids=["global-min", "local-min"])
def test_crafted_batch_labels_match_reference(crafted, mode):
    f_src, f_tgt, batch = crafted
    bits, valid = _assert_labels_match(f_src, f_tgt, batch, mode)
    expected_valid = [True, True, False, mode == NegativeMode.GLOBAL,
                      mode == NegativeMode.LOCAL, True]
    assert valid.tolist() == expected_valid
    assert bits[2] == 0 and not bits[~valid].any()
    assert bits[1] == 1  # its positive sits at distance 0


def test_all_skipped_batch_raises_like_reference(crafted):
    f_src, f_tgt, batch = crafted
    only_skipped = SampleBatch(anchors=batch.anchors[[2]], positives=(_ids(),),
                               local_negatives=(_ids(6),), global_negatives=(_ids(2),),
                               requested=1, eligible=1)
    params = CircleLossParams()
    for fn in (circle_loss, _ref_circle_loss):
        with pytest.raises(DegenerateBatchError):
            fn(f_src, f_tgt, only_skipped, NegativeMode.GLOBAL, params)
