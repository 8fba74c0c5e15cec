"""Supervision math: sampling geometry, losses, labels, rankings, gradients.

Loss values are cross-checked against plain-python scalar loops (the
contrastive loss against ``hireg.cli._scalar_circle_loss``, which ``hireg
losscheck`` runs) and gradients against central finite differences; no
oracle shares code with the implementation.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from hireg import (
    CircleLossParams,
    DegenerateBatchError,
    DescriptorSet,
    Level,
    NegativeMode,
    NoCorrespondenceError,
    PointCloud,
    RigidTransform,
    SampleBatch,
    SamplingRadii,
    TargetScores,
    ValidationError,
    build_sample_batch,
    circle_loss,
    keypoint_rankings,
    matchability_labels,
    overlap_labels,
    overlap_loss,
    rating_loss,
    total_loss,
)
from hireg import training
from hireg.cli import _scalar_circle_loss
from hireg.training import CircleLossResult

from conftest import random_transform, unit_rows
from test_training_equivalence import _assert_circle_matches, _assert_labels_match


def make_batch(rng, n_anchor=8, n_target=40, n_pos=4, n_local=5, n_global=6):
    positives, local_neg, global_neg = [], [], []
    for _ in range(n_anchor):
        chosen = rng.choice(n_target, size=n_pos + n_local + n_global, replace=False)
        positives.append(chosen[:n_pos])
        local_neg.append(chosen[n_pos:n_pos + n_local])
        global_neg.append(chosen[n_pos + n_local:])
    return SampleBatch(
        anchors=np.arange(n_anchor, dtype=np.intp),
        positives=tuple(positives),
        local_negatives=tuple(local_neg),
        global_negatives=tuple(global_neg),
        requested=n_anchor,
        eligible=n_anchor,
    )


def count_distance_passes(monkeypatch, *layouts) -> list[int]:
    """A one-item counter of the ``distances`` calls of the given layouts."""
    count = [0]

    def counting(distances):
        def counted(rows, f_anchor, f_tgt):
            count[0] += 1
            return distances(rows, f_anchor, f_tgt)
        return counted

    for layout in layouts:
        monkeypatch.setattr(layout, "distances", counting(layout.distances))
    return count


class TestSamplingRadii:
    def test_ordering_enforced(self):
        with pytest.raises(ValidationError):
            SamplingRadii(positive=0.06, local_negative=0.05, global_negative=0.1)
        with pytest.raises(ValidationError):
            SamplingRadii(positive=0.01, local_negative=0.2, global_negative=0.1)

    def test_infinite_global_negative_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            SamplingRadii(global_negative=np.inf)


class TestBuildSampleBatch:
    def test_identity_pair_self_positive(self, rng):
        points = rng.uniform(0, 1, size=(60, 3))
        cloud = PointCloud(points)
        radii = SamplingRadii()
        batch = build_sample_batch(cloud, cloud, RigidTransform.identity(), radii,
                                   n_anchors=20, seed=4)
        for slot, anchor in enumerate(batch.anchors):
            assert anchor in batch.positives[slot]

    def test_single_coincident_point_is_only_anchor(self):
        source = PointCloud(np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]]))
        target = PointCloud(np.array([[0.0, 0.0, 0.0], [-10.0, 0.0, 0.0]]))
        batch = build_sample_batch(source, target, RigidTransform.identity(),
                                   SamplingRadii(), n_anchors=5, seed=0)
        assert batch.anchors.tolist() == [0]
        assert batch.eligible == 1

    def test_zero_overlap_raises(self):
        source = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        target = PointCloud(np.array([[5.0, 5.0, 5.0]]))
        with pytest.raises(NoCorrespondenceError):
            build_sample_batch(source, target, RigidTransform.identity(),
                               SamplingRadii(), n_anchors=1, seed=0)

    def test_sets_match_linear_scan(self, rng):
        # Build a genuinely overlapping pair: the target is a transformed
        # copy of most of the source, jittered, plus unrelated far points.
        source = PointCloud(rng.uniform(0, 0.5, size=(80, 3)))
        gt = random_transform(rng, translation_scale=0.1)
        copied = source.points[:60] @ gt.rotation.T + gt.translation
        copied = copied + rng.normal(0, 0.01, size=copied.shape)
        extra = rng.uniform(2.0, 3.0, size=(30, 3))
        target = PointCloud(np.vstack([copied, extra]))
        radii = SamplingRadii(positive=0.05, local_negative=0.08, global_negative=0.15)
        batch = build_sample_batch(source, target, gt, radii, n_anchors=12, seed=9)
        aligned = source.points @ gt.rotation.T + gt.translation
        for slot, anchor in enumerate(batch.anchors):
            pos, loc, glob = set(), set(), set()
            for j in range(len(target)):
                d = math.dist(aligned[anchor], target.points[j])
                if d <= radii.positive:
                    pos.add(j)
                if radii.local_negative < d < radii.global_negative:
                    loc.add(j)
                if d > radii.global_negative:
                    glob.add(j)
            assert set(batch.positives[slot].tolist()) == pos
            assert set(batch.local_negatives[slot].tolist()) == loc
            assert set(batch.global_negatives[slot].tolist()) == glob

    def test_sets_disjoint_per_anchor(self, rng):
        source = PointCloud(rng.uniform(0, 0.4, size=(60, 3)))
        batch = build_sample_batch(source, source, RigidTransform.identity(),
                                   SamplingRadii(), n_anchors=15, seed=2)
        for slot in range(len(batch)):
            pos = set(batch.positives[slot].tolist())
            loc = set(batch.local_negatives[slot].tolist())
            glob = set(batch.global_negatives[slot].tolist())
            assert not (pos & loc) and not (pos & glob) and not (loc & glob)

    def test_deterministic_given_seed(self, rng):
        source = PointCloud(rng.uniform(0, 1, size=(50, 3)))
        a = build_sample_batch(source, source, RigidTransform.identity(),
                               SamplingRadii(), n_anchors=10, seed=7)
        b = build_sample_batch(source, source, RigidTransform.identity(),
                               SamplingRadii(), n_anchors=10, seed=7)
        assert a.anchors.tolist() == b.anchors.tolist()


class TestCircleLoss:
    def _one_anchor_batch(self):
        return SampleBatch(
            anchors=np.array([0], dtype=np.intp),
            positives=(np.array([0], dtype=np.intp),),
            local_negatives=(np.array([1], dtype=np.intp),),
            global_negatives=(np.array([1], dtype=np.intp),),
            requested=1,
            eligible=1,
        )

    def test_margin_saturation_gives_log2(self):
        # 1-D features: positive exactly at the positive margin, negative
        # exactly at the negative margin; both exponents are beta * 0.
        params = CircleLossParams()
        f_src = np.array([[0.0]])
        f_tgt = np.array([[params.positive_margin], [params.negative_margin]])
        result = circle_loss(f_src, f_tgt, self._one_anchor_batch(),
                             NegativeMode.GLOBAL, params)
        assert result.loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfectly_separated_limit(self):
        f_src = np.array([[0.0]])
        f_tgt = np.array([[0.0], [2.2]])
        result = circle_loss(f_src, f_tgt, self._one_anchor_batch(),
                             NegativeMode.GLOBAL, CircleLossParams())
        assert result.loss < 1e-3

    # "-constant" in each id names the exponent: the constant scale times
    # the margin gap.
    @pytest.mark.parametrize("mode", [NegativeMode.GLOBAL, NegativeMode.LOCAL],
                             ids=["global-constant", "local-constant"])
    def test_matches_scalar_loop(self, rng, mode):
        params = CircleLossParams()
        for _ in range(10):
            batch = make_batch(rng)
            f_src = unit_rows(rng, 8, 4)
            f_tgt = unit_rows(rng, 40, 4)
            result = circle_loss(f_src, f_tgt, batch, mode, params)
            expected = _scalar_circle_loss(f_src, f_tgt, batch, mode, params)
            assert result.loss == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("mode", [NegativeMode.GLOBAL, NegativeMode.LOCAL],
                             ids=["global-constant", "local-constant"])
    def test_gradient_matches_finite_differences(self, rng, mode):
        params = CircleLossParams()
        batch = make_batch(rng)
        f_src = unit_rows(rng, 8, 4)
        f_tgt = unit_rows(rng, 40, 4)
        result = circle_loss(f_src, f_tgt, batch, mode, params)
        h = 1e-5

        def check(array, grad, which):
            for _ in range(20):
                i = int(rng.integers(array.shape[0]))
                j = int(rng.integers(array.shape[1]))
                bumped = array.copy()
                bumped[i, j] += h
                up = circle_loss(bumped if which == "src" else f_src,
                                 bumped if which == "tgt" else f_tgt,
                                 batch, mode, params).loss
                bumped[i, j] -= 2 * h
                down = circle_loss(bumped if which == "src" else f_src,
                                   bumped if which == "tgt" else f_tgt,
                                   batch, mode, params).loss
                fd = (up - down) / (2 * h)
                # denominator floored at the meaningful-gradient scale; the
                # relative error of a numerically zero gradient is undefined
                assert abs(grad[i, j] - fd) / max(abs(fd), abs(grad[i, j]), 1e-6) < 1e-4

        check(f_src, result.grad_source, "src")
        check(f_tgt, result.grad_target, "tgt")

    def test_positive_distance_monotonicity(self, rng):
        # Pushing one positive farther never decreases the loss; pushing one
        # negative farther never increases it.
        params = CircleLossParams()
        batch = make_batch(rng, n_anchor=3)
        f_src = unit_rows(rng, 3, 4)
        f_tgt = unit_rows(rng, 40, 4)
        base = circle_loss(f_src, f_tgt, batch, NegativeMode.GLOBAL, params).loss
        anchor = f_src[batch.anchors[0]]
        pos_idx = batch.positives[0][0]
        moved = f_tgt.copy()
        direction = moved[pos_idx] - anchor
        moved[pos_idx] = anchor + direction * 1.5
        assert circle_loss(f_src, moved, batch, NegativeMode.GLOBAL, params).loss >= base

        neg_idx = batch.global_negatives[0][0]
        moved = f_tgt.copy()
        direction = moved[neg_idx] - anchor
        moved[neg_idx] = anchor + direction * 1.5
        assert circle_loss(f_src, moved, batch, NegativeMode.GLOBAL, params).loss <= base

    def test_skipped_anchors_reported(self):
        batch = SampleBatch(
            anchors=np.array([0, 1], dtype=np.intp),
            positives=(np.array([0], dtype=np.intp), np.array([], dtype=np.intp)),
            local_negatives=(np.array([1], dtype=np.intp), np.array([1], dtype=np.intp)),
            global_negatives=(np.array([1], dtype=np.intp), np.array([1], dtype=np.intp)),
            requested=2,
            eligible=2,
        )
        f_src = np.array([[0.0], [0.5]])
        f_tgt = np.array([[0.1], [1.0]])
        result = circle_loss(f_src, f_tgt, batch, NegativeMode.GLOBAL, CircleLossParams())
        assert result.used_anchors == 1
        assert result.skipped_anchors == (1,)

    def test_all_skipped_raises(self):
        batch = SampleBatch(
            anchors=np.array([0], dtype=np.intp),
            positives=(np.array([], dtype=np.intp),),
            local_negatives=(np.array([0], dtype=np.intp),),
            global_negatives=(np.array([0], dtype=np.intp),),
            requested=1,
            eligible=1,
        )
        with pytest.raises(DegenerateBatchError):
            circle_loss(np.zeros((1, 2)), np.zeros((1, 2)), batch,
                        NegativeMode.GLOBAL, CircleLossParams())


class TestAnchorBounds:
    """A batch anchor outside the source features' rows is rejected where
    the features are read, as a negative one once read a row from the end."""

    @staticmethod
    def _case(rng, anchor):
        batch = make_batch(rng)
        anchors = batch.anchors.copy()
        anchors[3] = anchor
        return unit_rows(rng, 8, 4), unit_rows(rng, 40, 4), replace(batch, anchors=anchors)

    @pytest.mark.parametrize("anchor", [-1, 8])
    def test_circle_loss(self, rng, anchor):
        f_src, f_tgt, batch = self._case(rng, anchor)
        for mode in NegativeMode:
            with pytest.raises(ValidationError, match=r"anchors must lie in \[0, 8\)"):
                circle_loss(f_src, f_tgt, batch, mode, CircleLossParams())

    @pytest.mark.parametrize("anchor", [-1, 8])
    def test_matchability_labels(self, rng, anchor):
        f_src, f_tgt, batch = self._case(rng, anchor)
        for mode in NegativeMode:
            with pytest.raises(ValidationError, match=r"anchors must lie in \[0, 8\)"):
                matchability_labels(f_src, f_tgt, batch, mode)


class TestIntegerIndices:
    """Non-integer anchors and sample indices are rejected where the
    features are read, not truncated: a set ``[1.5]`` once acted as ``[1]``
    and an anchor ``0.9`` raised a bare ``IndexError``."""

    @staticmethod
    def _float_set(rng, mode, sets):
        batch = make_batch(rng)
        field = {"positives": "positives",
                 "negatives": f"{NegativeMode(mode).value}_negatives"}[sets]
        changed = list(getattr(batch, field))
        changed[3] = np.array([1.5])
        batch = replace(batch, **{field: tuple(changed)})
        return unit_rows(rng, 8, 4), unit_rows(rng, 40, 4), batch

    @staticmethod
    def _float_anchor(rng):
        batch = make_batch(rng)
        anchors = batch.anchors.astype(np.float64)
        anchors[3] = 0.9
        return unit_rows(rng, 8, 4), unit_rows(rng, 40, 4), replace(batch, anchors=anchors)

    @pytest.mark.parametrize("sets", ["positives", "negatives"])
    def test_circle_loss_non_integer_samples(self, rng, sets):
        for mode in NegativeMode:
            f_src, f_tgt, batch = self._float_set(rng, mode, sets)
            with pytest.raises(ValidationError, match="sample indices must be integers"):
                circle_loss(f_src, f_tgt, batch, mode, CircleLossParams())

    @pytest.mark.parametrize("sets", ["positives", "negatives"])
    def test_matchability_labels_non_integer_samples(self, rng, sets):
        for mode in NegativeMode:
            f_src, f_tgt, batch = self._float_set(rng, mode, sets)
            with pytest.raises(ValidationError, match="sample indices must be integers"):
                matchability_labels(f_src, f_tgt, batch, mode)

    def test_circle_loss_float_anchor(self, rng):
        f_src, f_tgt, batch = self._float_anchor(rng)
        for mode in NegativeMode:
            with pytest.raises(ValidationError, match="anchors must be integers"):
                circle_loss(f_src, f_tgt, batch, mode, CircleLossParams())

    def test_matchability_labels_float_anchor(self, rng):
        f_src, f_tgt, batch = self._float_anchor(rng)
        for mode in NegativeMode:
            with pytest.raises(ValidationError, match="anchors must be integers"):
                matchability_labels(f_src, f_tgt, batch, mode)


class TestMatchability:
    def test_identical_positive_gives_one(self):
        batch = SampleBatch(
            anchors=np.array([0], dtype=np.intp),
            positives=(np.array([0], dtype=np.intp),),
            local_negatives=(np.array([1], dtype=np.intp),),
            global_negatives=(np.array([1], dtype=np.intp),),
            requested=1, eligible=1,
        )
        f_src = np.array([[1.0, 0.0]])
        f_tgt = np.array([[1.0, 0.0], [0.0, 1.0]])
        bits, valid = matchability_labels(f_src, f_tgt, batch, NegativeMode.GLOBAL)
        assert bits.tolist() == [1] and valid.tolist() == [True]

    def test_closer_negative_gives_zero(self):
        batch = SampleBatch(
            anchors=np.array([0], dtype=np.intp),
            positives=(np.array([0], dtype=np.intp),),
            local_negatives=(np.array([1], dtype=np.intp),),
            global_negatives=(np.array([1], dtype=np.intp),),
            requested=1, eligible=1,
        )
        f_src = np.array([[1.0, 0.0]])
        f_tgt = np.array([[0.0, 1.0], [1.0, 0.0]])  # negative identical, positive far
        bits, valid = matchability_labels(f_src, f_tgt, batch, NegativeMode.GLOBAL)
        assert bits.tolist() == [0]

    def test_tie_labels_zero(self):
        # equal positive and negative distances: strict inequality fails
        batch = SampleBatch(
            anchors=np.array([0], dtype=np.intp),
            positives=(np.array([0], dtype=np.intp),),
            local_negatives=(np.array([1], dtype=np.intp),),
            global_negatives=(np.array([1], dtype=np.intp),),
            requested=1, eligible=1,
        )
        f_src = np.array([[0.0]])
        f_tgt = np.array([[0.5], [-0.5]])
        bits, _ = matchability_labels(f_src, f_tgt, batch, NegativeMode.GLOBAL)
        assert bits.tolist() == [0]

    def test_matches_exhaustive_oracle(self, rng):
        batch = make_batch(rng)
        f_src = unit_rows(rng, 8, 5)
        f_tgt = unit_rows(rng, 40, 5)
        for mode in (NegativeMode.GLOBAL, NegativeMode.LOCAL):
            bits, valid = matchability_labels(f_src, f_tgt, batch, mode)
            negatives = batch.global_negatives if mode == NegativeMode.GLOBAL \
                else batch.local_negatives
            for slot in range(len(batch)):
                d_pos = min(math.dist(f_src[batch.anchors[slot]], f_tgt[j])
                            for j in batch.positives[slot])
                d_neg = min(math.dist(f_src[batch.anchors[slot]], f_tgt[k])
                            for k in negatives[slot])
                assert valid[slot]
                assert bits[slot] == (1 if d_pos - d_neg < 0 else 0)

    def test_empty_set_flagged_invalid(self):
        batch = SampleBatch(
            anchors=np.array([0], dtype=np.intp),
            positives=(np.array([0], dtype=np.intp),),
            local_negatives=(np.array([], dtype=np.intp),),
            global_negatives=(np.array([0], dtype=np.intp),),
            requested=1, eligible=1,
        )
        _, valid = matchability_labels(np.zeros((1, 2)), np.ones((1, 2)),
                                       batch, NegativeMode.LOCAL)
        assert valid.tolist() == [False]

    def test_feature_dimension_mismatch_rejected(self, rng):
        batch = make_batch(rng, n_anchor=2)
        with pytest.raises(ValidationError):
            matchability_labels(unit_rows(rng, 2, 5), unit_rows(rng, 40, 4), batch,
                                NegativeMode.GLOBAL)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_features_rejected(self, rng, value):
        batch = make_batch(rng, n_anchor=2)
        f_src, f_tgt = unit_rows(rng, 2, 5), unit_rows(rng, 40, 5)
        f_tgt[batch.positives[0][0], 1] = value
        for loss in (lambda: matchability_labels(f_src, f_tgt, batch, NegativeMode.GLOBAL),
                     lambda: circle_loss(f_src, f_tgt, batch, NegativeMode.GLOBAL,
                                         CircleLossParams())):
            with pytest.raises(ValidationError, match="NaN or Inf"):
                loss()

    def test_empty_batch_gives_empty_arrays(self):
        empty = np.array([], dtype=np.intp)
        batch = SampleBatch(anchors=empty, positives=(), local_negatives=(),
                            global_negatives=(), requested=1, eligible=0)
        bits, valid = matchability_labels(np.zeros((3, 2)), np.ones((4, 2)), batch,
                                          NegativeMode.GLOBAL)
        assert bits.dtype == np.int8 and bits.shape == (0,)
        assert valid.dtype == bool and valid.shape == (0,)

    @pytest.mark.parametrize("bad_index", [40, -1])
    def test_out_of_range_sample_index_rejected(self, rng, bad_index):
        batch = make_batch(rng, n_anchor=2)
        batch = SampleBatch(anchors=batch.anchors, positives=batch.positives,
                            local_negatives=batch.local_negatives,
                            global_negatives=(batch.global_negatives[0],
                                              np.array([bad_index], dtype=np.intp)),
                            requested=2, eligible=2)
        f_src, f_tgt = unit_rows(rng, 2, 4), unit_rows(rng, 40, 4)
        with pytest.raises(ValidationError):
            matchability_labels(f_src, f_tgt, batch, NegativeMode.GLOBAL)
        with pytest.raises(ValidationError):
            circle_loss(f_src, f_tgt, batch, NegativeMode.GLOBAL, CircleLossParams())


class TestDistanceMemo:
    """A batch keeps the checked layouts and row distances of each (source
    DescriptorSet, target DescriptorSet, mode); outputs never differ from a
    batch without them."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Counts distance passes, one per sample set, flat rows or a tile."""
        return count_distance_passes(monkeypatch, training._FlatSets, training._TileSets)

    @staticmethod
    def _sets(rng, dim=6):
        return (DescriptorSet(Level.HIGH, unit_rows(rng, 8, dim)),
                DescriptorSet(Level.HIGH, unit_rows(rng, 40, dim)))

    @staticmethod
    def _assert_same(got, expected):
        if isinstance(got, CircleLossResult):
            assert got.loss == expected.loss
            assert got.used_anchors == expected.used_anchors
            assert got.skipped_anchors == expected.skipped_anchors
            got = (got.grad_source, got.grad_target)
            expected = (expected.grad_source, expected.grad_target)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("labels_first", [False, True], ids=["loss-first", "labels-first"])
    @pytest.mark.parametrize("mode", [NegativeMode.GLOBAL, NegativeMode.LOCAL])
    def test_hit_equals_fresh_batch(self, rng, passes, labels_first, mode):
        src, tgt = self._sets(rng)
        batch = make_batch(rng)
        params = CircleLossParams()
        calls = [lambda b: circle_loss(src, tgt, b, mode, params),
                 lambda b: matchability_labels(src, tgt, b, mode)]
        if labels_first:
            calls.reverse()
        fresh = [call(replace(batch)) for call in calls]
        passes[0] = 0
        memoised = [call(batch) for call in calls]
        assert passes[0] == 2  # one pass over positives and one over negatives
        assert list(batch._distances) == [(id(src), id(tgt), mode)]
        for got, expected in zip(memoised, fresh):
            self._assert_same(got, expected)

    @pytest.mark.parametrize("mode", [NegativeMode.GLOBAL, NegativeMode.LOCAL])
    def test_hit_skips_the_layout_check(self, rng, monkeypatch, mode):
        src, tgt = self._sets(rng)
        batch = make_batch(rng)
        first = circle_loss(src, tgt, batch, mode, CircleLossParams())

        def unexpected(cls, sets, n_targets):
            raise AssertionError(f"{cls.__name__}.of called on a memo hit")

        for layout in (training._FlatSets, training._TileSets):
            monkeypatch.setattr(layout, "of", classmethod(unexpected))
        self._assert_same(circle_loss(src, tgt, batch, mode, CircleLossParams()), first)
        matchability_labels(src, tgt, batch, mode)

    def test_raw_arrays_are_not_memoised(self, rng):
        f_src, f_tgt = (s.vectors.copy() for s in self._sets(rng))
        batch = make_batch(rng)
        params = CircleLossParams()
        before = circle_loss(f_src, f_tgt, batch, NegativeMode.GLOBAL, params)
        assert not batch._distances
        f_tgt[batch.positives[0][0]] *= -1.0  # in place, as a caller may
        after = circle_loss(f_src, f_tgt, batch, NegativeMode.GLOBAL, params)
        assert after.loss != before.loss
        self._assert_same(after, circle_loss(f_src, f_tgt, replace(batch),
                                             NegativeMode.GLOBAL, params))

    def test_equal_but_distinct_set_misses(self, rng, passes):
        src, tgt = self._sets(rng)
        twin = DescriptorSet(tgt.level, tgt.vectors)
        batch = make_batch(rng)
        first = matchability_labels(src, tgt, batch, NegativeMode.GLOBAL)
        passes[0] = 0
        second = matchability_labels(src, twin, batch, NegativeMode.GLOBAL)
        assert passes[0] == 2
        assert len(batch._distances) == 2
        self._assert_same(second, first)


class TestGlobalTile:
    """Global negatives run on a dense (anchor, target) tile. Against the
    per-anchor reference, losses and label bits keep every bit and gradients
    agree to 1e-12, whatever the order and multiplicity of the indices."""

    @pytest.fixture
    def tile_passes(self, monkeypatch):
        return count_distance_passes(monkeypatch, training._TileSets)

    @staticmethod
    def _crafted():
        """Unsorted and repeated global indices, an empty global set, and a
        zero distance both inside and outside a global set."""
        rng = np.random.default_rng(5)
        f_src = unit_rows(rng, 5, 6)
        f_tgt = unit_rows(rng, 30, 6)
        f_tgt[[7, 21]] = f_src[3]  # anchor 3 sits on targets 7 and 21
        ids = lambda *v: np.array(v, dtype=np.intp)  # noqa: E731
        batch = SampleBatch(
            anchors=ids(0, 1, 2, 3, 0),
            positives=(ids(1), ids(2, 4), ids(5), ids(6, 8), ids(9)),
            local_negatives=(ids(10),) * 5,
            global_negatives=(ids(29, 3, 17, 0, 11, 12, 13, 2, 25, 26, 14), ids(),
                              ids(4, 4, 19, 4, 28, 19, 0, 1, 2, 27),
                              ids(21, 22, 23, 24, 0, 20, 1, 15), ids(3, 3)),
            requested=5, eligible=5)
        return f_src, f_tgt, batch

    @pytest.mark.parametrize("params", [CircleLossParams()], ids=["constant"])
    def test_crafted_batch_matches_reference(self, tile_passes, params):
        f_src, f_tgt, batch = self._crafted()
        result = _assert_circle_matches(f_src, f_tgt, batch, NegativeMode.GLOBAL, params)
        assert tile_passes[0] == 1
        assert result.skipped_anchors == (1,) and result.used_anchors == 4
        assert np.isfinite(result.grad_source).all() and np.isfinite(result.grad_target).all()
        bits, valid = _assert_labels_match(f_src, f_tgt, batch, NegativeMode.GLOBAL)
        assert valid.tolist() == [True, False, True, True, True]
        assert bits[3] == 0  # its closest global negative is at distance 0

    @pytest.mark.parametrize("params", [CircleLossParams()], ids=["constant"])
    def test_random_unsorted_repeated_sets_match_reference(self, rng, params):
        for _ in range(5):
            batch = make_batch(rng, n_anchor=6)
            # 20-39 draws with replacement from 40 targets, in drawn order
            batch = replace(batch, global_negatives=tuple(
                rng.integers(0, 40, size=rng.integers(20, 40)) for _ in range(6)))
            f_src, f_tgt = unit_rows(rng, 6, 5), unit_rows(rng, 40, 5)
            _assert_circle_matches(f_src, f_tgt, batch, NegativeMode.GLOBAL, params)
            _assert_labels_match(f_src, f_tgt, batch, NegativeMode.GLOBAL)


class TestKeypointRankings:
    def test_truth_table_exhaustive(self):
        # (high, low) -> (high rank, low rank) over all four combinations
        expected = {(0, 0): (0, 0), (0, 1): (1, 2), (1, 0): (2, 1), (1, 1): (3, 3)}
        for (mh, ml), (rh, rl) in expected.items():
            high, low = keypoint_rankings([mh], [ml])
            assert (high[0], low[0]) == (rh, rl)

    def test_rank_agreement_and_swap(self, rng):
        high_bits = rng.integers(0, 2, size=64)
        low_bits = rng.integers(0, 2, size=64)
        high, low = keypoint_rankings(high_bits, low_bits)
        both = (high_bits == 1) & (low_bits == 1)
        neither = (high_bits == 0) & (low_bits == 0)
        assert np.all(high[both] == 3) and np.all(low[both] == 3)
        assert np.all(high[neither] == 0) and np.all(low[neither] == 0)
        mixed = ~both & ~neither
        assert np.all(high[mixed] + low[mixed] == 3)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            keypoint_rankings([1, 0], [1])

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            keypoint_rankings([2], [0])


class TestRatingLoss:
    def test_exact_targets_zero_loss(self):
        targets = TargetScores()
        ranks = np.array([3, 2, 1, 0])
        scores = targets.as_array()[ranks]
        loss, grad = rating_loss(scores, ranks, targets)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_single_sample_paper_targets(self):
        # score 0 against rank-3 target 1.0: loss (0-1)^2 = 1, grad 2(0-1) = -2
        loss, grad = rating_loss([0.0], [3], TargetScores())
        assert loss == pytest.approx(1.0, abs=1e-15)
        assert grad[0] == pytest.approx(-2.0, abs=1e-15)

    def test_matches_scalar_loop_and_fd(self, rng):
        targets = TargetScores()
        scores = rng.uniform(0, 1, size=64)
        ranks = rng.integers(0, 4, size=64)
        loss, grad = rating_loss(scores, ranks, targets)
        table = [targets.rank0, targets.rank1, targets.rank2, targets.rank3]
        expected = sum((float(scores[i]) - table[ranks[i]]) ** 2 for i in range(64)) / 64
        assert loss == pytest.approx(expected, rel=1e-12)
        h = 1e-6
        for i in rng.integers(0, 64, size=10):
            bumped = scores.copy()
            bumped[i] += h
            up, _ = rating_loss(bumped, ranks, targets)
            bumped[i] -= 2 * h
            down, _ = rating_loss(bumped, ranks, targets)
            fd = (up - down) / (2 * h)
            assert abs(grad[i] - fd) / max(abs(fd), 1e-9) < 1e-6

    def test_target_ordering_enforced(self):
        with pytest.raises(ValidationError):
            TargetScores(rank3=0.5, rank2=0.75, rank1=0.25, rank0=0.0)


class TestOverlapLabels:
    def test_identical_clouds_all_ones(self, rng):
        cloud = PointCloud(rng.uniform(0, 1, size=(30, 3)))
        src_bits, tgt_bits = overlap_labels(cloud, cloud, RigidTransform.identity(), 0.05)
        assert src_bits.tolist() == [1] * 30
        assert tgt_bits.tolist() == [1] * 30

    def test_disjoint_clouds_all_zeros(self):
        a = PointCloud(np.zeros((3, 3)))
        b = PointCloud(np.full((4, 3), 9.0))
        src_bits, tgt_bits = overlap_labels(a, b, RigidTransform.identity(), 0.1)
        assert src_bits.tolist() == [0, 0, 0]
        assert tgt_bits.tolist() == [0, 0, 0, 0]

    def test_half_overlap_matches_brute_force(self, rng):
        grid = np.array([[x * 0.05, y * 0.05, 0.0] for x in range(10) for y in range(10)])
        shifted = grid + [0.25, 0.0, 0.0]
        a, b = PointCloud(grid), PointCloud(shifted)
        radius = 0.03
        src_bits, tgt_bits = overlap_labels(a, b, RigidTransform.identity(), radius)
        for i in range(len(grid)):
            expected = any(math.dist(grid[i], q) <= radius for q in shifted)
            assert src_bits[i] == int(expected)
        for j in range(len(shifted)):
            expected = any(math.dist(p, shifted[j]) <= radius for p in grid)
            assert tgt_bits[j] == int(expected)


class TestOverlapLoss:
    def test_perfect_predictions_near_zero(self):
        labels = np.array([0, 1, 1, 0])
        loss, _ = overlap_loss(labels.astype(float), labels)
        assert loss < 1e-5

    def test_uniform_half_gives_ln2(self):
        loss, _ = overlap_loss(np.full(8, 0.5), np.array([0, 1] * 4))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gradient_matches_fd(self, rng):
        pred = rng.uniform(0.05, 0.95, size=32)
        labels = rng.integers(0, 2, size=32)
        _, grad = overlap_loss(pred, labels)
        h = 1e-6
        for i in rng.integers(0, 32, size=10):
            bumped = pred.copy()
            bumped[i] += h
            up, _ = overlap_loss(bumped, labels)
            bumped[i] -= 2 * h
            down, _ = overlap_loss(bumped, labels)
            fd = (up - down) / (2 * h)
            assert abs(grad[i] - fd) / max(abs(fd), 1e-9) < 1e-4

    def test_rejects_bad_labels(self):
        with pytest.raises(ValidationError):
            overlap_loss([0.5], [2])


class TestTotalLoss:
    def test_zeros(self):
        assert total_loss(0, 0, 0, 0, 0) == 0.0

    def test_simple_sum(self):
        assert total_loss(1, 2, 3, 4, 5) == 15.0

    def test_random_matches_direct_sum(self, rng):
        parts = rng.uniform(0, 3, size=5)
        assert total_loss(*parts) == pytest.approx(float(parts.sum()), rel=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            total_loss(1, 2, np.inf, 4, 5)
        with pytest.raises(ValidationError):
            total_loss(1, -2, 3, 4, 5)
