"""Supervision mathematics for the dual-level descriptors and detectors.

Covers sample-batch construction from ground-truth alignment, the contrastive
descriptor losses with global/local negative selection, binary matchability
labels, the 4-level dual keypoint rankings, rating regression losses, overlap
labels/loss, and the total objective. Every differentiable loss returns its
analytic gradient; gradients are the testable contract here, no optimizer is
involved.

The losses and labels run on two layouts of the per-anchor sample sets.
Positives and local negatives are flattened, the CSR idea of
``cloud.NeighborGraph``: slot ``s`` of a batch owns rows
``offsets[s]:offsets[s + 1]``, and every row names its slot and its target
index. Global negatives, every target outside the anchor's ball, fill nearly
all of the (usable anchors x target points) cells, so they are held as one
dense tile of those cells, and a slot's set is the cells of its tile row at
its target indices. A flat row's feature distance is
``sqrt(add.reduce(diff * diff, axis=1))`` over contiguous blocks of
difference rows, which is what ``np.linalg.norm(axis=1)`` computes; the tile
adds the same squares column by column, in the order of that pairwise sum,
so each distance is the one a per-anchor loop would get. Per-anchor totals
are a pairwise ``.sum()`` over each slot's rows, or over its gathered tile
cells, in set order, as the per-anchor ``e.sum()`` was: ``np.add.reduceat``
and ``np.bincount`` add a segment sequentially, which rounds differently and
changes the last bits of per-anchor loss terms. Gradients come from one
weight matrix per sample kind, with rows for anchors and columns for target
points: sparse for flat rows, and for the tile a dense matrix that counts a
repeated cell once per occurrence.

Flat distances run on the calling thread in chunks of ``_CHUNK_ROWS`` rows: a
256-anchor step sends them a few thousand rows. The global-negative tile runs
on the shared worker pool (``cloud.map_chunks``) in blocks of 16
(``_TILE_SLOTS``) anchor rows, so no result depends on the worker count. One
block pass checks the block's sets and fills its tile rows with five
block-sized arrays live. The loss's block pass takes the exponentials, each
slot's sum and the block's rows of the weight tile, which need no other
slot's sums. What mixes anchors stays whole on the calling thread: the
anchor-order loss total, the weight tile's column sums and its two BLAS
products. So do the labels' per-slot minima, whose gathers hold the
interpreter lock and ran slower on the pool. A batch keeps the layouts, with
their distances, of each (source ``DescriptorSet``, target ``DescriptorSet``,
negative mode) it has seen for its lifetime, so ``circle_loss`` and
``matchability_labels`` on the same sets share one pass: about 7 MB per
global-negative tile at 256 anchors on 5k points. Raw arrays are never
memoised, as a caller may change them in place.

The loss of ``circle_loss`` and the bits and valid mask of
``matchability_labels`` take nothing from BLAS, so they do not depend on the
BLAS thread count either. ``circle_loss``'s gradients do: the weight tile's
products ``w @ f_tgt`` and ``w.T @ f_anchor`` are BLAS GEMMs, which a
multi-threaded BLAS splits by its thread count. On a 5k room step the last
bits of ``grad_source`` differ between ``OPENBLAS_NUM_THREADS=1`` and ``2``;
``grad_target`` was equal there, which no BLAS promises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import sparse

from .cloud import PointCloud, RigidTransform, build_index, map_chunks, transform_points
from .descriptors import DescriptorSet, feature_matrix
from .errors import (
    DegenerateBatchError,
    NoCorrespondenceError,
    ValidationError,
)

_CLAMP = 1e-7
# Flat (anchor, target) rows whose feature differences a distance pass holds at once.
_CHUNK_ROWS = 1024
# Anchor rows of one pool task in a tile distance pass.
_TILE_SLOTS = 16


class NegativeMode(str, Enum):
    GLOBAL = "global"
    LOCAL = "local"


@dataclass(frozen=True)
class SamplingRadii:
    """Spatial thresholds classifying target points around an aligned anchor.

    Positives lie within ``positive``; local negatives in the open annulus
    (local_negative, global_negative); global negatives beyond
    ``global_negative``.
    """

    positive: float = 0.0375
    local_negative: float = 0.05
    global_negative: float = 0.1

    def __post_init__(self):
        if not 0 < self.positive < self.local_negative < self.global_negative < np.inf:
            raise ValidationError(
                "require 0 < positive < local_negative < global_negative, all finite"
            )


@dataclass(frozen=True)
class CircleLossParams:
    """Margins and exponent scale for the contrastive descriptor loss: a
    positive at distance d has exponent scale * (d - positive_margin), a
    negative scale * (negative_margin - d)."""

    positive_margin: float = 0.1
    negative_margin: float = 1.4
    scale: float = 10.0

    def __post_init__(self):
        if not self.positive_margin < self.negative_margin:
            raise ValidationError("positive_margin must be < negative_margin")
        if not self.scale > 0:
            raise ValidationError("scale must be positive")


@dataclass(frozen=True)
class TargetScores:
    """Regression targets for the four keypoint ranks, best to worst."""

    rank3: float = 1.0
    rank2: float = 0.75
    rank1: float = 0.25
    rank0: float = 0.0

    def __post_init__(self):
        if not self.rank3 > self.rank2 > self.rank1 > self.rank0:
            raise ValidationError("target scores must strictly decrease with rank")
        for v in (self.rank0, self.rank1, self.rank2, self.rank3):
            if not 0.0 <= v <= 1.0:
                raise ValidationError("target scores must lie in [0, 1]")

    def as_array(self) -> np.ndarray:
        return np.array([self.rank0, self.rank1, self.rank2, self.rank3])


@dataclass(frozen=True)
class SampleBatch:
    """Anchors (source indices) with per-anchor target-index sample sets."""

    anchors: np.ndarray
    positives: tuple[np.ndarray, ...]
    local_negatives: tuple[np.ndarray, ...]
    global_negatives: tuple[np.ndarray, ...]
    requested: int
    eligible: int
    # (id(source), id(target), mode) -> (source, target, [(layout, distances)]
    # of positives and negatives) for DescriptorSet inputs; the sets are kept
    # to check identity with ``is``.
    _distances: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.anchors)

    def negatives(self, mode: NegativeMode) -> tuple[np.ndarray, ...]:
        return self.global_negatives if NegativeMode(mode) == NegativeMode.GLOBAL \
            else self.local_negatives


def build_sample_batch(source: PointCloud, target: PointCloud, gt: RigidTransform,
                       radii: SamplingRadii, n_anchors: int, seed: int) -> SampleBatch:
    """Sample anchors with at least one positive and classify target points.

    Anchors are drawn uniformly (seeded, without replacement) from source
    points that have >= 1 target point within the positive radius after
    alignment by ``gt``. If fewer points are eligible than requested, all
    eligible points become anchors.
    """
    if n_anchors < 1:
        raise ValidationError("n_anchors must be >= 1")
    if len(source) < 1 or len(target) < 1:
        raise ValidationError("both clouds must be nonempty")
    aligned = transform_points(source.points, gt)
    index = build_index(target)

    # Eligibility needs only the positive ball; negatives are classified for
    # the sampled anchors alone.
    positive = index.radius_graph(aligned, radii.positive)
    eligible = np.flatnonzero(positive.counts)
    if eligible.size == 0:
        raise NoCorrespondenceError(
            "no source point has a target point within the positive radius"
        )
    rng = np.random.default_rng(seed)
    if eligible.size >= n_anchors:
        anchors = rng.choice(eligible, size=n_anchors, replace=False)
    else:
        anchors = eligible
    anchors = anchors.astype(np.intp)

    # One radius query for all anchors, classified on its flattened rows.
    anchor_points = aligned[anchors]
    balls = index.radius_graph(anchor_points, radii.global_negative)
    counts, inside = balls.counts, balls.indices
    slots = np.repeat(np.arange(len(anchors), dtype=np.intp), counts)
    diff = target.points[inside] - anchor_points[slots]
    d2 = np.einsum("ij,ij->i", diff, diff)
    local = (d2 > radii.local_negative ** 2) & (d2 < radii.global_negative ** 2)
    local_counts = np.bincount(slots[local], minlength=len(anchors))
    local_sets = np.split(inside[local], np.cumsum(local_counts)[:-1])
    # Global negatives are the targets outside each ball, ascending per row.
    outside = np.ones((len(anchors), len(target)), dtype=bool)
    outside[slots, inside] = False
    global_sets = [np.flatnonzero(row) for row in outside]

    return SampleBatch(
        anchors=anchors,
        positives=tuple(positive.row(a) for a in anchors),
        local_negatives=tuple(local_sets),
        global_negatives=tuple(global_sets),
        requested=n_anchors,
        eligible=int(eligible.size),
    )


@dataclass(frozen=True)
class CircleLossResult:
    loss: float
    grad_source: np.ndarray
    grad_target: np.ndarray
    used_anchors: int
    skipped_anchors: tuple[int, ...]


def _weights(rows, dl: np.ndarray, d: np.ndarray, out: np.ndarray):
    """``rows``' weight matrix of the per-row loss derivative ``dl``, divided
    by the distance ``d`` into ``out`` (zeros): a row at d == 0 has no
    direction and keeps its 0."""
    return rows.weights(np.divide(dl, d, out=out, where=d > 0))


def _negative_terms(rows, d_n: np.ndarray, sum_p: np.ndarray, params: CircleLossParams,
                    out: np.ndarray):
    """Per-slot sums of the negative exponentials and the negative weight
    matrix of ``circle_loss`` (see there), written into ``out``. Every step
    is per row or per slot, so a block of slots gets the bits of the whole."""
    g_n = params.scale * (params.negative_margin - d_n)
    # g is a fresh array, so exp overwrites it: one fewer temporary per row
    e_n = np.exp(g_n, out=g_n)
    sum_n = rows.sums(e_n)
    # d loss / d d_n,j, with the negative-margin chain's sign flip
    dl_dn = -rows.per_row(sum_p) * e_n * params.scale / rows.per_row(1.0 + sum_p * sum_n)
    return sum_n, _weights(rows, dl_dn, d_n, out)


def _check_integers(sets) -> None:
    """Raise ``ValidationError`` for a nonempty sample set not of integers."""
    if any(s.size and s.dtype.kind not in "iu" for s in sets):
        raise ValidationError("sample indices must be integers")


@dataclass(frozen=True)
class _FlatSets:
    """Index arrays of several slots flattened CSR-style: slot ``s`` owns rows
    ``offsets[s]:offsets[s + 1]``; ``slots`` and ``targets`` give each row's
    slot and target index, which lies in ``[0, n_targets)``."""

    offsets: np.ndarray
    slots: np.ndarray
    targets: np.ndarray
    n_targets: int

    @classmethod
    def of(cls, sets, n_targets: int) -> "_FlatSets":
        _check_integers(sets)
        counts = np.array([s.size for s in sets], dtype=np.intp)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
        targets = np.concatenate(sets).astype(np.intp, copy=False)
        if targets.size and not 0 <= targets.min() <= targets.max() < n_targets:
            raise ValidationError(f"sample indices must lie in [0, {n_targets})")
        slots = np.repeat(np.arange(len(sets), dtype=np.intp), counts)
        return cls(offsets, slots, targets, n_targets)

    def distances(self, f_anchor: np.ndarray, f_tgt: np.ndarray) -> np.ndarray:
        """Exact feature distance of every row, ``f_anchor`` indexed by slot."""
        dist = np.empty(len(self.targets))
        for lo in range(0, len(dist), _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            diff = np.take(f_anchor, self.slots[rows], axis=0)
            diff -= np.take(f_tgt, self.targets[rows], axis=0)
            np.add.reduce(diff * diff, axis=1, out=dist[rows])
        return np.sqrt(dist, out=dist)

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Pairwise ``.sum()`` of each slot's slice of ``values``."""
        bounds = self.offsets.tolist()
        return np.array([values[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:])])

    def minima(self, values: np.ndarray) -> np.ndarray:
        """Minimum of each slot's slice; every slot must be nonempty."""
        return np.minimum.reduceat(values, self.offsets[:-1])

    def per_row(self, per_slot: np.ndarray) -> np.ndarray:
        """Per-slot values spread over the layout ``distances`` returns."""
        return per_slot[self.slots]

    def weights(self, weight: np.ndarray) -> sparse.csr_array:
        """The (slot, target) matrix of the per-row ``weight``."""
        return sparse.csr_array((weight, self.targets, self.offsets),
                                shape=(len(self.offsets) - 1, self.n_targets))

    def negative_terms(self, d_n: np.ndarray, sum_p: np.ndarray,
                       params: CircleLossParams) -> tuple[np.ndarray, sparse.csr_array]:
        """``_negative_terms`` of every slot at once, as sparse weights."""
        return _negative_terms(self, d_n, sum_p, params, np.zeros_like(d_n))


def _add_squares(rows: np.ndarray, columns: np.ndarray, out: np.ndarray,
                 scratch: list[np.ndarray]) -> None:
    """``out[i, t]`` = sum over k of ``(rows[i, k] - columns[k, t]) ** 2``,
    added in the order numpy's pairwise ``add.reduce`` takes over one row
    of k: one by one below 8 terms, in 8 strided accumulators up to 128 and
    then the rest one by one, and as two halves above that, the first a
    multiple of 8 long. Each cell thus has the bits of the row form, while
    every step is one contiguous operation over a whole block. Each chain
    of 8-strided terms is taken whole and pairs are added as chains complete,
    so only ``out`` and ``scratch``'s four arrays of its shape are live."""
    n = len(columns)

    def square(k: int, into: np.ndarray) -> np.ndarray:
        np.subtract(rows[:, k, None], columns[k], out=into)
        return np.multiply(into, into, out=into)

    if n < 8:
        out.fill(0.0)
        for k in range(n):
            np.add(out, square(k, scratch[0]), out=out)
    elif n <= 128:
        whole, (a, b, c, term) = n - n % 8, scratch

        def chain(j: int, acc: np.ndarray) -> np.ndarray:  # terms j, j + 8, ...
            square(j, acc)
            for k in range(j + 8, whole, 8):
                np.add(acc, square(k, term), out=acc)
            return acc

        # ((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7)); arguments run left to right
        np.add(chain(0, out), chain(1, a), out=out)
        np.add(chain(2, a), chain(3, b), out=a)
        np.add(out, a, out=out)
        np.add(chain(4, a), chain(5, b), out=a)
        np.add(chain(6, b), chain(7, c), out=b)
        np.add(a, b, out=a)
        np.add(out, a, out=out)
        for k in range(whole, n):
            np.add(out, square(k, term), out=out)
    else:
        half = n // 2 - n // 2 % 8
        _add_squares(rows[:, :half], columns[:half], out, scratch)
        rest = np.empty_like(out)
        _add_squares(rows[:, half:], columns[half:], rest, scratch)
        np.add(out, rest, out=out)


@dataclass(frozen=True)
class _TileSets:
    """Index arrays of several slots read as cells of one dense (slot,
    target) tile, for sets that cover nearly every target: ``distances``
    fills every cell, and a slot's set is the cells ``values[slot][set]``,
    gathered in the set's own order. The interface is ``_FlatSets``'s, with
    a tile where that takes flat rows; the passes over a tile run in blocks
    of ``_TILE_SLOTS`` slots on the worker pool, each writing its own rows."""

    sets: tuple[np.ndarray, ...]
    n_targets: int

    @classmethod
    def of(cls, sets, n_targets: int) -> "_TileSets":
        """The sets as indices; ``distances`` checks each block's range."""
        sets = [np.asarray(s) for s in sets]
        _check_integers(sets)
        return cls(tuple(s.astype(np.intp, copy=False) for s in sets), n_targets)

    def distances(self, f_anchor: np.ndarray, f_tgt: np.ndarray) -> np.ndarray:
        """Exact feature distance of every (slot, target) cell, with the
        bits of ``_FlatSets.distances`` (see ``_add_squares``)."""
        tile = np.empty((len(f_anchor), len(f_tgt)))
        columns = np.ascontiguousarray(f_tgt.T)

        def measure(start: int, stop: int) -> None:
            # a negative index read as unsigned lies past any target count
            if any(s.size and s.view(np.uintp).max() >= self.n_targets
                   for s in self.sets[start:stop]):
                raise ValidationError(f"sample indices must lie in [0, {self.n_targets})")
            block = tile[start:stop]
            _add_squares(f_anchor[start:stop], columns, block,
                         [np.empty_like(block) for _ in range(4)])
            np.sqrt(block, out=block)

        map_chunks(measure, len(tile), _TILE_SLOTS)
        return tile

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Pairwise ``.sum()`` of each slot's cells, as ``_FlatSets.sums``
        takes it of the same values flattened."""
        return np.array([row[s].sum() for row, s in zip(values, self.sets)])

    def minima(self, values: np.ndarray) -> np.ndarray:
        return np.array([row[s].min() for row, s in zip(values, self.sets)])

    def per_row(self, per_slot: np.ndarray) -> np.ndarray:
        return per_slot[:, None]

    def weights(self, weight: np.ndarray) -> np.ndarray:
        """``weight`` counted once per occurrence of each cell in its slot's
        set, so a cell outside the set holds 0; updated in place."""
        for row, s in zip(weight, self.sets):
            row *= np.bincount(s, minlength=self.n_targets)
        return weight

    def negative_terms(self, d_n: np.ndarray, sum_p: np.ndarray,
                       params: CircleLossParams) -> tuple[np.ndarray, np.ndarray]:
        """``_negative_terms`` of each block of slots, into one weight tile."""
        sum_n = np.empty(len(d_n))
        weight = np.zeros_like(d_n)

        def terms(start: int, stop: int) -> None:
            block = _TileSets(self.sets[start:stop], self.n_targets)
            sum_n[start:stop], _ = _negative_terms(block, d_n[start:stop], sum_p[start:stop],
                                                   params, weight[start:stop])

        map_chunks(terms, len(d_n), _TILE_SLOTS)
        return sum_n, weight


def _usable_slots(batch: SampleBatch, mode: NegativeMode) -> np.ndarray:
    """Mask of the slots whose positive and selected negative sets are nonempty."""
    negatives = batch.negatives(mode)
    return np.array([pos.size > 0 and neg.size > 0
                     for pos, neg in zip(batch.positives, negatives)], dtype=bool)


def _samples(features: tuple, f_src: np.ndarray, f_tgt: np.ndarray,
             batch: SampleBatch, mode: NegativeMode, slots: np.ndarray):
    """Anchor features of ``slots``, and their positive and negative sets,
    each with its distances: global negatives as a tile, the others as flat
    rows.

    ``features`` is the (source, target) pair the caller was given and
    ``f_src``, ``f_tgt`` its matrices; ``slots`` are the usable slots of
    (batch, mode). When both are ``DescriptorSet``s, the checked layouts and
    their distances come from the batch's memo if it holds these very sets
    for ``mode``, and are stored there otherwise.
    """
    source, target = features
    f_anchor = f_src[batch.anchors[slots]]
    key = (id(source), id(target), NegativeMode(mode))
    entry = batch._distances.get(key)
    if entry is not None and entry[0] is source and entry[1] is target:
        return f_anchor, entry[2]
    negatives = _TileSets if NegativeMode(mode) == NegativeMode.GLOBAL else _FlatSets
    samples = []
    for layout, sets in ((_FlatSets, batch.positives), (negatives, batch.negatives(mode))):
        rows = layout.of([sets[s] for s in slots], len(f_tgt))
        samples.append((rows, rows.distances(f_anchor, f_tgt)))
    if isinstance(source, DescriptorSet) and isinstance(target, DescriptorSet):
        for _, dists in samples:
            dists.setflags(write=False)
        batch._distances[key] = (source, target, samples)
    return f_anchor, samples


def _sample_features(source_features, target_features,
                     batch: SampleBatch) -> tuple[np.ndarray, np.ndarray]:
    """The feature matrices, checked against each other and ``batch``'s anchors."""
    f_src = feature_matrix(source_features)
    f_tgt = feature_matrix(target_features)
    if f_src.shape[1] != f_tgt.shape[1]:
        raise ValidationError("source/target feature dimensions differ")
    anchors = batch.anchors
    if len(anchors) and anchors.dtype.kind not in "iu":
        raise ValidationError("anchors must be integers")
    if len(anchors) and not 0 <= anchors.min() <= anchors.max() < len(f_src):
        raise ValidationError(f"anchors must lie in [0, {len(f_src)})")
    return f_src, f_tgt


def circle_loss(source_features, target_features, batch: SampleBatch,
                mode: NegativeMode, params: CircleLossParams) -> CircleLossResult:
    """Contrastive descriptor loss over a sample batch, with exact gradient.

    Per anchor: log(1 + sum_pos exp(s (d - m_p)) * sum_neg exp(s (m_n - d))),
    averaged over anchors whose positive and selected negative sets are both
    nonempty; anchors lacking either set are skipped and reported.
    """
    f_src, f_tgt = _sample_features(source_features, target_features, batch)
    if len(batch) == 0:
        raise ValidationError("batch is empty")
    usable = _usable_slots(batch, mode)
    if not usable.any():
        raise DegenerateBatchError("every anchor was skipped (empty sample sets)")
    slots = np.flatnonzero(usable)
    f_anchor, ((pos, d_p), (neg, d_n)) = _samples(
        (source_features, target_features), f_src, f_tgt, batch, mode, slots)

    g_p = params.scale * (d_p - params.positive_margin)
    e_p = np.exp(g_p, out=g_p)
    sum_p = pos.sums(e_p)
    sum_n, w_n = neg.negative_terms(d_n, sum_p, params)
    used = len(slots)
    # accumulate adds left to right: the anchor-order running total
    total = np.add.accumulate(np.log1p(sum_p * sum_n))[-1]

    # d loss / d d_p,j
    dl_dp = pos.per_row(sum_n) * e_p * params.scale / pos.per_row(1.0 + sum_p * sum_n)
    w_p = _weights(pos, dl_dp, d_p, np.zeros_like(d_p))
    # W[s, t] = (d loss / d d) / d per row. d d / d f_a = (f_a - f_t) / d,
    # hence grad_a = rowsum(W) f_a - W f_tgt and grad_t = colsum(W) f_t -
    # W^T f_a: sparse products for flat rows, BLAS GEMMs for a tile.
    grad_anchor = np.zeros_like(f_anchor)
    grad_tgt = np.zeros_like(f_tgt)
    for w in (w_p, w_n):
        grad_anchor += w.sum(axis=1)[:, None] * f_anchor - w @ f_tgt
        grad_tgt += w.sum(axis=0)[:, None] * f_tgt - w.T @ f_anchor
    grad_src = np.zeros_like(f_src)
    np.add.at(grad_src, batch.anchors[slots], grad_anchor)

    return CircleLossResult(
        loss=float(total / used),
        grad_source=np.divide(grad_src, used, out=grad_src),
        grad_target=np.divide(grad_tgt, used, out=grad_tgt),
        used_anchors=used,
        skipped_anchors=tuple(int(a) for a in batch.anchors[~usable]),
    )


def matchability_labels(source_features, target_features, batch: SampleBatch,
                        mode: NegativeMode) -> tuple[np.ndarray, np.ndarray]:
    """Per-anchor bit: the closest positive beats the closest negative in
    feature distance.

    The high-level labels pair high descriptors with global negatives, the
    low-level ones low descriptors with local negatives; callers pass the
    matching (features, mode) combination. Returns (bits, valid) where
    anchors with an empty positive or negative set are flagged invalid and
    must be excluded downstream.
    """
    f_src, f_tgt = _sample_features(source_features, target_features, batch)
    valid = _usable_slots(batch, mode)
    bits = np.zeros(len(batch), dtype=np.int8)
    if not valid.any():
        return bits, valid
    slots = np.flatnonzero(valid)
    _, ((pos, d_pos), (neg, d_neg)) = _samples(
        (source_features, target_features), f_src, f_tgt, batch, mode, slots)
    bits[slots] = pos.minima(d_pos) - neg.minima(d_neg) < 0
    return bits, valid


def keypoint_rankings(high_bits, low_bits) -> tuple[np.ndarray, np.ndarray]:
    """Fold dual matchability bits into 4-level ranks, one per ranking sense.

    The level a ranking belongs to weighs its own matchability bit twice:
    high rank = 2*high + low, low rank = 2*low + high.
    """
    high = np.asarray(high_bits)
    low = np.asarray(low_bits)
    if high.shape != low.shape:
        raise ValidationError("matchability bit arrays must have equal length")
    if not (np.isin(high, (0, 1)).all() and np.isin(low, (0, 1)).all()):
        raise ValidationError("matchability bits must be 0 or 1")
    return (2 * high + low).astype(np.intp), (2 * low + high).astype(np.intp)


def rating_loss(scores, rankings, targets: TargetScores) -> tuple[float, np.ndarray]:
    """Mean squared error between predicted scores and rank target scores."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    rankings = np.asarray(rankings).reshape(-1)
    if scores.shape != rankings.shape:
        raise ValidationError("scores and rankings must have equal length")
    if scores.size < 1:
        raise ValidationError("need at least one sample")
    if not np.isin(rankings, (0, 1, 2, 3)).all():
        raise ValidationError("rankings must be integers in 0..3")
    if not np.isfinite(scores).all():
        raise ValidationError("scores contain NaN or Inf")
    residual = scores - targets.as_array()[rankings]
    loss = float(np.mean(residual ** 2))
    grad = 2.0 * residual / scores.size
    return loss, grad


def overlap_labels(source: PointCloud, target: PointCloud, gt: RigidTransform,
                   radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Geometric overlap bits for both clouds under the given alignment.

    A source point is overlapping when its aligned position has at least one
    target point within ``radius``, and symmetrically for target points.
    """
    if not radius > 0:
        raise ValidationError("radius must be positive")
    aligned = transform_points(source.points, gt)
    bound = np.nextafter(radius, np.inf)  # the search stops past it; radius itself is in
    d_src, _ = build_index(target).knn_batch(aligned, 1, bound)
    d_tgt, _ = build_index(PointCloud(aligned)).knn_batch(target.points, 1, bound)
    src_bits = (d_src.reshape(-1) <= radius).astype(np.int8)
    tgt_bits = (d_tgt.reshape(-1) <= radius).astype(np.int8)
    return src_bits, tgt_bits


def overlap_loss(predictions, labels) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy with clamped predictions, plus gradient."""
    pred = np.asarray(predictions, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if pred.shape != y.shape:
        raise ValidationError("predictions and labels must have equal length")
    if pred.size < 1:
        raise ValidationError("need at least one prediction")
    if not np.isfinite(pred).all():
        raise ValidationError("predictions contain NaN or Inf")
    if not np.isin(y, (0, 1)).all():
        raise ValidationError("labels must be 0 or 1")
    clamped = np.clip(pred, _CLAMP, 1.0 - _CLAMP)
    loss = float(-np.mean(y * np.log(clamped) + (1.0 - y) * np.log1p(-clamped)))
    inside = (pred > _CLAMP) & (pred < 1.0 - _CLAMP)
    grad = (clamped - y) / (clamped * (1.0 - clamped)) / pred.size
    grad[~inside] = 0.0
    return loss, grad


def total_loss(high_descriptor: float, low_descriptor: float, overlap: float,
               high_matchability: float, low_matchability: float) -> float:
    """The total objective: the plain sum of its five components."""
    parts = np.array([high_descriptor, low_descriptor, overlap,
                      high_matchability, low_matchability], dtype=np.float64)
    if not np.isfinite(parts).all() or (parts < 0).any():
        raise ValidationError("loss components must be finite and nonnegative")
    return float(parts.sum())
