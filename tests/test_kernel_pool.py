"""The chunked kernels on the shared worker pool.

Chunk boundaries are fixed and every chunk writes its own rows, so the
outputs must not depend on the number of workers; callers on several threads
share the pool without waiting on each other; and each kernel's temporaries
stay bounded by a few chunks per worker.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from hireg import (
    CircleLossParams,
    DescriptorParams,
    Level,
    NegativeMode,
    PointCloud,
    RunConfig,
    SamplingRadii,
    SceneSpec,
    build_index,
    build_sample_batch,
    circle_loss,
    compute_descriptors,
    describe_cloud,
    estimate_normals,
    generate_scene,
    matchability_labels,
    register,
)
from hireg import cloud, descriptors, detectors
from hireg.cloud import transform_points
from hireg.detectors import pairwise_feature_nn, score_overlap_heuristic, score_saliency
from hireg.training import _TILE_SLOTS, _FlatSets, _TileSets

from conftest import register_arrays

_TIMEOUT_S = 300
_MIB = 2 ** 20
_SRC = str(Path(__file__).resolve().parent.parent / "src")
# Reads a pickled (batch, f_src, f_tgt) and saves both modes' loss, label
# bits and valid mask.
_LOSSES_AND_LABELS = """
import pickle, sys
import numpy as np
from hireg import CircleLossParams, NegativeMode, circle_loss, matchability_labels
with open(sys.argv[1], "rb") as fh:
    batch, f_src, f_tgt = pickle.load(fh)
out = {}
for mode in NegativeMode:
    out[mode.value + "_loss"] = circle_loss(f_src, f_tgt, batch, mode, CircleLossParams()).loss
    out[mode.value + "_bits"], out[mode.value + "_valid"] = matchability_labels(
        f_src, f_tgt, batch, mode)
np.savez(sys.argv[2], **out)
"""


def _kernel_outputs(scene) -> dict:
    """Every chunked kernel on one scene, from a fresh index."""
    params = DescriptorParams()
    out = {}
    high = {}
    for side, pc in (("src", scene.source), ("tgt", scene.target)):
        index = build_index(pc)
        normals = estimate_normals(pc, params.normal_radius, index=index)
        low = compute_descriptors(pc, Level.LOW, params, normals, index)
        high[side] = compute_descriptors(pc, Level.HIGH, params, normals, index)
        out[f"{side}_normals"] = normals
        out[f"{side}_low"] = low.vectors
        out[f"{side}_high"] = high[side].vectors
        out[f"{side}_saliency"] = score_saliency(pc, low, index, 24)
        out[f"{side}_knn"] = index.knn_batch(pc.points, 25)[1]
    out["overlap"] = score_overlap_heuristic(high["src"], high["tgt"])
    out["nn"] = pairwise_feature_nn(high["tgt"].vectors, high["src"].vectors)[1]
    return out


@pytest.fixture(scope="module")
def scene():
    return generate_scene(SceneSpec(shape="room", n_points=2000, overlap=0.7, seed=11))


def _use_pool(monkeypatch, workers: int) -> ThreadPoolExecutor:
    pool = ThreadPoolExecutor(workers, initializer=cloud._mark_worker)
    monkeypatch.setattr(cloud, "_pool", pool)
    monkeypatch.setattr(cloud, "worker_count", lambda: max(workers, 2))
    return pool


def _on_each_pool(monkeypatch, fn) -> list:
    """``fn()`` inline (as on a single CPU), on a 1-worker and on a 3-worker pool."""
    results = []
    for workers in (0, 1, 3):
        with monkeypatch.context() as patch:
            if workers == 0:
                patch.setattr(cloud, "worker_count", lambda: 1)
                pool = None
            else:
                pool = _use_pool(patch, workers)
            try:
                results.append(fn())
            finally:
                if pool is not None:
                    pool.shutdown()
    return results


@pytest.fixture(scope="module")
def room_batch():
    """A 256-anchor batch of a 5k room pair, with 33-wide unit features: random
    Fourier features of the aligned points, noisier on the source, so that
    about half the anchors match better than their closest global negative."""
    room = generate_scene(SceneSpec(shape="room", n_points=5000, overlap=0.7, seed=1000))
    batch = build_sample_batch(room.source, room.target, room.transform,
                               SamplingRadii(), 256, seed=1)
    assert len(batch) > 4 * _TILE_SLOTS
    rng = np.random.default_rng(0)
    freq, phase = rng.normal(size=(3, 33)) * 10.0, rng.uniform(0.0, 2.0 * np.pi, 33)

    def unit(f):
        return f / np.linalg.norm(f, axis=1, keepdims=True)

    aligned = transform_points(room.source.points, room.transform)
    f_src = unit(unit(np.cos(aligned @ freq + phase)) + 0.3 * rng.normal(size=(len(aligned), 33)))
    f_tgt = unit(np.cos(room.target.points @ freq + phase))
    return batch, f_src, f_tgt


class TestWorkerCount:
    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity masks")
    def test_worker_count_is_the_affinity_mask(self):
        assert cloud.worker_count() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("workers", [0, 1, 3])
    def test_outputs_do_not_depend_on_workers(self, scene, monkeypatch, workers):
        expected = _kernel_outputs(scene)
        if workers == 0:  # inline, as on a single CPU
            monkeypatch.setattr(cloud, "worker_count", lambda: 1)
            pool = None
        else:
            pool = _use_pool(monkeypatch, workers)
        try:
            got = _kernel_outputs(scene)
        finally:
            if pool is not None:
                pool.shutdown()
        assert got.keys() == expected.keys()
        for key in expected:
            assert got[key].dtype == expected[key].dtype, key
            assert np.array_equal(got[key], expected[key]), key

    def test_training_distances_do_not_depend_on_workers(self, room_batch, monkeypatch):
        """The sample-distance passes of a 5k room batch, flat rows and the
        global-negative tile: inline, on a 1-worker and on a 3-worker pool,
        every distance has the same bits, and a tile cell has the bits of the
        flat row for the same (anchor, target)."""
        batch, f_src, f_tgt = room_batch
        f_anchor = f_src[batch.anchors]
        flat = [_FlatSets.of(sets, len(f_tgt))
                for sets in (batch.positives, batch.local_negatives, batch.global_negatives)]
        tile = _TileSets.of(batch.global_negatives, len(f_tgt))
        results = _on_each_pool(monkeypatch, lambda: [rows.distances(f_anchor, f_tgt)
                                                      for rows in (*flat, tile)])
        for got in results[1:]:
            for a, b in zip(got, results[0]):
                assert np.array_equal(a, b)
        global_rows, cells = results[0][2], results[0][3]
        assert cells.shape == (len(batch), len(f_tgt))
        assert np.array_equal(cells[flat[2].slots, flat[2].targets], global_rows)

    @pytest.mark.parametrize("params", [CircleLossParams()], ids=["constant"])
    def test_global_pass_does_not_depend_on_workers(self, room_batch, monkeypatch, params):
        """The blocked global-negative loss and labels of a 5k room batch:
        inline, on a 1-worker and on a 3-worker pool, the loss, the label
        bits and the gradients have the same bits."""
        batch, f_src, f_tgt = room_batch

        def global_pass():
            result = circle_loss(f_src, f_tgt, batch, NegativeMode.GLOBAL, params)
            bits, valid = matchability_labels(f_src, f_tgt, batch, NegativeMode.GLOBAL)
            return [np.array([result.loss, result.used_anchors]), result.grad_source,
                    result.grad_target, bits, valid]

        results = _on_each_pool(monkeypatch, global_pass)
        for got in results[1:]:
            for a, b in zip(got, results[0]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        bits, valid = results[0][3:5]
        assert valid.all() and 0 < bits.sum() < len(bits)

    def test_losses_and_labels_do_not_depend_on_blas_threads(self, room_batch, tmp_path):
        """One saved 5k room batch, read by a process on a one-thread and by
        one on a two-thread BLAS: both modes' losses, label bits and valid
        masks have the same bits. The gradients may not: their tile products
        are BLAS GEMMs, which a BLAS splits by its thread count."""
        saved = tmp_path / "batch.pkl"
        saved.write_bytes(pickle.dumps(room_batch))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}.npz"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=_SRC)
            subprocess.run([sys.executable, "-c", _LOSSES_AND_LABELS, str(saved), str(out)],
                           env=env, check=True, timeout=_TIMEOUT_S)
            with np.load(out) as arrays:
                outputs.append(dict(arrays))
        one, two = outputs
        assert one.keys() == two.keys() and len(one) == 6
        for key in one:
            assert one[key].dtype == two[key].dtype and np.array_equal(one[key], two[key]), key
        assert 0 < one["global_bits"].sum() < len(one["global_bits"])

    def test_low_does_not_depend_on_triple_budget(self, monkeypatch):
        """The dense cluster of the descriptor equivalence tests, whose
        centres hold far more (center, a, b) triples than a small budget."""
        rng = np.random.default_rng(5)
        pc = PointCloud(np.vstack([rng.uniform(-0.08, 0.08, size=(300, 3)),
                                   rng.uniform(-1.0, 1.0, size=(200, 3))]))
        params = DescriptorParams(low_radius=0.05, high_radius=0.3, normal_radius=0.08)
        expected = compute_descriptors(pc, Level.LOW, params).vectors
        m = build_index(pc).neighbor_graph(params.low_radius).counts
        assert (m * (m - 1)).max() > 7
        for budget in (1, 7, descriptors._CHUNK_TRIPLES):
            monkeypatch.setattr(descriptors, "_CHUNK_TRIPLES", budget)
            bounds = descriptors._center_chunks(m * (m - 1))
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                assert hi - lo == 1 or (m[lo:hi] * (m[lo:hi] - 1)).sum() <= budget
            got = compute_descriptors(pc, Level.LOW, params).vectors
            assert np.array_equal(got, expected), budget

    def test_feature_nn_does_not_depend_on_block(self, scene, monkeypatch):
        params = DescriptorParams()
        src, tgt = (compute_descriptors(pc, Level.HIGH, params).vectors
                    for pc in (scene.source, scene.target))
        dist, idx = pairwise_feature_nn(src, tgt)
        for block in (1, 100, 1024, len(src)):
            monkeypatch.setattr(detectors, "_CHUNK_QUERIES", block)
            got_dist, got_idx = pairwise_feature_nn(src, tgt)
            assert np.array_equal(got_idx, idx) and np.array_equal(got_dist, dist), block


class TestMapChunks:
    @pytest.mark.parametrize("n, chunk", [(0, 4), (3, 4), (4, 4), (17, 4), (1000, 7)])
    def test_every_row_written_once(self, n, chunk):
        hits = np.zeros(n, dtype=int)

        def mark(start, stop):
            assert 0 <= start < stop <= n and stop - start <= chunk
            hits[start:stop] += 1

        cloud.map_chunks(mark, n, chunk)
        assert (hits == 1).all()

    def test_chunk_error_reaches_caller(self):
        def fail(start, stop):
            if start == 8:
                raise ValueError("chunk 8")

        with pytest.raises(ValueError, match="chunk 8"):
            cloud.map_chunks(fail, 40, 4)

    def test_nested_call_runs_inline(self, monkeypatch):
        # Enough workers that a nested submission would run elsewhere, not hang.
        pool = _use_pool(monkeypatch, 8)

        def outer(start, stop):
            seen = set()
            cloud.map_chunks(lambda a, b: seen.add(threading.get_ident()), 8, 2)
            assert seen == {threading.get_ident()}

        outcome = {}

        def run():
            try:
                cloud.map_chunks(outer, 8, 2)
            except BaseException as exc:  # handed to the test thread below
                outcome["error"] = exc

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(_TIMEOUT_S)
        assert not caller.is_alive(), "map_chunks did not return"
        pool.shutdown()
        if "error" in outcome:
            raise outcome["error"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
    def test_forked_child_gets_its_own_pool(self, monkeypatch):
        _use_pool(monkeypatch, 2)
        hits = np.zeros(40, dtype=int)

        def mark(start, stop):
            hits[start:stop] += 1

        cloud.map_chunks(mark, 40, 4)  # the parent's pool has live threads now
        pid = os.fork()
        if pid == 0:  # child: the inherited pool's threads do not exist here
            hits[:] = 0
            cloud.map_chunks(mark, 40, 4)
            os._exit(0 if (hits == 1).all() else 1)
        deadline = time.monotonic() + _TIMEOUT_S
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid, "map_chunks hung in a forked child"
        assert os.waitstatus_to_exitcode(done[1]) == 0
        cloud._pool.shutdown()


class TestConcurrentCallers:
    @pytest.mark.parametrize("workers", [None, 1], ids=["cpu-pool", "one-worker"])
    def test_two_registers_at_once_match_serial(self, monkeypatch, workers):
        scenes = [generate_scene(SceneSpec(shape="room", n_points=1500, overlap=0.7, seed=s))
                  for s in (3, 4)]
        config = RunConfig(seed=2)
        serial = [register_arrays(register(s.source, s.target, config)) for s in scenes]
        pool = _use_pool(monkeypatch, workers) if workers else None
        start = threading.Barrier(2)

        def call(s):
            start.wait(_TIMEOUT_S)
            return register_arrays(register(s.source, s.target, config))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the callers' Python code finely
        try:
            with ThreadPoolExecutor(2) as callers:
                futures = [callers.submit(call, s) for s in scenes]
                concurrent = [f.result(timeout=_TIMEOUT_S) for f in futures]
        finally:
            sys.setswitchinterval(interval)
            if pool is not None:
                pool.shutdown()
        for got, expected in zip(concurrent, serial):
            for key in expected:
                assert np.array_equal(got[key], expected[key]), key


class TestMemoryBound:
    """Peaks traced on a 5k room pair. Before chunking they were 172 MB
    (HIGH descriptors) and 185 MB (LOW saliency, one (N, k, D) difference
    tensor); before the in-place graph build and the 30-byte shared-pair
    table, the r = 0.4 graph build peaked at 3.6 times its graph and inline
    LOW descriptors at 41 MB. While 256-row feature-NN blocks held two
    buffers each and ``register`` kept both clouds' r = 0.4 graphs, one
    overlap direction peaked at 13.8 MiB per worker and ``register`` at
    61.8 MiB on one worker, 81.5 MiB on two."""

    @pytest.fixture(scope="class")
    def scene(self):
        return generate_scene(SceneSpec(shape="room", n_points=5000, seed=1000))

    @pytest.fixture(scope="class")
    def room(self, scene):
        return scene.source

    @staticmethod
    def _peak(kernel) -> int:
        tracemalloc.start()
        try:
            kernel()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_kernel_peaks_scale_with_workers(self, room):
        pc = room
        params = DescriptorParams()
        index = build_index(pc)
        index.neighbor_graph(params.low_radius)
        index.neighbor_graph(params.high_radius)
        normals = estimate_normals(pc, params.normal_radius, index=index)
        low = compute_descriptors(pc, Level.LOW, params, normals, index)
        bound = (4 + 8 * cloud.worker_count()) * _MIB
        for name, kernel in (
                ("high descriptors",
                 lambda: compute_descriptors(pc, Level.HIGH, params, normals, index)),
                ("low saliency", lambda: score_saliency(pc, low, index, 24))):
            peak = self._peak(kernel)
            assert peak < bound, f"{name}: peak {peak / _MIB:.1f} MiB >= {bound / _MIB:.0f} MiB"

    def test_graph_build_and_low_peaks_inline(self, room, monkeypatch):
        """Inline, so no peak holds another worker's chunk: the r = 0.4 graph
        build within twice the graph it returns, and LOW descriptors, with
        their graph built beforehand, within 24 MiB."""
        monkeypatch.setattr(cloud, "worker_count", lambda: 1)
        params = DescriptorParams()
        index = build_index(room)
        graphs = []
        peak = self._peak(lambda: graphs.append(index.neighbor_graph(params.high_radius)))
        size = graphs[0].offsets.nbytes + graphs[0].indices.nbytes
        assert peak <= 2 * size, f"graph: peak {peak / _MIB:.1f} MiB, graph {size / _MIB:.1f} MiB"
        normals = estimate_normals(room, params.normal_radius, index=index)
        peak = self._peak(lambda: compute_descriptors(room, Level.LOW, params, normals, index))
        assert peak <= 24 * _MIB, f"low descriptors: peak {peak / _MIB:.1f} MiB"

    @pytest.fixture(scope="class")
    def described(self, scene):
        """(low, high) descriptors of the source and of the target."""
        params = DescriptorParams()
        return [describe_cloud(pc, params)[1:] for pc in (scene.source, scene.target)]

    def test_feature_nn_holds_two_buffers_per_worker(self, described):
        """A 128-row block holds its squared distances and its cross term."""
        src, tgt = (high.vectors for _, high in described)
        peak = self._peak(lambda: pairwise_feature_nn(src, tgt))
        bound = cloud.worker_count() * 2 * 128 * len(tgt) * 8 + _MIB
        assert peak <= bound, f"peak {peak / _MIB:.1f} MiB > {bound / _MIB:.1f} MiB"

    def test_register_peak_scales_with_workers(self, scene):
        """Only the low-radius graph outlives a cloud's descriptors."""
        bound = (24 + 8 * cloud.worker_count()) * _MIB
        peak = self._peak(lambda: register(scene.source, scene.target))
        assert peak < bound, f"peak {peak / _MIB:.1f} MiB >= {bound / _MIB:.0f} MiB"

    def test_training_step_peak_inline(self, scene, described, monkeypatch):
        """One 256-anchor training step, inline: the batch, both circle
        losses and both label passes. Its largest arrays are the global
        negative sets, their distance tile and the weight tile, each about
        (anchors x targets) 8-byte cells, plus the two levels' gradients,
        about one more at 5k. Before the global pass ran in anchor blocks
        the step also held the whole exponent tile, two whole temporaries
        of the weights and the unused row half of ``np.nonzero``'s output,
        and peaked at 46.0 MiB."""
        monkeypatch.setattr(cloud, "worker_count", lambda: 1)
        (src_low, src_high), (tgt_low, tgt_high) = described
        levels = {NegativeMode.GLOBAL: (src_high, tgt_high), NegativeMode.LOCAL: (src_low, tgt_low)}
        anchors = 256

        def step():
            batch = build_sample_batch(scene.source, scene.target, scene.transform,
                                       SamplingRadii(), anchors, seed=1)
            assert len(batch) == anchors
            for mode, (src, tgt) in levels.items():
                circle_loss(src, tgt, batch, mode, CircleLossParams())
            for mode, (src, tgt) in levels.items():
                matchability_labels(src, tgt, batch, mode)

        tile = anchors * len(scene.target) * 8
        peak = self._peak(step)
        assert peak <= 4 * tile + 2 * _MIB, \
            f"peak {peak / _MIB:.1f} MiB, (anchors x targets) {tile / _MIB:.1f} MiB"
