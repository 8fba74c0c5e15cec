"""The chunked kernels on the shared worker pool.

Chunk boundaries are fixed and every chunk writes its own rows, so the
outputs must not depend on the number of workers; callers on several threads
share the pool without waiting on each other; and each kernel's temporaries
stay bounded by a few chunks per worker.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hireg import (
    DescriptorParams,
    Level,
    RunConfig,
    SceneSpec,
    build_index,
    compute_descriptors,
    estimate_normals,
    generate_scene,
    register,
)
from hireg import cloud
from hireg.detectors import pairwise_feature_nn, score_overlap_heuristic, score_saliency

_TIMEOUT_S = 300
_MIB = 2 ** 20


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
    out["nn"] = pairwise_feature_nn(high["tgt"].vectors, high["src"].vectors, block=100)[1]
    return out


@pytest.fixture(scope="module")
def scene():
    return generate_scene(SceneSpec(shape="room", n_points=2000, overlap=0.7, seed=11))


def _use_pool(monkeypatch, workers: int) -> ThreadPoolExecutor:
    pool = ThreadPoolExecutor(workers, initializer=cloud._mark_worker)
    monkeypatch.setattr(cloud, "_pool", pool)
    monkeypatch.setattr(cloud, "worker_count", lambda: max(workers, 2))
    return pool


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

    def test_feature_nn_does_not_depend_on_block(self, scene):
        params = DescriptorParams()
        src, tgt = (compute_descriptors(pc, Level.HIGH, params).vectors
                    for pc in (scene.source, scene.target))
        dist, idx = pairwise_feature_nn(src, tgt)
        for block in (1, 100, 1024, len(src)):
            got_dist, got_idx = pairwise_feature_nn(src, tgt, block=block)
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


def _summary(result) -> dict:
    return {
        "rotation": result.transform.rotation, "translation": result.transform.translation,
        "coarse_rotation": result.coarse_transform.rotation,
        "coarse_pairs": result.coarse.pairs, "fine_pairs": result.fine.pairs,
        "fine_weights": result.fine.weights,
        "src_keypoints": result.source_keypoints.indices,
        "tgt_keypoints": result.target_keypoints.indices,
        "counts": np.array([result.inlier_count, result.iterations_used]),
    }


class TestConcurrentCallers:
    @pytest.mark.parametrize("workers", [None, 1], ids=["cpu-pool", "one-worker"])
    def test_two_registers_at_once_match_serial(self, monkeypatch, workers):
        scenes = [generate_scene(SceneSpec(shape="room", n_points=1500, overlap=0.7, seed=s))
                  for s in (3, 4)]
        config = RunConfig(seed=2)
        serial = [_summary(register(s.source, s.target, config)) for s in scenes]
        pool = _use_pool(monkeypatch, workers) if workers else None
        start = threading.Barrier(2)

        def call(s):
            start.wait(_TIMEOUT_S)
            return _summary(register(s.source, s.target, config))

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
    """Peaks traced on a 5k room cloud with its neighbour graphs built
    beforehand. Before chunking they were 172 MB (HIGH descriptors) and
    185 MB (LOW saliency, one (N, k, D) difference tensor)."""

    def test_kernel_peaks_scale_with_workers(self):
        pc = generate_scene(SceneSpec(shape="room", n_points=5000, seed=1000)).source
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
            tracemalloc.start()
            try:
                kernel()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, f"{name}: peak {peak / _MIB:.1f} MiB >= {bound / _MIB:.0f} MiB"
