"""Command-line behavior: exit codes, file outputs, library equivalence."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hireg import (
    DescriptorSet,
    Level,
    PointCloud,
    RigidTransform,
    RunConfig,
    SceneSpec,
    generate_scene,
    register,
)
from hireg import io
from hireg.cli import main

SRC_ROOT = str(Path(__file__).resolve().parent.parent / "src")


def write_identity_pair(tmp_path, rng, n=600):
    scene = generate_scene(SceneSpec(shape="room", n_points=n, overlap=1.0,
                                     noise_sigma=0.0, seed=8,
                                     transform=RigidTransform.identity()))
    src = tmp_path / "src.ply"
    tgt = tmp_path / "tgt.ply"
    io.save_ply(src, scene.source)
    io.save_ply(tgt, scene.target)
    gt = tmp_path / "gt.json"
    io.save_transform(gt, scene.transform)
    return src, tgt, gt


class TestRegisterCommand:
    def test_identity_pair_success(self, tmp_path, rng):
        src, tgt, _ = write_identity_pair(tmp_path, rng)
        out = tmp_path / "result.json"
        code = main(["register", "--src", str(src), "--tgt", str(tgt),
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        rotation = np.array(result["rotation"]).reshape(3, 3)
        assert np.abs(rotation - np.eye(3)).max() < 1e-6
        assert np.abs(np.array(result["translation"])).max() < 1e-6
        assert result["inlier_count"] > 0
        assert "timings_ms" in result

    def test_zero_overlap_exits_two(self, tmp_path, rng):
        a = PointCloud(rng.uniform(0, 0.8, size=(400, 3)))
        b = PointCloud(rng.uniform(40, 40.8, size=(400, 3)))
        src = tmp_path / "a.xyz"
        tgt = tmp_path / "b.xyz"
        io.save_xyz(src, a)
        io.save_xyz(tgt, b)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ransac": {"max_iterations": 2000}}))
        code = main(["register", "--src", str(src), "--tgt", str(tgt),
                     "--config", str(config), "--seed", "0"])
        assert code == 2

    def test_missing_file_exits_one(self, tmp_path):
        code = main(["register", "--src", str(tmp_path / "nope.ply"),
                     "--tgt", str(tmp_path / "nope.ply")])
        assert code == 1

    def test_cli_matches_library_bit_exact(self, tmp_path, rng):
        scene = generate_scene(SceneSpec(shape="room", n_points=900, overlap=0.85,
                                         noise_sigma=0.003, seed=21))
        src = tmp_path / "s.ply"
        tgt = tmp_path / "t.ply"
        io.save_ply(src, scene.source)
        io.save_ply(tgt, scene.target)
        out = tmp_path / "r.json"
        assert main(["register", "--src", str(src), "--tgt", str(tgt),
                     "--seed", "21", "--out", str(out)]) == 0
        cli_result = json.loads(out.read_text())

        lib = register(io.load_ply(src), io.load_ply(tgt), RunConfig(seed=21))
        assert cli_result["rotation"] == [float(v) for v in lib.transform.rotation.reshape(-1)]
        assert cli_result["translation"] == [float(v) for v in lib.transform.translation]
        assert cli_result["fine_pairs"] == lib.fine.pairs.tolist()
        assert cli_result["inlier_count"] == lib.inlier_count


def line_cloud(n, spacing=0.07):
    return PointCloud(np.array([[i * spacing, 0.0, 0.0] for i in range(n)]))


def distinct_descriptors(n, dim, level, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return DescriptorSet(level, rows)


class TestLabelsCommand:
    def _write_pair(self, tmp_path, cloud):
        src = tmp_path / "src.xyz"
        tgt = tmp_path / "tgt.xyz"
        io.save_xyz(src, cloud)
        io.save_xyz(tgt, cloud)
        gt = tmp_path / "gt.json"
        io.save_transform(gt, RigidTransform.identity())
        return src, tgt, gt

    def _dump_descriptors(self, tmp_path, name, descs):
        path = tmp_path / name
        io.save_descriptors(path, descs)
        return str(path)

    def test_identity_scene_all_threes(self, tmp_path):
        n = 30
        cloud = line_cloud(n)
        src, tgt, gt = self._write_pair(tmp_path, cloud)
        low = distinct_descriptors(n, 8, Level.LOW, seed=1)
        high = distinct_descriptors(n, 8, Level.HIGH, seed=2)
        out = tmp_path / "labels.jsonl"
        code = main([
            "labels", "--src", str(src), "--tgt", str(tgt), "--gt", str(gt),
            "--seed", "0", "--out", str(out),
            "--desc-src-low", self._dump_descriptors(tmp_path, "sl.hdrg", low),
            "--desc-src-high", self._dump_descriptors(tmp_path, "sh.hdrg", high),
            "--desc-tgt-low", self._dump_descriptors(tmp_path, "tl.hdrg", low),
            "--desc-tgt-high", self._dump_descriptors(tmp_path, "th.hdrg", high),
        ])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == n
        for record in records:
            assert "skipped_reason" not in record
            assert record["m_high"] == 1 and record["m_low"] == 1
            assert record["r_high"] == 3 and record["r_low"] == 3

    def test_crafted_anchor_reports_one_two(self, tmp_path):
        # One anchor whose low-level match succeeds while its high-level
        # match fails: a global negative carries an identical high descriptor.
        n = 30
        anchor = 15
        cloud = line_cloud(n)
        src, tgt, gt = self._write_pair(tmp_path, cloud)

        low = distinct_descriptors(n, 8, Level.LOW, seed=3)
        src_high = distinct_descriptors(n, 8, Level.HIGH, seed=4)
        tgt_high_rows = src_high.vectors.copy()
        # move the anchor's own (positive) high descriptor away ...
        swapped = np.zeros(8)
        swapped[0] = 1.0
        if abs(np.dot(swapped, src_high.vectors[anchor])) > 0.9:
            swapped = np.zeros(8)
            swapped[1] = 1.0
        tgt_high_rows[anchor] = swapped
        # ... and plant its exact high descriptor on a far-away point
        far = 0  # distance 15 * 0.07 = 1.05 m from the anchor: a global negative
        tgt_high_rows[far] = src_high.vectors[anchor]
        tgt_high = DescriptorSet(Level.HIGH, tgt_high_rows)

        out = tmp_path / "labels.jsonl"
        code = main([
            "labels", "--src", str(src), "--tgt", str(tgt), "--gt", str(gt),
            "--seed", "0", "--out", str(out),
            "--desc-src-low", self._dump_descriptors(tmp_path, "sl.hdrg", low),
            "--desc-src-high", self._dump_descriptors(tmp_path, "sh.hdrg", src_high),
            "--desc-tgt-low", self._dump_descriptors(tmp_path, "tl.hdrg", low),
            "--desc-tgt-high", self._dump_descriptors(tmp_path, "th.hdrg", tgt_high),
        ])
        assert code == 0
        records = {r["anchor"]: r for r in
                   (json.loads(line) for line in out.read_text().splitlines())}
        target = records[anchor]
        assert (target["m_high"], target["m_low"]) == (0, 1)
        assert (target["r_high"], target["r_low"]) == (1, 2)

    def test_skipped_anchor_accounting(self, tmp_path):
        # 3-point line: the far point has no local negatives and must be
        # reported as skipped, leaving n_p - skipped full records.
        points = PointCloud(np.array([[0.0, 0.0, 0.0], [0.07, 0.0, 0.0],
                                      [0.2, 0.0, 0.0]]))
        src, tgt, gt = self._write_pair(tmp_path, points)
        low = distinct_descriptors(3, 6, Level.LOW, seed=5)
        high = distinct_descriptors(3, 6, Level.HIGH, seed=6)
        out = tmp_path / "labels.jsonl"
        code = main([
            "labels", "--src", str(src), "--tgt", str(tgt), "--gt", str(gt),
            "--seed", "0", "--out", str(out),
            "--desc-src-low", self._dump_descriptors(tmp_path, "sl.hdrg", low),
            "--desc-src-high", self._dump_descriptors(tmp_path, "sh.hdrg", high),
            "--desc-tgt-low", self._dump_descriptors(tmp_path, "tl.hdrg", low),
            "--desc-tgt-high", self._dump_descriptors(tmp_path, "th.hdrg", high),
        ])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 3
        skipped = [r for r in records if "skipped_reason" in r]
        labeled = [r for r in records if "skipped_reason" not in r]
        assert len(skipped) == 1 and skipped[0]["anchor"] == 2
        assert "low" in skipped[0]["skipped_reason"]
        assert len(labeled) == 3 - len(skipped)

    def test_zero_overlap_exits_two(self, tmp_path):
        a = PointCloud(np.zeros((2, 3)) + [[0, 0, 0], [1, 0, 0]])
        b = PointCloud(np.full((2, 3), 30.0))
        src = tmp_path / "a.xyz"
        tgt = tmp_path / "b.xyz"
        io.save_xyz(src, a)
        io.save_xyz(tgt, b)
        gt = tmp_path / "gt.json"
        io.save_transform(gt, RigidTransform.identity())
        assert main(["labels", "--src", str(src), "--tgt", str(tgt),
                     "--gt", str(gt)]) == 2

    def test_partial_override_rejected(self, tmp_path):
        cloud = line_cloud(5)
        src, tgt, gt = self._write_pair(tmp_path, cloud)
        low = distinct_descriptors(5, 4, Level.LOW)
        code = main(["labels", "--src", str(src), "--tgt", str(tgt), "--gt", str(gt),
                     "--desc-src-low", self._dump_descriptors(tmp_path, "sl.hdrg", low)])
        assert code == 1


class TestLosscheckCommand:
    def test_default_run_passes(self, capsys):
        assert main(["losscheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "all loss checks passed" in out

    def test_corrupted_gradient_fails(self, capsys):
        assert main(["losscheck", "--seed", "0", "--corrupt"]) == 3
        err = capsys.readouterr().err
        assert "exceeded tolerance" in err

    def test_deterministic_output(self, capsys):
        main(["losscheck", "--seed", "5"])
        first = capsys.readouterr().out
        main(["losscheck", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second


class TestGenSceneCommand:
    def test_writes_all_artifacts(self, tmp_path):
        prefix = tmp_path / "scene"
        code = main(["gen-scene", "--shape", "room", "--points", "500",
                     "--overlap", "0.8", "--noise", "0.002", "--seed", "4",
                     "--out-prefix", str(prefix)])
        assert code == 0
        src = io.load_ply(f"{prefix}_src.ply")
        tgt = io.load_ply(f"{prefix}_tgt.ply")
        gt = io.load_transform(f"{prefix}_gt.json")
        mask = json.loads(Path(f"{prefix}_mask.json").read_text())
        assert len(src) == 500
        assert len(mask["overlap_mask"]) == 500
        assert sum(mask["overlap_mask"]) == len(tgt)
        # regenerate in-process and compare: CLI must equal the library
        scene = generate_scene(SceneSpec(shape="room", n_points=500, overlap=0.8,
                                         noise_sigma=0.002, seed=4))
        np.testing.assert_allclose(src.points, scene.source.points, atol=1e-7)
        np.testing.assert_allclose(gt.rotation, scene.transform.rotation, atol=1e-12)

    def test_unreachable_overlap_exits_one(self, tmp_path):
        code = main(["gen-scene", "--shape", "plane", "--points", "300",
                     "--overlap", "0.9", "--noise", "0.9", "--seed", "0",
                     "--out-prefix", str(tmp_path / "bad")])
        assert code == 1


class TestBenchCommand:
    def _spec_file(self, tmp_path, n_pairs=3, n_points=700):
        pairs = [{"id": f"easy-{i}",
                  "scene": {"shape": "room", "n_points": n_points, "overlap": 0.9,
                            "noise_sigma": 0.002, "seed": 100 + i}}
                 for i in range(n_pairs)]
        spec = tmp_path / "bench.json"
        spec.write_text(json.dumps({"pairs": pairs}))
        return spec

    def test_easy_pairs_full_recall(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path, n_pairs=10)
        out = tmp_path / "report.json"
        code = main(["bench", "--spec", str(spec), "--samples", "120",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["blocks"]["120"]["aggregate"]["RR"] == 1.0
        text = capsys.readouterr().out
        assert "RR" in text

    def test_block_per_sample_count(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path, n_pairs=2)
        out = tmp_path / "report.json"
        code = main(["bench", "--spec", str(spec), "--samples", "80", "160",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report["blocks"]) == {"80", "160"}
        header = capsys.readouterr().out.splitlines()[0]
        assert "80" in header and "160" in header

    def test_empty_spec_exits_one(self, tmp_path):
        spec = tmp_path / "empty.json"
        spec.write_text(json.dumps({"pairs": []}))
        assert main(["bench", "--spec", str(spec)]) == 1

    # The threaded and the serial path share one failure accounting; each
    # test runs both.
    def test_keep_going_records_failures(self, tmp_path, monkeypatch):
        pairs = [{"id": "good",
                  "scene": {"shape": "room", "n_points": 700, "overlap": 0.9,
                            "noise_sigma": 0.002, "seed": 101}},
                 {"id": "broken", "src": "missing.ply", "tgt": "missing.ply",
                  "gt": "missing.json"}]
        spec = tmp_path / "bench.json"
        spec.write_text(json.dumps({"pairs": pairs}))
        for threads in ("1", "2"):
            monkeypatch.setenv("HIREG_THREADS", threads)
            out = tmp_path / f"report-{threads}.json"
            code = main(["bench", "--spec", str(spec), "--samples", "120",
                         "--seed", "0", "--out", str(out), "--keep-going"])
            assert code == 0, threads
            report = json.loads(out.read_text())
            assert len(report["failures"]) == 1, threads
            assert report["failures"][0]["pair"] == "broken"
            assert report["failures"][0]["error"].startswith("FileNotFoundError")
            assert len(report["blocks"]["120"]["pairs"]) == 1

    def test_failure_without_keep_going_aborts(self, tmp_path, monkeypatch):
        pairs = [{"id": "broken", "src": "missing.ply", "tgt": "missing.ply",
                  "gt": "missing.json"}]
        spec = tmp_path / "bench.json"
        spec.write_text(json.dumps({"pairs": pairs}))
        for threads in ("1", "2"):
            monkeypatch.setenv("HIREG_THREADS", threads)
            out = tmp_path / f"report-{threads}.json"
            assert main(["bench", "--spec", str(spec), "--samples", "60",
                         "--out", str(out)]) == 1, threads
            assert not out.exists()

    @pytest.mark.parametrize("entry", [
        {"id": "typo", "scene": {"shape": "room", "n_point": 700}},
        {"id": "typo", "src": "a.ply", "gt": "gt.json"},
    ], ids=["unknown-scene-key", "no-scene-no-files"])
    def test_bad_entry_is_a_validation_error(self, tmp_path, capsys, entry):
        good = {"id": "good",
                "scene": {"shape": "room", "n_points": 700, "overlap": 0.9,
                          "noise_sigma": 0.002, "seed": 101}}
        spec = tmp_path / "bench.json"
        spec.write_text(json.dumps({"pairs": [entry]}))
        assert main(["bench", "--spec", str(spec), "--samples", "60"]) == 1
        assert capsys.readouterr().err.startswith("error: pair typo: ")

        spec.write_text(json.dumps({"pairs": [good, entry]}))
        out = tmp_path / "report.json"
        assert main(["bench", "--spec", str(spec), "--samples", "120", "--seed", "0",
                     "--out", str(out), "--keep-going"]) == 0
        failures = json.loads(out.read_text())["failures"]
        assert [f["pair"] for f in failures] == ["typo"]
        assert failures[0]["error"].startswith("ValidationError: pair typo: ")

    @pytest.mark.parametrize("scene", [
        {"shape": "room", "n_points": 700.5, "seed": 1},
        {"shape": "room", "n_points": 700, "seed": 1.5},
        {"shape": "room", "n_points": 0, "seed": 1},
    ], ids=["n-points-float", "seed-float", "n-points-zero"])
    def test_bad_scene_value_exits_one(self, tmp_path, capsys, scene):
        spec = tmp_path / "bench.json"
        spec.write_text(json.dumps({"pairs": [{"id": "typo", "scene": scene}]}))
        assert main(["bench", "--spec", str(spec), "--samples", "60"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pair typo: bad scene: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec, message", [
        ([{"scene": {"shape": "room"}}], "benchmark spec must be an object, got list"),
        ({"pairs": ["a"]}, "pair 0 must be an object, got str"),
        ({"pairs": [{"scene": {}}], "samples": "80"}, "samples must be a nonempty list"),
        ({"pairs": [{"scene": {}}], "samples": [80, True]}, "samples must be a nonempty list"),
        ({"pairs": [{"id": ["a"], "scene": {}}]}, "pair 0 id must be a string"),
    ], ids=["spec-is-list", "pair-not-object", "samples-not-int-list", "samples-bool",
            "id-not-string"])
    def test_malformed_spec_exits_one(self, tmp_path, capsys, spec, message):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(spec))
        assert main(["bench", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_threads_value_exits_one(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("HIREG_THREADS", value)
        spec = self._spec_file(tmp_path, n_pairs=1)
        assert main(["bench", "--spec", str(spec), "--samples", "60"]) == 1
        assert "HIREG_THREADS" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_dash_m_losscheck(self):
        env = dict(os.environ, PYTHONPATH=SRC_ROOT)
        proc = subprocess.run([sys.executable, "-m", "hireg", "losscheck", "--seed", "2"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "all loss checks passed" in proc.stdout

    def test_threads_env_accepted(self, tmp_path):
        spec = tmp_path / "bench.json"
        spec.write_text(json.dumps({"pairs": [
            {"id": "p", "scene": {"shape": "box", "n_points": 500, "overlap": 0.9,
                                  "noise_sigma": 0.002, "seed": 7}}]}))
        env_value = os.environ.get("HIREG_THREADS")
        os.environ["HIREG_THREADS"] = "2"
        try:
            code = main(["bench", "--spec", str(spec), "--samples", "80", "--seed", "0"])
        finally:
            if env_value is None:
                os.environ.pop("HIREG_THREADS", None)
            else:
                os.environ["HIREG_THREADS"] = env_value
        assert code == 0
