"""Command-line front end: register, bench, labels, losscheck, gen-scene.

Exit codes: 0 success, 1 validation error, 2 no consensus / no overlap,
3 numerical check failure. Every subcommand is reproducible from --seed and
produces byte-identical results to the equivalent library calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import io
from .config import RunConfig, load_config
from .descriptors import DescriptorSet, Level
from .errors import (
    DegenerateBatchError,
    DegenerateGeometryError,
    DegenerateScoreError,
    GenerationError,
    NoConsensusError,
    NoCorrespondenceError,
    ValidationError,
)
from .matching import RegistrationResult, register
from .metrics import BenchmarkReport, evaluate_pair
from .synth import SceneSpec, generate_scene
from .training import (
    NegativeMode,
    build_sample_batch,
    circle_loss,
    keypoint_rankings,
    matchability_labels,
    overlap_loss,
    rating_loss,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NO_CONSENSUS = 2
EXIT_NUMERICAL = 3

_CONSENSUS_ERRORS = (NoConsensusError, NoCorrespondenceError)
_VALIDATION_ERRORS = (ValidationError, GenerationError, DegenerateGeometryError,
                      DegenerateBatchError, DegenerateScoreError, FileNotFoundError,
                      json.JSONDecodeError)


def _threads() -> int:
    raw = os.environ.get("HIREG_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValidationError(f"HIREG_THREADS must be an integer >= 1, got {raw!r}")
    return threads


def _load_run_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return config


def _scene_spec_from_args(args) -> SceneSpec:
    return SceneSpec(
        shape=args.shape,
        n_points=args.points,
        overlap=args.overlap,
        noise_sigma=args.noise,
        outlier_fraction=args.outliers,
        seed=args.seed if args.seed is not None else 0,
    )


def _result_to_dict(result: RegistrationResult) -> dict:
    out = io.transform_to_dict(result.transform)
    out.update({
        "coarse_rotation": [float(v) for v in result.coarse_transform.rotation.reshape(-1)],
        "coarse_translation": [float(v) for v in result.coarse_transform.translation],
        "coarse_pairs": result.coarse.pairs.tolist(),
        "fine_pairs": result.fine.pairs.tolist(),
        "fine_weights": [float(w) for w in result.fine.weights],
        "inlier_count": result.inlier_count,
        "iterations_used": result.iterations_used,
        "timings_ms": {k: float(v) for k, v in result.timings_ms.items()},
    })
    return out


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_register(args) -> int:
    config = _load_run_config(args)
    source = io.load_cloud(args.src)
    target = io.load_cloud(args.tgt)
    result = register(source, target, config)
    _emit(json.dumps(_result_to_dict(result), indent=2) + "\n", args.out)
    return EXIT_OK


def _bench_pair(entry: dict, config: RunConfig, samples: int, pair_id: str):
    if "scene" in entry:
        try:
            spec = SceneSpec(**entry["scene"])
        except (TypeError, ValidationError) as exc:
            raise ValidationError(f"pair {pair_id}: bad scene: {exc}") from exc
        scene = generate_scene(spec)
        source, target, gt = scene.source, scene.target, scene.transform
    elif not {"src", "tgt", "gt"} <= entry.keys():
        raise ValidationError(f"pair {pair_id}: needs 'scene' or all of 'src', 'tgt', 'gt'")
    else:
        source = io.load_cloud(entry["src"])
        target = io.load_cloud(entry["tgt"])
        gt = io.load_transform(entry["gt"])
    config = replace(config, detector=replace(config.detector, coarse_samples=samples))
    result = register(source, target, config)
    m = config.metrics
    return evaluate_pair(
        pair_id, result.transform, gt, result.fine, source, target,
        result.source_keypoints, result.target_keypoints,
        tau=m.inlier_tau, fmr_threshold=m.fmr_threshold,
        repeat_radius=m.repeatability_radius,
        rre_max=m.rre_max_deg, rte_max=m.rte_max_m,
    )


def _parse_bench_spec(spec, source: str) -> tuple[list[dict], list[int] | None]:
    """The pair entries and the optional sample counts of a decoded spec.

    Only the document's shape is checked here; a bad entry fails as its pair.
    """
    if not isinstance(spec, dict):
        raise ValidationError(f"{source}: benchmark spec must be an object, "
                              f"got {type(spec).__name__}")
    entries = spec.get("pairs")
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"{source}: benchmark spec lists no pairs")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValidationError(f"{source}: pair {i} must be an object, "
                                  f"got {type(entry).__name__}")
        if not isinstance(entry.get("id", ""), str):
            raise ValidationError(f"{source}: pair {i} id must be a string")
    samples = spec.get("samples")
    if samples is not None and not (
            isinstance(samples, list) and samples
            and all(type(count) is int and count >= 1 for count in samples)):
        raise ValidationError(f"{source}: samples must be a nonempty list of integers >= 1")
    return entries, samples


def cmd_bench(args) -> int:
    workers = _threads()
    config = _load_run_config(args)
    entries, samples = _parse_bench_spec(json.loads(Path(args.spec).read_text()), args.spec)
    samples = args.samples or samples or [config.detector.coarse_samples]

    blocks: dict[int, list] = {}
    failures: list[dict] = []
    for count in samples:
        jobs = [(entry, config, count, entry.get("id", f"pair-{i}"))
                for i, entry in enumerate(entries)]
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_bench_pair, *job) for job in jobs]
            calls = [future.result for future in futures]
        else:  # serial: a failure aborts before the next pair runs
            calls = [partial(_bench_pair, *job) for job in jobs]
        rows = []
        for job, call in zip(jobs, calls):
            try:
                rows.append(call())
            except Exception as exc:
                if not args.keep_going:
                    raise
                failures.append({"pair": job[3], "samples": count,
                                 "error": f"{type(exc).__name__}: {exc}"})
        blocks[count] = rows
        if not blocks[count]:
            raise ValidationError(f"all pairs failed at sample count {count}")

    report = BenchmarkReport(blocks=blocks, config=config.to_dict(), failures=failures)
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
    print(report.to_text())
    return EXIT_OK


def _labels_descriptors(path, expect_level: Level, count: int) -> DescriptorSet:
    descriptors, _ = io.load_descriptors(path)
    if descriptors.level != expect_level:
        raise ValidationError(f"{path}: expected {expect_level.value}-level descriptors")
    if len(descriptors) != count:
        raise ValidationError(f"{path}: {len(descriptors)} rows for a {count}-point cloud")
    return descriptors


def cmd_labels(args) -> int:
    config = _load_run_config(args)
    source = io.load_cloud(args.src)
    target = io.load_cloud(args.tgt)
    gt = io.load_transform(args.gt)

    overrides = (args.desc_src_low, args.desc_src_high, args.desc_tgt_low, args.desc_tgt_high)
    if any(overrides) and not all(overrides):
        raise ValidationError("descriptor overrides require all four --desc-* paths")
    if all(overrides):
        src_low = _labels_descriptors(args.desc_src_low, Level.LOW, len(source))
        src_high = _labels_descriptors(args.desc_src_high, Level.HIGH, len(source))
        tgt_low = _labels_descriptors(args.desc_tgt_low, Level.LOW, len(target))
        tgt_high = _labels_descriptors(args.desc_tgt_high, Level.HIGH, len(target))
    else:
        from .cloud import build_index
        from .descriptors import compute_descriptors, estimate_normals
        src_index = build_index(source)
        tgt_index = build_index(target)
        src_normals = estimate_normals(source, config.descriptor.normal_radius, index=src_index)
        tgt_normals = estimate_normals(target, config.descriptor.normal_radius, index=tgt_index)
        src_low = compute_descriptors(source, Level.LOW, config.descriptor, src_normals, src_index)
        src_high = compute_descriptors(source, Level.HIGH, config.descriptor, src_normals, src_index)
        tgt_low = compute_descriptors(target, Level.LOW, config.descriptor, tgt_normals, tgt_index)
        tgt_high = compute_descriptors(target, Level.HIGH, config.descriptor, tgt_normals, tgt_index)

    batch = build_sample_batch(source, target, gt, config.sampling,
                               config.anchors, config.seed)
    high_bits, high_valid = matchability_labels(src_high, tgt_high, batch,
                                                NegativeMode.GLOBAL,
                                                config.positive_reduction)
    low_bits, low_valid = matchability_labels(src_low, tgt_low, batch,
                                              NegativeMode.LOCAL,
                                              config.positive_reduction)
    records = []
    for slot, anchor in enumerate(batch.anchors):
        if high_valid[slot] and low_valid[slot]:
            high_rank, low_rank = keypoint_rankings([int(high_bits[slot])],
                                                    [int(low_bits[slot])])
            records.append({
                "anchor": int(anchor),
                "m_high": int(high_bits[slot]),
                "m_low": int(low_bits[slot]),
                "r_high": int(high_rank[0]),
                "r_low": int(low_rank[0]),
            })
        else:
            missing = []
            if not high_valid[slot]:
                missing.append("high")
            if not low_valid[slot]:
                missing.append("low")
            records.append({
                "anchor": int(anchor),
                "skipped_reason": f"empty sample set at level(s): {','.join(missing)}",
            })
    text = "\n".join(json.dumps(record) for record in records) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _losscheck_instance(rng: np.random.Generator):
    """One random loss-check instance: features, batch geometry, predictions."""
    from .training import SampleBatch

    n_anchor = 6
    n_target = 40
    dim = 4
    f_src = rng.normal(size=(n_anchor, dim))
    f_src /= np.linalg.norm(f_src, axis=1, keepdims=True)
    f_tgt = rng.normal(size=(n_target, dim))
    f_tgt /= np.linalg.norm(f_tgt, axis=1, keepdims=True)
    positives, local_neg, global_neg = [], [], []
    pool = np.arange(n_target)
    for _ in range(n_anchor):
        chosen = rng.choice(pool, size=9, replace=False)
        positives.append(chosen[:3])
        local_neg.append(chosen[3:6])
        global_neg.append(chosen[6:])
    batch = SampleBatch(
        anchors=np.arange(n_anchor, dtype=np.intp),
        positives=tuple(positives),
        local_negatives=tuple(local_neg),
        global_negatives=tuple(global_neg),
        requested=n_anchor,
        eligible=n_anchor,
    )
    return f_src, f_tgt, batch


def _scalar_circle_loss(f_src, f_tgt, batch, mode, params) -> float:
    """Independent slow evaluation of the contrastive loss (python loops)."""
    import math

    negs = batch.negatives(mode)
    total, used = 0.0, 0
    for slot in range(len(batch)):
        pos = batch.positives[slot]
        neg = negs[slot]
        if len(pos) == 0 or len(neg) == 0:
            continue
        a = f_src[batch.anchors[slot]]
        sum_p = 0.0
        for j in pos:
            d = math.dist(a, f_tgt[j])
            gap = d - params.positive_margin
            beta = params.scale if params.weighting == "constant" \
                else params.scale * max(gap, 0.0)
            sum_p += math.exp(beta * gap)
        sum_n = 0.0
        for kk in neg:
            d = math.dist(a, f_tgt[kk])
            gap = params.negative_margin - d
            beta = params.scale if params.weighting == "constant" \
                else params.scale * max(gap, 0.0)
            sum_n += math.exp(beta * gap)
        total += math.log(1.0 + sum_p * sum_n)
        used += 1
    return total / used


def _fd_gradient(fn, array: np.ndarray, coords, h: float = 1e-5) -> np.ndarray:
    out = np.zeros(len(coords))
    for slot, (i, j) in enumerate(coords):
        bumped = array.copy()
        bumped[i, j] += h
        up = fn(bumped)
        bumped[i, j] -= 2 * h
        down = fn(bumped)
        out[slot] = (up - down) / (2 * h)
    return out


def run_losscheck(seed: int, corrupt: bool = False) -> tuple[dict[str, float], bool]:
    """All loss/gradient self-checks; returns (max relative errors, all_ok)."""
    from .training import CircleLossParams, TargetScores

    rng = np.random.default_rng(seed)
    params = CircleLossParams()
    targets = TargetScores()
    errors = {
        "circle_global_value": 0.0, "circle_local_value": 0.0,
        "circle_global_grad": 0.0, "circle_local_grad": 0.0,
        "rating_value": 0.0, "rating_grad": 0.0,
        "overlap_grad": 0.0,
    }

    for trial in range(5):
        f_src, f_tgt, batch = _losscheck_instance(rng)
        for mode in (NegativeMode.GLOBAL, NegativeMode.LOCAL):
            result = circle_loss(f_src, f_tgt, batch, mode, params)
            reference = _scalar_circle_loss(f_src, f_tgt, batch, mode, params)
            value_err = abs(result.loss - reference) / max(abs(reference), 1e-12)
            errors[f"circle_{mode.value}_value"] = max(
                errors[f"circle_{mode.value}_value"], value_err)

            grad = result.grad_source if corrupt is False else result.grad_source + 1e-3
            coords = [(int(rng.integers(f_src.shape[0])), int(rng.integers(f_src.shape[1])))
                      for _ in range(10)]
            fd = _fd_gradient(
                lambda arr: circle_loss(arr, f_tgt, batch, mode, params).loss, f_src, coords)
            analytic = np.array([grad[i, j] for i, j in coords])
            rel = np.abs(analytic - fd) / np.maximum.reduce(
                [np.abs(fd), np.abs(analytic), np.full_like(fd, 1e-6)])
            errors[f"circle_{mode.value}_grad"] = max(
                errors[f"circle_{mode.value}_grad"], float(rel.max()))

        scores = rng.uniform(0.05, 0.95, size=32)
        ranks = rng.integers(0, 4, size=32)
        loss, grad = rating_loss(scores, ranks, targets)
        reference = sum((s - targets.as_array()[r]) ** 2 for s, r in zip(scores, ranks)) / 32
        errors["rating_value"] = max(errors["rating_value"],
                                     abs(loss - reference) / max(abs(reference), 1e-12))
        coords = [int(rng.integers(32)) for _ in range(10)]
        fd = []
        for i in coords:
            bumped = scores.copy()
            bumped[i] += 1e-5
            up, _ = rating_loss(bumped, ranks, targets)
            bumped[i] -= 2e-5
            down, _ = rating_loss(bumped, ranks, targets)
            fd.append((up - down) / 2e-5)
        analytic = grad[coords] if not corrupt else grad[coords] + 1e-3
        rel = np.abs(analytic - np.array(fd)) / np.maximum.reduce(
            [np.abs(np.array(fd)), np.abs(analytic), np.full(len(fd), 1e-6)])
        errors["rating_grad"] = max(errors["rating_grad"], float(rel.max()))

        pred = rng.uniform(0.05, 0.95, size=32)
        labels = rng.integers(0, 2, size=32)
        _, grad = overlap_loss(pred, labels)
        fd = []
        for i in coords:
            bumped = pred.copy()
            bumped[i] += 1e-5
            up, _ = overlap_loss(bumped, labels)
            bumped[i] -= 2e-5
            down, _ = overlap_loss(bumped, labels)
            fd.append((up - down) / 2e-5)
        analytic = grad[coords] if not corrupt else grad[coords] + 1e-3
        rel = np.abs(analytic - np.array(fd)) / np.maximum.reduce(
            [np.abs(np.array(fd)), np.abs(analytic), np.full(len(fd), 1e-6)])
        errors["overlap_grad"] = max(errors["overlap_grad"], float(rel.max()))

    ok = (errors["circle_global_value"] < 1e-10 and errors["circle_local_value"] < 1e-10
          and errors["rating_value"] < 1e-10
          and all(errors[k] < 1e-4 for k in errors if k.endswith("_grad")))
    return errors, ok


def cmd_losscheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    errors, ok = run_losscheck(seed, corrupt=args.corrupt)
    for name in sorted(errors):
        print(f"{name:24s} max rel err {errors[name]:.3e}")
    if not ok:
        worst = max(errors, key=lambda k: errors[k])
        print(f"FAIL: {worst} exceeded tolerance", file=sys.stderr)
        return EXIT_NUMERICAL
    print("all loss checks passed")
    return EXIT_OK


def cmd_gen_scene(args) -> int:
    scene = generate_scene(_scene_spec_from_args(args))
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    suffix = ".xyz" if args.format == "xyz" else ".ply"
    io.save_cloud(str(prefix) + "_src" + suffix, scene.source)
    io.save_cloud(str(prefix) + "_tgt" + suffix, scene.target)
    io.save_transform(str(prefix) + "_gt.json", scene.transform)
    mask_payload = {
        "overlap_mask": scene.overlap_mask.astype(int).tolist(),
        "target_index_of_source": scene.target_index_of_source.tolist(),
    }
    Path(str(prefix) + "_mask.json").write_text(json.dumps(mask_payload) + "\n")
    print(f"wrote {prefix}_src{suffix}, {prefix}_tgt{suffix}, "
          f"{prefix}_gt.json, {prefix}_mask.json")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hireg",
                                     description="hierarchical point cloud registration")
    sub = parser.add_subparsers(dest="command", required=True)

    p_reg = sub.add_parser("register", help="register two clouds")
    p_reg.add_argument("--src", required=True)
    p_reg.add_argument("--tgt", required=True)
    p_reg.add_argument("--config")
    p_reg.add_argument("--seed", type=int)
    p_reg.add_argument("--out")
    p_reg.set_defaults(func=cmd_register)

    p_bench = sub.add_parser("bench", help="run a benchmark spec")
    p_bench.add_argument("--spec", required=True)
    p_bench.add_argument("--samples", type=int, nargs="+")
    p_bench.add_argument("--config")
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--out")
    p_bench.add_argument("--keep-going", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    p_labels = sub.add_parser("labels", help="emit per-anchor matchability labels")
    p_labels.add_argument("--src", required=True)
    p_labels.add_argument("--tgt", required=True)
    p_labels.add_argument("--gt", required=True)
    p_labels.add_argument("--config")
    p_labels.add_argument("--seed", type=int)
    p_labels.add_argument("--out")
    p_labels.add_argument("--desc-src-low")
    p_labels.add_argument("--desc-src-high")
    p_labels.add_argument("--desc-tgt-low")
    p_labels.add_argument("--desc-tgt-high")
    p_labels.set_defaults(func=cmd_labels)

    p_check = sub.add_parser("losscheck", help="loss value and gradient self-checks")
    p_check.add_argument("--seed", type=int)
    p_check.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p_check.set_defaults(func=cmd_losscheck)

    p_gen = sub.add_parser("gen-scene", help="generate a synthetic pair")
    p_gen.add_argument("--shape", default="room", choices=("plane", "box", "room"))
    p_gen.add_argument("--points", type=int, default=5000)
    p_gen.add_argument("--overlap", type=float, default=0.7)
    p_gen.add_argument("--noise", type=float, default=0.005)
    p_gen.add_argument("--outliers", type=float, default=0.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--format", default="ply", choices=("ply", "xyz"))
    p_gen.add_argument("--out-prefix", required=True)
    p_gen.set_defaults(func=cmd_gen_scene)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONSENSUS_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONSENSUS
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
