"""hireg benchmark: seeded registration and training workloads.

    python3 perfbench/run.py --workload room-5k --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

One workload runs in one Python process. Set-up builds the run's input pairs
from ``--seed``, then one warm-up op; after that ops run back to back until
``--seconds`` have passed, each timed with tracing off and then checked
against ground truth outside the timer. ``--trace 1`` instead runs every op
twice on the same input, untraced and then traced, and reports per-layer self
time and exact work counts. ``--workload all`` runs every workload, untraced
and traced, each in its own process.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). The lines before it print every metric,
accuracy and failure accounting included, with its unit. Per-op records and
spans are written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = "1"
# Exact counters of this many leading ops are hashed, so two runs of the same
# code and seed can be compared bit for bit.
DIGEST_OPS = 4

# name: (unit, better). These are the end-to-end metrics of BENCHMARK.json.
END_TO_END = {
    "ops_per_s": ("op/s", "higher"),
    "op_s_p50": ("s", "lower"),
    "op_s_tail": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
# Printed on every run; the accuracy rows exist on registration workloads only.
REPORTED = {
    "failed_frac": ("ratio", "lower"),
    "rr": ("ratio", "higher"),
    "rre_deg_p50": ("deg", "lower"),
    "rte_m_p50": ("m", "lower"),
    "inlier_ratio_mean": ("ratio", "higher"),
    "repeatability_mean": ("ratio", "higher"),
}
# Per traced op. Times are self time (span duration minus child spans).
PER_LAYER = {
    "cloud.build_index_s": ("s", "lower"),
    "cloud.radius_s": ("s", "lower"),
    "cloud.knn_s": ("s", "lower"),
    "cloud.radius_calls": ("count", "lower"),
    "cloud.neighbours": ("count", "lower"),
    "descriptors.normals_s": ("s", "lower"),
    "descriptors.low_s": ("s", "lower"),
    "descriptors.high_s": ("s", "lower"),
    "descriptors.low_neighbours": ("count", "lower"),
    "descriptors.high_neighbours": ("count", "lower"),
    "descriptors.low_pairs": ("count", "lower"),
    "detectors.saliency_s": ("s", "lower"),
    "detectors.overlap_s": ("s", "lower"),
    "detectors.keypoints_s": ("s", "lower"),
    "detectors.overlap_evals": ("count", "lower"),
    "detectors.keypoint_shortfall": ("count", "lower"),
    "matching.coarse_match_s": ("s", "lower"),
    "matching.ransac_s": ("s", "lower"),
    "matching.ransac_iterations": ("count", "lower"),
    "matching.ransac_us_per_iteration": ("us", "lower"),
    "matching.ransac_inliers": ("count", "higher"),
    "matching.coarse_pairs": ("count", "higher"),
    "matching.coarse_inlier_frac": ("ratio", "higher"),
    "matching.cells_nonempty": ("count", "higher"),
    "matching.fine_s": ("s", "lower"),
    "matching.fine_pairs": ("count", "higher"),
    "matching.svd_s": ("s", "lower"),
    "training.batch_s": ("s", "lower"),
    "training.circle_global_s": ("s", "lower"),
    "training.circle_local_s": ("s", "lower"),
    "training.labels_s": ("s", "lower"),
    "training.rating_s": ("s", "lower"),
    "training.overlap_s": ("s", "lower"),
    "training.positives": ("count", "lower"),
    "training.local_negatives": ("count", "lower"),
    "training.global_negatives": ("count", "lower"),
    "training.anchors_used": ("count", "higher"),
    "training.anchors_skipped": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}
# Span name -> per-layer time metric; match_features is split by its caller.
_SPAN_METRIC = {
    "cloud.build_index": "cloud.build_index_s",
    "cloud.radius": "cloud.radius_s",
    "cloud.knn": "cloud.knn_s",
    "descriptors.normals": "descriptors.normals_s",
    "descriptors.low": "descriptors.low_s",
    "descriptors.high": "descriptors.high_s",
    "detectors.saliency": "detectors.saliency_s",
    "detectors.overlap": "detectors.overlap_s",
    "detectors.keypoints": "detectors.keypoints_s",
    "matching.local_cell_match": "matching.fine_s",
    "matching.select_fine_subset": "matching.fine_s",
    "training.batch": "training.batch_s",
    "training.circle_global": "training.circle_global_s",
    "training.circle_local": "training.circle_local_s",
    "training.labels": "training.labels_s",
    "training.rating": "training.rating_s",
    "training.overlap": "training.overlap_s",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least 10 samples
    beyond it. Below 21 samples that percentile lies under the median, so the
    median is reported until a run holds enough ops to resolve a tail."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0, n
    k = n - 11
    return ordered[k], 100.0 * k / (n - 1), n


def blas_threads() -> str:
    """Threads OpenBLAS reports, read from the library numpy loaded."""
    import ctypes

    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                           "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return str(getter())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def digest(records: list[dict]) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def end_to_end(outcomes, setup_s: float, accuracy: bool) -> tuple[dict, dict]:
    samples = [o.seconds for o in outcomes]
    failed = sum(o.failure is not None for o in outcomes)
    value, pct, n = tail(samples)
    metrics = {
        "ops_per_s": (n - failed) / sum(samples),
        "op_s_p50": statistics.median(samples),
        "op_s_tail": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "failed_frac": failed / n,
    }
    notes = {"op_s_tail": f"p{pct:.0f} of n={n}", "failed_frac": f"{failed} of {n}"}
    if accuracy:
        evaluated = [o.accuracy for o in outcomes if o.accuracy]
        registered = [a for a in evaluated if a["registered"]]
        metrics["rr"] = len(registered) / n
        if registered:
            metrics["rre_deg_p50"] = statistics.median(a["rre"] for a in registered)
            metrics["rte_m_p50"] = statistics.median(a["rte"] for a in registered)
        if evaluated:
            metrics["inlier_ratio_mean"] = statistics.fmean(a["inlier_ratio"] for a in evaluated)
            metrics["repeatability_mean"] = statistics.fmean(
                a["repeatability"] for a in evaluated)
    return metrics, notes


def layer_metrics(tracer, traced, untraced) -> tuple[dict, list[dict]]:
    """Per-op means of every per-layer metric, plus one summary row per op."""
    totals = dict.fromkeys(PER_LAYER, 0.0)
    rows = []
    for outcome, raw in traced:
        per_op = dict.fromkeys(PER_LAYER, 0.0)
        spans = tracer.self_times(outcome.op)
        parent_name = {id(span): (tracer.spans[span.parent].name
                                  if span.parent is not None else None)
                       for span, _ in spans}
        top_end = raw.start
        for span, self_s in spans:
            parent = parent_name[id(span)]
            if span.name == "matching.match_features":
                metric = ("matching.fine_s" if parent == "matching.local_cell_match"
                          else "matching.coarse_match_s")
                if metric == "matching.coarse_match_s":
                    per_op["matching.coarse_pairs"] += span.counts["pairs"]
            else:
                metric = _SPAN_METRIC.get(span.name)
            if metric is not None:
                per_op[metric] += self_s
            if span.name == "cloud.radius":
                per_op["cloud.radius_calls"] += 1
                per_op["cloud.neighbours"] += span.counts["neighbours"]
                if parent in ("descriptors.low", "descriptors.high"):
                    level = parent.split(".")[1]
                    per_op[f"descriptors.{level}_neighbours"] += span.counts["neighbours"]
                    if level == "low":
                        per_op["descriptors.low_pairs"] += span.counts["pairs"]
            elif span.name == "detectors.overlap":
                per_op["detectors.overlap_evals"] += span.counts["evals"]
            elif span.name == "detectors.keypoints":
                per_op["detectors.keypoint_shortfall"] += span.counts["shortfall"]
            elif span.name == "matching.local_cell_match" and span.counts["pairs"] > 0:
                per_op["matching.cells_nonempty"] += 1
            if span.parent is None:
                top_end = max(top_end, span.end)

        counters = outcome.counters
        program_s = 0.0
        if "ransac_iterations" in counters:
            if outcome.timings_ms:
                per_op["matching.ransac_s"] = outcome.timings_ms.get("ransac_ms", 0.0) / 1e3
                per_op["matching.svd_s"] = outcome.timings_ms.get("svd_ms", 0.0) / 1e3
            elif outcome.failure and outcome.failure.get("stage") == "coarse":
                # RANSAC is the last stage before a coarse failure is raised.
                per_op["matching.ransac_s"] = raw.end - top_end
            program_s = per_op["matching.ransac_s"] + per_op["matching.svd_s"]
            per_op["matching.ransac_iterations"] = counters["ransac_iterations"]
            per_op["matching.ransac_inliers"] = counters["ransac_inliers"]
            per_op["matching.fine_pairs"] = counters.get("fine_pairs", 0)
        if "positives" in counters:
            per_op["training.positives"] = counters["positives"]
            per_op["training.local_negatives"] = counters["local_negatives"]
            per_op["training.global_negatives"] = counters["global_negatives"]
            per_op["training.anchors_used"] = (counters["anchors_used_global"]
                                               + counters["anchors_used_local"])
            per_op["training.anchors_skipped"] = (counters["anchors_skipped_global"]
                                                  + counters["anchors_skipped_local"])
        self_sum = sum(s for _, s in spans)
        per_op["trace.unattributed_s"] = raw.seconds - self_sum - program_s
        rows.append({"op": outcome.op, "pair": outcome.pair, "wall_s": raw.seconds,
                     "self_s": self_sum, "program_timed_s": program_s,
                     "spans": len(spans), "per_op": per_op})
        for key in PER_LAYER:
            totals[key] += per_op[key]

    n = len(traced)
    metrics = {key: value / n for key, value in totals.items()}
    ransac_total = sum(r["per_op"]["matching.ransac_s"] for r in rows)
    iterations = totals["matching.ransac_iterations"]
    metrics["matching.ransac_us_per_iteration"] = ransac_total * 1e6 / iterations \
        if iterations else 0.0
    metrics["matching.coarse_inlier_frac"] = (totals["matching.ransac_inliers"]
                                              / totals["matching.coarse_pairs"]) \
        if totals["matching.coarse_pairs"] else 0.0
    metrics["trace.overhead_frac"] = (sum(o.seconds for o, _ in traced)
                                      / sum(o.seconds for o in untraced)) - 1.0
    return metrics, rows


def shares(metrics: dict, parts: tuple[str, ...]) -> tuple[dict, float]:
    """Each layer's share of traced op time, and the share held by ``parts``
    (metric-name prefixes such as ``descriptors`` or ``training.circle_global``)."""
    times = {key: value for key, value in metrics.items()
             if key.endswith("_s") and key != "trace.unattributed_s"}
    total = sum(times.values()) + metrics["trace.unattributed_s"]
    layers: dict[str, float] = {}
    for key, value in times.items():
        layer = key.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + value / total
    named = sum(value for key, value in times.items()
                if any(key.startswith(part + ".") or key == part + "_s" for part in parts))
    return layers, named / total


def set_up(args) -> tuple[object, list, float, dict]:
    """The workload, its prepared pairs and ``setup_s``: what a user pays
    once, namely the import, one prepared pair (median over the run's pairs)
    and one warm-up op."""
    setup_start = time.perf_counter()
    import hireg  # noqa: F401  (timed as part of set-up)

    import workloads
    import_s = time.perf_counter() - setup_start
    if not Path(hireg.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported hireg from {hireg.__file__}, not from {SRC}")

    workload = workloads.WORKLOADS[args.workload]
    scale = 0.3 if args.tiny else 1.0
    pairs, prepare_s = [], []
    for index in range(workload.pairs):
        tick = time.perf_counter()
        pairs.append(workload.prepare(args.seed, index, scale))
        prepare_s.append(time.perf_counter() - tick)
    warm = workload.execute(pairs[0], -1)
    setup_s = import_s + statistics.median(prepare_s) + warm.seconds
    detail = {"import_s": import_s, "prepare_s": prepare_s, "warmup_s": warm.seconds,
              "warmup": workload.check(pairs[0], 0, -1, warm)}
    return workload, pairs, setup_s, detail


def measure(workload, pairs, seconds: float, tracer) -> tuple[list, list]:
    """Ops back to back until ``seconds`` have passed (at least one). With a
    tracer, each op is repeated on the same input with the wrappers in place."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    op = 0
    while op == 0 or time.perf_counter() < deadline:
        index = op % len(pairs)
        raw = workload.execute(pairs[index], op)
        untraced.append(workload.check(pairs[index], index, op, raw))
        if tracer is not None:
            tracer.op = op
            try:
                tracer.install()
                raw = workload.execute(pairs[index], op)
            finally:
                tracer.remove()
            traced.append((workload.check(pairs[index], index, op, raw), raw))
        op += 1
    return untraced, traced


def nondeterministic_ops(workload, untraced, traced) -> list[int]:
    """Ops whose exact counters differ from an earlier run of the same input:
    a registration pair seen again, or the traced copy of an op."""
    first_seen: dict[int, dict] = {}
    ops = [o.op for o in untraced
           if first_seen.setdefault(workload.input_key(o.op), o.counters) != o.counters]
    return ops + [o.op for (o, _), base in zip(traced, untraced) if o.counters != base.counters]


def run_workload(args) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, BLAS_THREADS)
    if not (SRC / "hireg" / "__init__.py").is_file():
        fail(f"no hireg sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    workload, pairs, setup_s, setup = set_up(args)

    import tracing
    import workloads
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = measure(workload, pairs, args.seconds, tracer)

    everything = untraced + [o for o, _ in traced]
    failed = sum(o.failure is not None for o in everything)
    unexpected = [o.failure for o in everything + [setup.pop("warmup")] if o.unexpected]
    nondeterministic = nondeterministic_ops(workload, untraced, traced)
    correct = (not unexpected and not nondeterministic
               and (workload.tolerates_failures or failed == 0))

    e2e, notes = end_to_end(untraced, setup_s,
                            accuracy=isinstance(workload, workloads.RegisterWorkload))
    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "environment": environment(), "setup": setup, "end_to_end": e2e, "notes": notes,
        "failures": [o.failure for o in everything if o.failure is not None],
        "unexpected": unexpected, "nondeterministic_ops": nondeterministic,
        "counters_sha256": digest([o.counters for o in untraced[:DIGEST_OPS]]),
        "counters_ops": min(len(untraced), DIGEST_OPS),
    }
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  ({workload.why})")
    print("environment " + "  ".join(f"{k}={v}" for k, v in report["environment"].items()))
    print(f"setup: import {setup['import_s']:.3f} s, prepare median "
          f"{statistics.median(setup['prepare_s']):.3f} s over {len(pairs)} pairs, "
          f"warm-up op {setup['warmup_s']:.3f} s")
    for name, value in e2e.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<22} {value:14.6f} {(END_TO_END | REPORTED)[name][0]}{note}")
    for failure in report["failures"]:
        print(f"  failed op: {json.dumps(failure)}")

    OUT_DIR.mkdir(exist_ok=True)
    if tracer is not None:
        layers, rows = layer_metrics(tracer, traced, untraced)
        layer_shares, dominant_share = shares(layers, workload.dominant)
        report.update(per_layer=layers, trace_ops=rows, missing_hooks=tracer.missing,
                      layer_shares=layer_shares, dominant=workload.dominant,
                      dominant_share=dominant_share,
                      traced_counters_sha256=digest(
                          [o.counters for o, _ in traced[:DIGEST_OPS]]))
        print(f"traced ops {len(traced)}; missing hooks: {tracer.missing or 'none'}")
        print("layer shares of traced op time: " + "  ".join(
            f"{layer}={share:.1%}" for layer, share in sorted(layer_shares.items())))
        print(f"stated dominant part {'+'.join(workload.dominant)} holds {dominant_share:.1%}"
              f" of traced op time: {'as stated' if dominant_share > 0.5 else 'NOT dominant'}")
        for name, value in layers.items():
            print(f"  {name:<34} {value:16.6f} {PER_LAYER[name][0]}")
        with (OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl").open("w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(asdict(span)) + "\n")

    report_path = OUT_DIR / f"report-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report | {"ops": [vars(o) for o in everything]},
                                      indent=1, default=str) + "\n")
    print(f"correct {correct}: unexpected errors {len(unexpected)}, "
          f"nondeterministic ops {len(nondeterministic)}, failed ops {failed}; "
          f"counters {report['counters_sha256']} over {report['counters_ops']} ops")
    print("REPORT " + json.dumps({k: v for k, v in report.items() if k != "trace_ops"},
                                 default=str))

    chosen, values = (PER_LAYER, report["per_layer"]) if tracer else (END_TO_END, e2e)
    print(json.dumps({
        "correct": bool(correct), "attempted": len(everything), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in chosen.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                fail(f"{name} trace {trace} exited with {done.returncode}")
            results[name, trace] = json.loads(done.stdout.strip().splitlines()[-1])
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{name}.{metric}": value
                           for (name, _), r in results.items()
                           for metric, value in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


WORKLOAD_NAMES = ("room-5k", "sparse-outliers", "train-5k")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="scenes at 30%% of their points, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
