"""Smoke test of the benchmark at tiny scene sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced with ``--tiny --seconds 0``
(one op each) and checks the printed metrics, the traced self times, the
exact counters and the agreement with BENCHMARK.json.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 1
REGISTRATION = ("room-5k", "sparse-outliers")
ACCURACY = ("rr", "rre_deg_p50", "rte_m_p50", "inlier_ratio_mean", "repeatability_mean")


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600, check=False)


def _sections(stdout: str) -> dict[tuple[str, int], str]:
    """Output of ``--workload all`` split per (workload, trace) run."""
    sections, key = {}, None
    for line in stdout.splitlines():
        match = re.match(r"workload (\S+)\s+seed \d+\s+seconds \S+\s+trace (\d)", line)
        if match:
            key = (match.group(1), int(match.group(2)))
            sections[key] = ""
        if key is not None:
            sections[key] += line + "\n"
    return sections


def _report(section: str) -> dict:
    line = next(l for l in section.splitlines() if l.startswith("REPORT "))
    return json.loads(line[len("REPORT "):])


@pytest.fixture(scope="module")
def everything() -> str:
    """Output of every per-workload run; the combined summary line is checked here."""
    done = _bench("--workload", "all", "--seed", str(SEED), "--seconds", "0", "--tiny")
    assert done.returncode == 0, done.stderr
    *runs, combined = done.stdout.strip().splitlines()
    summary = json.loads(combined)
    assert summary["attempted"] >= 3 * len(run.WORKLOAD_NAMES)
    assert f"train-5k.{next(iter(run.PER_LAYER))}" in summary["metrics"]
    return "\n".join(runs) + "\n"


def test_every_workload_prints_every_end_to_end_metric_with_unit(everything):
    sections = _sections(everything)
    assert set(sections) == {(w, t) for w in run.WORKLOAD_NAMES for t in (0, 1)}
    for workload in run.WORKLOAD_NAMES:
        text = sections[workload, 0]
        names = list(run.END_TO_END) + ["failed_frac"]
        if workload in REGISTRATION:
            names += list(ACCURACY)
        for name in names:
            unit = (run.END_TO_END | run.REPORTED)[name][0]
            assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b", text, re.M), \
                f"{workload}: {name} [{unit}] not printed"
        result = json.loads(text.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["metrics"] == {
            name: {"value": result["metrics"][name]["value"], "unit": unit}
            for name, (unit, _) in run.END_TO_END.items()}


def test_traced_self_time_fits_in_op_wall_time(everything):
    for workload in run.WORKLOAD_NAMES:
        section = _sections(everything)[workload, 1]
        report = _report(section)
        assert report["missing_hooks"] == []
        rows = json.loads((run.OUT_DIR / f"report-{workload}-seed{SEED}-trace1.json")
                          .read_text())["trace_ops"]
        assert rows
        for row in rows:
            assert row["self_s"] <= row["wall_s"]
            assert row["self_s"] + row["program_timed_s"] <= row["wall_s"]
        result = json.loads(section.strip().splitlines()[-1])
        assert set(result["metrics"]) == set(run.PER_LAYER)


def test_exact_counters_repeat_across_runs(everything):
    first = _report(_sections(everything)["room-5k", 0])
    again = _bench("--workload", "room-5k", "--seed", str(SEED), "--seconds", "0", "--tiny")
    assert again.returncode == 0, again.stderr
    second = _report(_sections(again.stdout)["room-5k", 0])
    assert first["counters_sha256"] == second["counters_sha256"]
    for workload in run.WORKLOAD_NAMES:
        assert _report(_sections(everything)[workload, 1])["nondeterministic_ops"] == []


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "room-5k",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180, check=False)
    assert done.returncode != 0
    assert done.stdout == ""
