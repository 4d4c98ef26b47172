"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest -q perfbench

Each workload runs once untraced and once traced with small configs; the
result must name exactly the metrics BENCHMARK.json lists and pass the
correctness gate.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _run(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(workload, trace, seed):
    proc = _run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    return result["metrics"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_untraced(workload):
    metrics = _result(workload, 0, 3)
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_traced_counts_repeat(workload):
    first, second = _result(workload, 1, 3), _result(workload, 1, 4)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes", "points")]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["jets.mul.calls"]["value"] > 0


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("solve-cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gate_tolerances():
    key = "solve/ellipsoid/r5"
    ref = reference.load("solve-cold")[key]["report"]
    same = json.loads(json.dumps(ref))
    assert reference.compare(same, ref) == ([], 0.0)

    near = json.loads(json.dumps(ref))
    near["sections"]["solve"]["min_eps_gap"] *= 1 + 1e-7       # inside rel 1e-6
    near["sections"]["solve"]["max_residual"] += 5e-8          # inside abs 1e-7
    mismatches, drift = reference.compare(near, ref)
    assert mismatches == [] and 0 < drift <= 1

    far = json.loads(json.dumps(ref))
    far["sections"]["solve"]["min_eps_gap"] *= 1 + 1e-5
    assert reference.compare(far, ref)[0] == [("sections", "solve", "min_eps_gap")]

    flipped = json.loads(json.dumps(ref))
    flipped["sections"]["truth"]["passed"] = False
    assert reference.compare(flipped, ref)[0] == [("sections", "truth", "passed")]
