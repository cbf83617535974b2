"""Tests of the benchmark itself, on smoke-sized inputs.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["eval_pool", "match_dense", "meeting_rescue"]


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_workloads_exist():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_passes_every_check(name):
    res = run.run_workload(name, 3, 0.0, trace=False, smoke=True)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res["problems"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_perturbed_score_is_a_failed_operation(name, monkeypatch):
    run.import_program()
    import dlcss.core

    original = dlcss.core.similarity_metric
    monkeypatch.setattr(
        dlcss.core, "similarity_metric", lambda segs, a: original(segs, a) * (1.0 + 1e-12)
    )
    res = run.run_workload(name, 3, 0.0, trace=False, smoke=True)
    assert not res["correct"]
    assert res["failed"] >= 1, "a perturbed score went unnoticed"


def test_traced_counts_repeat_whatever_the_run_length():
    one_round = run.run_workload("meeting_rescue", 5, 0.0, trace=True, smoke=True)
    many_rounds = run.run_workload("meeting_rescue", 5, 0.05, trace=True, smoke=True)
    assert many_rounds["attempted"] > one_round["attempted"]
    units = declared("per_layer")
    assert {k: v["unit"] for k, v in one_round["metrics"].items()} == units
    counts = [k for k, u in units.items() if u in ("count/op", "ratio")]
    assert {k: one_round["metrics"][k]["value"] for k in counts} == {
        k: many_rounds["metrics"][k]["value"] for k in counts
    }
    assert one_round["metrics"]["meeting_points.trials"]["value"] > 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "meeting_rescue",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
