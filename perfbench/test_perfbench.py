"""Smoke tests of the benchmark itself, on tiny inputs (a few seconds in all)."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from lexid import nonminimal_grid_fixture

from perfbench import harness
from perfbench.harness import DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER, run_workload
from perfbench.workloads import WORKLOADS, closed_neighborhoods, reference_lex_code

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())


@pytest.fixture(autouse=True)
def scratch_out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path / "out")


def test_benchmark_json_lists_the_harness_metrics_and_workloads():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])


def test_times_are_normalized_by_the_calibration_speed():
    unit = harness.host_speed(0.01)
    assert unit > 0
    assert harness.at_reference_speed([3 * unit], [unit]) == [pytest.approx(3 * harness.REFERENCE_UNIT_S)]


def test_pins_cover_default_and_held_out_seed():
    for kind in ("full", "smoke"):
        for name in WORKLOADS:
            assert {str(DEFAULT_SEED), str(HELD_OUT_SEED)} <= set(GOLDEN[kind][name])


def test_reference_constructor_on_the_pinned_fixture():
    assert reference_lex_code(closed_neighborhoods(nonminimal_grid_fixture())) == (1, 2, 3, 4, 5, 6)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_and_emits_every_metric(name, trace):
    outcome = run_workload(WORKLOADS[name], DEFAULT_SEED, 0, trace, True, GOLDEN)
    assert outcome.errors == []
    result = harness.result_line(outcome, trace)
    assert set(result["metrics"]) == set(PER_LAYER if trace else END_TO_END)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert all(m["value"] > 0 for m in harness.result_line(outcome, False)["metrics"].values())


def test_traced_tallies_repeat_exactly():
    runs = [run_workload(WORKLOADS["restarts-gnp128"], HELD_OUT_SEED, 0, True, True, GOLDEN) for _ in range(2)]
    counts = [{k: v for k, v in r.metrics.items() if k.startswith("sparse.") and not k.endswith("_s")}
              for r in runs]
    assert counts[0] == counts[1] and counts[0]["sparse.model_touches"] > 0


@pytest.mark.parametrize("key", ["code_sha256", "sparse.model_touches"])
def test_corrupted_golden_value_is_a_failure_not_a_crash(key):
    golden = copy.deepcopy(GOLDEN)
    golden["smoke"]["code-grid4k-sparse"][str(DEFAULT_SEED)][key] = "corrupted"
    outcome = run_workload(WORKLOADS["code-grid4k-sparse"], DEFAULT_SEED, 0, True, True, golden)
    result = harness.result_line(outcome, True)
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    assert any(f"golden {key} mismatch" in e for e in outcome.errors)


def test_all_workloads_command_prints_every_metric_with_its_unit(tmp_path):
    run = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all", "--smoke", "--seconds", "0"]
    proc = subprocess.run(run, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] and list(summary["workloads"]) == list(WORKLOADS)
    for name, unit in [*END_TO_END.items(), ("error_rate", "ratio")]:
        assert proc.stdout.count(f"  {name} ") == len(WORKLOADS)
        assert all(unit in line for line in proc.stdout.splitlines() if line.startswith(f"  {name} "))


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    run = [sys.executable, "perfbench/run.py", "--workload", "code-gnp512", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(run, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
