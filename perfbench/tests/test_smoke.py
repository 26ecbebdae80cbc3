"""Tiny-size runs of every workload through the whole harness."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.runner import END_TO_END, per_layer_names, run_workload
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_tiny_run_reports_every_layer(name, tmp_path):
    spans = tmp_path / "spans.json"
    result, diagnostics = run_workload(name, seed=3, seconds=0.0, trace=True,
                                       size="tiny", spans_path=spans)
    assert diagnostics["problems"] == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {n for n, _ in per_layer_names()}
    assert json.loads(spans.read_text())["spans"]
    kinds = [r["traced"] for r in diagnostics["rounds"]]
    assert True in kinds and False in kinds


def test_end_to_end_tiny_run_reports_every_metric():
    result, diagnostics = run_workload("mc_fig7", seed=1, seconds=0.0,
                                       trace=False, size="tiny")
    assert result["correct"] is True
    assert set(result["metrics"]) == set(END_TO_END)
    for name, unit in END_TO_END.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit and metric["value"] > 0
    assert diagnostics["environment"]["nproc"] >= 1


def test_spans_attribute_the_batched_path_on_mc_fig7():
    result, _ = run_workload("mc_fig7", seed=2, seconds=0.0, trace=True,
                             size="tiny")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["engines.stagedelay.delta_t_mc_calls"] == 1
    assert metrics["spice.batched_transient_calls"] == 2
    assert metrics["spice.batched_transient_s"] > 0
    assert metrics["spice.scalar_transient_calls"] == 0
    assert metrics["spice.batched_solves"] > 0


def test_benchmark_json_declares_what_the_runner_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == per_layer_names()
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS)


def test_wrong_reference_fails_the_run(monkeypatch):
    from perfbench import workloads

    real = workloads.load_reference

    def shifted(name):
        data = real(name)
        for per_seed in data["samples"].values():
            for values in per_seed.values():
                values[0] += 1e-12
        return data

    monkeypatch.setattr(workloads, "load_reference", shifted)
    result, diagnostics = run_workload("mc_fig7", seed=0, seconds=0.0,
                                       trace=False, size="tiny")
    assert result["correct"] is False and result["metrics"] == {}
    assert any("reference" in p for p in diagnostics["problems"])


def test_without_program_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_fig7",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
