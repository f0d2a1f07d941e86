"""Tests of the benchmark itself, on the tiny ``smoke`` corpus.

    python3 -m pytest perfbench

They run the benchmark end to end in both modes, check that it reports
every metric BENCHMARK.json lists with its unit, and show that each output
check fails on a deliberately corrupted artifact.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from run import PERFBENCH, ROOT, WORK_ROOT, Tally, record_checks

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_smoke(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.fixture(scope="module")
def smoke_run():
    """Result of one untraced smoke run, with a pristine copy of its outputs."""
    result = run_smoke(trace=0)
    pristine = WORK_ROOT / "smoke-test" / "pristine"
    shutil.rmtree(pristine.parent, ignore_errors=True)
    shutil.copytree(WORK_ROOT / "smoke", pristine)
    yield result, pristine
    shutil.rmtree(pristine.parent, ignore_errors=True)


@pytest.fixture
def work(smoke_run, request):
    _, pristine = smoke_run
    copy = pristine.parent / request.node.name.replace("[", "-").rstrip("]")
    shutil.copytree(pristine, copy)
    return copy


def test_untraced_run_reports_every_end_to_end_metric(smoke_run):
    result, _ = smoke_run
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = run_smoke(trace=1)
    assert result["correct"] and result["failed"] == 0
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    spans = json.loads((WORK_ROOT / "smoke" / "trace.json").read_text(encoding="utf-8"))["spans"]
    sweep = spans["tuning.sweep"]
    children = sum(child["total_s"] for child in sweep["children"].values())
    assert sweep["self_s"] + children == pytest.approx(sweep["total_s"], rel=1e-9, abs=1e-9)
    assert result["metrics"]["tuning.sweep_self_s"]["value"] == sweep["self_s"]


def _edit_sweep_row(work):
    path = work / "out" / "sweep" / "sweep.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[2:4] == ["0.3", "0.4"]:
            fields[8] = str(int(fields[8]) + 1)  # FP_a
            lines[i] = ",".join(fields)
            break
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_tuning_cell(work):
    path = work / "out" / "tune" / "tuning.json"
    tuning = json.loads(path.read_text(encoding="utf-8"))
    optimum = tuning["per_database"][0]
    optimum["t_pred"] = round(optimum["t_pred"] + 0.1, 1)
    path.write_text(json.dumps(tuning), encoding="utf-8")


def _drop_offsets_record(work):
    path = work / "out" / "offsets" / "offsets.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")


def _edit_ledger(work):
    path = work / "corpus" / "ledger.json"
    ledger = json.loads(path.read_text(encoding="utf-8"))
    ledger["fall_count"] += 1
    path.write_text(json.dumps(ledger), encoding="utf-8")


def test_unchanged_outputs_pass_every_check(work):
    tally = Tally()
    record_checks(tally, work)
    assert tally.attempted == 4 and tally.failures == []


@pytest.mark.parametrize("corrupt, check", [
    (_edit_sweep_row, "evaluate_vs_sweep"),
    (_edit_tuning_cell, "tuning_argmax"),
    (_drop_offsets_record, "offsets_count"),
    (_edit_ledger, "ledger"),
])
def test_corrupted_artifact_counts_as_failure(work, corrupt, check):
    corrupt(work)
    tally = Tally()
    record_checks(tally, work)
    assert tally.error_rate > 0
    assert [failure.split(":")[0] for failure in tally.failures] == [f"check {check}"]
