"""BENCHMARK.json matches what the benchmark emits; the entry point fails cleanly."""

import json
import shutil
import statistics
import subprocess
import sys

import pytest

from perfbench import calibrate, jobs, measure
from conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_lists_the_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in jobs.WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_spec_lists_every_metric_emitted(tiny, tmp_path):
    _, _, end_to_end = measure.measure(tiny, 1, 0, tmp_path / "a", 0.0)
    _, _, per_layer = measure.trace(tiny, 1, 0, tmp_path / "b")
    for emitted, declared in ((end_to_end, SPEC["end_to_end"]), (per_layer, SPEC["per_layer"])):
        assert [m["name"] for m in declared] == list(emitted)
        assert [m["unit"] for m in declared] == [m["unit"] for m in emitted.values()]
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_without_sources_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run(tmp_path, "--workload", "nder-perfect", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_unknown_workload_exits_2():
    proc = _run(ROOT, "--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_job_metrics_are_medians_of_calibrated_ratios(tiny, tmp_path):
    _, detail, metrics = measure.measure(tiny, 1, 0, tmp_path, 0.0)
    cal = detail["calibration_samples_s"]
    assert len(cal) == detail["passes"]
    assert all(len(c) == len(tiny.jobs) + 1 for c in cal)
    typical = detail["job_median_ref"]
    assert metrics["wall_ref"]["value"] == pytest.approx(sum(typical.values()))
    assert metrics["job_max_ref"]["value"] == max(typical.values())
    assert metrics["job_min_ref"]["value"] == min(typical.values())
    # the second job lies between the second and third calibration samples of each pass
    label = tiny.jobs[1].label
    ratios = [t / ((c[1] + c[2]) / 2) for t, c in zip(detail["job_samples_s"][label], cal)]
    assert typical[label] == pytest.approx(statistics.median(ratios))


def test_calibration_task_is_fixed_and_checked():
    assert calibrate._rank(calibrate._MATRIX) == calibrate.ROWS
    assert calibrate.timed() > 0
