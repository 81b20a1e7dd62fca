"""The CI bench-regression gate: deterministic counters gate hard,
wall clocks only warn, and a per-metric delta table lands in
``$GITHUB_STEP_SUMMARY`` when that variable is set."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

TOOL = (
    pathlib.Path(__file__).resolve().parents[2]
    / "tools"
    / "check_bench_regression.py"
)

FIG16 = {
    "tables": {
        "store_sales": {"orca": 108, "planner": 276},
        "web_returns": {"orca": 74, "planner": 132},
    },
    "segments_dispatched": {
        "store_sales": {"orca": 18, "planner": 18},
        "web_returns": {"orca": 8, "planner": 8},
    },
}
FIG18A = {
    "fractions": [0.01, 0.25, 0.5, 0.75, 1.0],
    "planner_bytes": [910, 5950, 11522, 17094, 22652],
    "orca_bytes": [1630] * 5,
}
FIG19 = {
    "segments": 4,
    "measurements": [
        {"workers": 1, "seconds": 0.120, "speedup": 1.0},
        {"workers": 4, "seconds": 0.033, "speedup": 3.6},
    ],
}


def _write_results(directory: pathlib.Path, **overrides) -> None:
    payloads = {
        "fig16_partitions_scanned.json": FIG16,
        "fig18a_static_plan_size.json": FIG18A,
        "fig19_parallel_speedup.json": FIG19,
    }
    payloads.update(overrides)
    directory.mkdir(parents=True, exist_ok=True)
    for name, payload in payloads.items():
        (directory / name).write_text(json.dumps(payload))


def _run(baseline: pathlib.Path, current: pathlib.Path, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, str(TOOL), str(baseline), str(current)],
        capture_output=True,
        text=True,
        env=merged,
    )


def test_identical_results_pass(tmp_path):
    _write_results(tmp_path / "baseline")
    _write_results(tmp_path / "current")
    proc = _run(tmp_path / "baseline", tmp_path / "current")
    assert proc.returncode == 0, proc.stdout
    assert "bench gate: OK" in proc.stdout


def test_perturbed_fig16_counter_fails(tmp_path):
    """The acceptance check: a partitions-scanned regression must turn the
    gate red."""
    _write_results(tmp_path / "baseline")
    worse = json.loads(json.dumps(FIG16))
    worse["tables"]["store_sales"]["orca"] = 276  # elimination broke
    _write_results(
        tmp_path / "current", **{"fig16_partitions_scanned.json": worse}
    )
    proc = _run(tmp_path / "baseline", tmp_path / "current")
    assert proc.returncode == 1, proc.stdout
    assert "FAIL" in proc.stdout and "tables" in proc.stdout


def test_perturbed_segments_dispatched_fails(tmp_path):
    """The segment-level twin: a statement that starts running on more
    (or fewer) segments than the baseline turns the gate red."""
    _write_results(tmp_path / "baseline")
    worse = json.loads(json.dumps(FIG16))
    worse["segments_dispatched"]["web_returns"]["orca"] = 7
    _write_results(
        tmp_path / "current", **{"fig16_partitions_scanned.json": worse}
    )
    proc = _run(tmp_path / "baseline", tmp_path / "current")
    assert proc.returncode == 1, proc.stdout
    assert "FAIL" in proc.stdout and "segments_dispatched" in proc.stdout


def test_plan_size_regression_fails(tmp_path):
    _write_results(tmp_path / "baseline")
    bloated = dict(FIG18A, orca_bytes=[1630, 1630, 1630, 1630, 22652])
    _write_results(
        tmp_path / "current", **{"fig18a_static_plan_size.json": bloated}
    )
    proc = _run(tmp_path / "baseline", tmp_path / "current")
    assert proc.returncode == 1
    assert "orca_bytes" in proc.stdout


def test_wall_clock_slowdown_only_warns(tmp_path):
    _write_results(tmp_path / "baseline")
    slow = json.loads(json.dumps(FIG19))
    slow["measurements"][1]["seconds"] = 0.099  # 3x slower than baseline
    _write_results(
        tmp_path / "current", **{"fig19_parallel_speedup.json": slow}
    )
    proc = _run(tmp_path / "baseline", tmp_path / "current")
    assert proc.returncode == 0, proc.stdout
    assert "WARN" in proc.stdout and "report-only" in proc.stdout


def test_missing_gated_file_in_current_fails(tmp_path):
    _write_results(tmp_path / "baseline")
    _write_results(tmp_path / "current")
    (tmp_path / "current" / "fig16_partitions_scanned.json").unlink()
    proc = _run(tmp_path / "baseline", tmp_path / "current")
    assert proc.returncode == 1
    assert "missing from current" in proc.stdout


def test_missing_baseline_file_only_warns(tmp_path):
    """First run on a branch: no baseline yet is not a failure."""
    _write_results(tmp_path / "baseline")
    (tmp_path / "baseline" / "fig16_partitions_scanned.json").unlink()
    _write_results(tmp_path / "current")
    proc = _run(tmp_path / "baseline", tmp_path / "current")
    assert proc.returncode == 0, proc.stdout
    assert "no baseline to compare against" in proc.stdout


FIG23 = {
    "fact_rows": 24000,
    "batch_sizes": [1, 1024],
    "counters": {
        "scan+filter": {
            "1": {"result_rows": 11988, "rows_scanned": 24000},
            "1024": {"result_rows": 11988, "rows_scanned": 24000},
        }
    },
    "measurements": [
        {"workload": "scan+filter", "batch_size": 1, "seconds": 0.084},
        {"workload": "scan+filter", "batch_size": 1024, "seconds": 0.036},
    ],
}


def test_fig23_counter_regression_fails(tmp_path):
    """A batch-width counter divergence (vectorization changed what the
    query measured) turns the gate red."""
    _write_results(
        tmp_path / "baseline", **{"fig23_batch_throughput.json": FIG23}
    )
    diverged = json.loads(json.dumps(FIG23))
    diverged["counters"]["scan+filter"]["1024"]["result_rows"] = 11989
    _write_results(
        tmp_path / "current", **{"fig23_batch_throughput.json": diverged}
    )
    proc = _run(tmp_path / "baseline", tmp_path / "current")
    assert proc.returncode == 1, proc.stdout
    assert "counters" in proc.stdout


def test_step_summary_written_when_env_set(tmp_path):
    """With GITHUB_STEP_SUMMARY set, the gate appends a markdown delta
    table covering gated counters and report-only wall clocks."""
    _write_results(
        tmp_path / "baseline", **{"fig23_batch_throughput.json": FIG23}
    )
    slower = json.loads(json.dumps(FIG23))
    slower["measurements"][1]["seconds"] = 0.072  # 2x slowdown
    _write_results(
        tmp_path / "current", **{"fig23_batch_throughput.json": slower}
    )
    summary_file = tmp_path / "summary.md"
    proc = _run(
        tmp_path / "baseline",
        tmp_path / "current",
        env={"GITHUB_STEP_SUMMARY": str(summary_file)},
    )
    assert proc.returncode == 0, proc.stdout
    text = summary_file.read_text()
    assert "## Benchmark regression gate" in text
    assert "**OK**" in text
    assert "| file | metric | kind | baseline | current | delta |" in text
    # a gated counter row, unchanged
    assert "`counters.scan+filter.1024.result_rows`" in text
    assert "gated" in text
    # the slowed wall clock, report-only, with a signed delta
    assert "report-only" in text
    assert "+100.0%" in text


def test_step_summary_marks_failures(tmp_path):
    _write_results(tmp_path / "baseline")
    worse = json.loads(json.dumps(FIG16))
    worse["tables"]["store_sales"]["orca"] = 276
    _write_results(
        tmp_path / "current", **{"fig16_partitions_scanned.json": worse}
    )
    summary_file = tmp_path / "summary.md"
    proc = _run(
        tmp_path / "baseline",
        tmp_path / "current",
        env={"GITHUB_STEP_SUMMARY": str(summary_file)},
    )
    assert proc.returncode == 1
    text = summary_file.read_text()
    assert "**FAIL**" in text
    assert "`tables.store_sales.orca`" in text
    assert "+155.6%" in text


def test_no_summary_file_without_env(tmp_path):
    _write_results(tmp_path / "baseline")
    _write_results(tmp_path / "current")
    proc = _run(
        tmp_path / "baseline",
        tmp_path / "current",
        env={"GITHUB_STEP_SUMMARY": ""},
    )
    assert proc.returncode == 0
    assert not (tmp_path / "summary.md").exists()


def test_repo_baselines_match_committed_format():
    """The committed baselines parse and carry every hard-gated counter."""
    baselines = TOOL.parent.parent / "benchmarks" / "baselines"
    fig16 = json.loads(
        (baselines / "fig16_partitions_scanned.json").read_text()
    )
    assert fig16["tables"], "fig16 baseline has per-table counters"
    fig23 = json.loads(
        (baselines / "fig23_batch_throughput.json").read_text()
    )
    assert fig23["counters"], "fig23 baseline has batch-width counters"
    for workload in fig23["counters"].values():
        widths = list(workload.values())
        assert widths and all(w == widths[0] for w in widths), (
            "fig23 baseline counters must agree across batch widths"
        )
    for name in (
        "fig18a_static_plan_size.json",
        "fig18b_join_plan_size.json",
        "fig18c_dml_plan_size.json",
    ):
        payload = json.loads((baselines / name).read_text())
        assert payload["planner_bytes"] and payload["orca_bytes"]
