"""``BENCHMARK.json``, ``bench/config.py`` and what a run prints agree."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare, config
from bench.run import ROOT, main

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_contract_file_matches_the_metric_tables():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["paths"] == ["bench"]
    assert CONTRACT["run_seconds"] == config.RUN_SECONDS
    assert [w["name"] for w in CONTRACT["workloads"]] == list(config.WORKLOADS)
    assert CONTRACT["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in config.CONTRACT_END_TO_END
    ]
    assert CONTRACT["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in config.PER_LAYER
    ]


def test_contract_limits():
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}
    ]
    assert setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", config.WORKLOADS)
@pytest.mark.parametrize("traced", (0, 1))
def test_a_run_emits_exactly_the_named_metrics(workload, traced, capsys):
    assert main(["--workload", workload, "--smoke", "--trace", str(traced)]) == 0
    result = json.loads(capsys.readouterr().out.strip().rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
    section = CONTRACT["per_layer" if traced else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {entry["name"]: entry["unit"] for entry in section}
    if not traced:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_without_the_engine_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, env={"PATH": "/usr/bin:/bin"},
    )
    assert child.returncode != 0
    assert "{" not in child.stdout


def _results(tmp_path: Path, name: str, edit=None) -> Path:
    metric = {"value": 100.0, "samples": 5, "min": 98.0, "max": 102.0}
    results = {
        "seed": 1,
        "smoke": False,
        "workloads": {
            "wide_scan": {
                "end_to_end": {"stmt_per_s": dict(metric), "p50_ms": dict(metric)},
                "per_layer": {"executor.rows_scanned": 16000.0, "sql.parse_us": 30.0},
            }
        },
    }
    if edit:
        edit(results["workloads"]["wide_scan"])
    path = tmp_path / name
    path.write_text(json.dumps(results))
    return path


def test_compare_verdicts(tmp_path, capsys):
    base = _results(tmp_path, "a.json")
    assert compare.main([str(base), str(base)]) == 0
    assert "regressed" not in capsys.readouterr().out

    def slower(workload):
        workload["end_to_end"]["stmt_per_s"].update(value=70.0, min=69.0, max=71.0)

    assert compare.main([str(base), str(_results(tmp_path, "b.json", slower))]) == 1
    assert "regressed" in capsys.readouterr().out

    def noisy(workload):
        workload["end_to_end"]["p50_ms"].update(value=140.0, min=95.0, max=180.0)

    assert compare.main([str(base), str(_results(tmp_path, "c.json", noisy))]) == 0
    assert "unresolved" in capsys.readouterr().out

    def other_count(workload):
        workload["per_layer"]["executor.rows_scanned"] = 16001.0

    assert compare.main([str(base), str(_results(tmp_path, "d.json", other_count))]) == 1
    assert "DIFFERS" in capsys.readouterr().out
