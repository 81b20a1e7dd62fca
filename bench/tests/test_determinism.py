"""Same seed, same inputs and same counts; another seed, other literals only."""

from __future__ import annotations

import json
import re

import pytest

from bench import config, gen
from bench.run import run_one

NUMBER = re.compile(r"\d+(\.\d+)?")


def _statement_lists(seed: int) -> dict[str, list]:
    sizes = config.SMOKE
    pool = gen.serve_pool(seed, sizes)
    lists = {
        "point_lookup": gen.point_statements(seed, sizes),
        "dss_mix": gen.dss_statements(seed, sizes),
        "wide_scan": gen.wide_statements(sizes),
    }
    for client in range(gen.CLIENTS):
        script = gen.ServeScript(seed, sizes, client, pool)
        lists[f"serve_mixed:{client}"] = (
            script.next_repetition() + script.next_repetition()
        )
    return lists


def _shape(statements: list) -> list:
    return [(s.kind, NUMBER.sub("?", s.sql)) for s in statements]


def test_same_seed_gives_byte_identical_statement_lists():
    assert json.dumps(_statement_lists(2014)) == json.dumps(_statement_lists(2014))


def test_same_seed_gives_identical_rows():
    for dataset in (gen.point_dataset, gen.dss_dataset, gen.wide_dataset):
        assert dataset(5, config.SMOKE).rows == dataset(5, config.SMOKE).rows


def test_another_seed_changes_literals_but_not_shape():
    first, second = _statement_lists(2014), _statement_lists(7)
    for name in first:
        assert _shape(first[name]) == _shape(second[name]), name
        if name != "wide_scan":  # full scans have no literal to change
            assert first[name] != second[name], name


@pytest.mark.parametrize("workload", config.WORKLOADS)
def test_counts_repeat_exactly_across_traced_passes(workload):
    first = run_one(workload, 2014, 0.0, traced=True, smoke=True)
    second = run_one(workload, 2014, 0.0, traced=True, smoke=True)
    assert first["correct"] and second["correct"]
    for name in config.COUNT_METRICS:
        assert first["per_layer"][name] == second["per_layer"][name], name


@pytest.mark.parametrize("workload", config.WORKLOADS)
def test_another_seed_keeps_the_shape_counts(workload):
    first = run_one(workload, 2014, 0.0, traced=True, smoke=True)
    second = run_one(workload, 7, 0.0, traced=True, smoke=True)
    assert second["correct"]
    assert first["attempted"] == second["attempted"]
    if workload in ("point_lookup", "wide_scan"):
        # (elsewhere the optimizer may pick another plan for another
        # constant, and which reads miss the result cache varies)
        for name in (
            "optimizer.plan_nodes",
            "optimizer.memo_groups",
            "executor.partitions_total",
            "catalog.select_slots_visited",
        ):
            assert first["per_layer"][name] == second["per_layer"][name], name
