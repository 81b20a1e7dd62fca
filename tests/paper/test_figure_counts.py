"""The paper's count claims, checked exactly against the committed
baselines in ``benchmarks/baselines/``.

Figure 16 (partitions scanned per fact table and segments dispatched,
Orca vs the Planner, over the TPC-DS-like workload) and Figure 18(a-c)
(plan bytes against selected fraction and partition count) are
deterministic counts, so they are compared for equality here, in the
tier-1 suite, rather than only by the CI regression gate over the
benchmark outputs.  The baselines are read, never written: they are the
oracle, refreshed only on purpose.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.workloads import tpcds
from repro.workloads.synthetic import JOIN_QUERY, UPDATE_QUERY, build_rs_database
from repro.workloads.tpch import build_lineitem_database, shipdate_for_fraction

BASELINES = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
)


def _baseline(name: str) -> dict:
    return json.loads((BASELINES / f"{name}.json").read_text())


def test_fig16_partitions_scanned_and_segments_dispatched():
    """The workload at the benchmark's size (2,500 fact rows, 2 segments):
    each query once per optimizer, counts summed per fact table."""
    db = tpcds.build_database(fact_rows=2500, num_segments=2)
    scanned: dict[str, dict[str, int]] = {}
    dispatched: dict[str, dict[str, int]] = {}
    for query in tpcds.workload_queries():
        table = tpcds.fact_table_of(query)
        for config, options in (("orca", {}), ("planner", {"optimizer": "planner"})):
            result = db.execute_plan(db.plan(query.sql, **options))
            stats = result.metrics.table_stats().get(table, {})
            per_table = scanned.setdefault(table, {"orca": 0, "planner": 0})
            per_table[config] += stats.get("partitions_scanned", 0)
            segments = dispatched.setdefault(table, {"orca": 0, "planner": 0})
            segments[config] += result.metrics.segments_dispatched
    baseline = _baseline("fig16_partitions_scanned")
    assert scanned == baseline["tables"]
    assert dispatched == baseline["segments_dispatched"]


def test_fig18a_static_plan_bytes():
    baseline = _baseline("fig18a_static_plan_size")
    db = build_lineitem_database(84, row_count=400, num_segments=2)
    planner, orca = [], []
    for fraction in baseline["fractions"]:
        cutoff = shipdate_for_fraction(fraction).isoformat()
        sql = f"SELECT * FROM lineitem WHERE l_shipdate < '{cutoff}'"
        planner.append(db.plan(sql, optimizer="planner").size_bytes())
        orca.append(db.plan(sql).size_bytes())
    assert planner == baseline["planner_bytes"]
    assert orca == baseline["orca_bytes"]


@pytest.mark.parametrize(
    "name, query, dispatched",
    [
        ("fig18b_join_plan_size", JOIN_QUERY, True),
        ("fig18c_dml_plan_size", UPDATE_QUERY, False),
    ],
    ids=["fig18b", "fig18c"],
)
def test_fig18bc_plan_bytes_against_partition_count(name, query, dispatched):
    baseline = _baseline(name)
    planner, orca, orca_dispatched = [], [], []
    for parts in baseline["part_counts"]:
        db = build_rs_database(num_parts=parts, rows_per_table=100)
        planner.append(db.plan(query, optimizer="planner").size_bytes())
        plan = db.plan(query)
        orca.append(plan.size_bytes())
        orca_dispatched.append(plan.dispatched_size_bytes())
    assert planner == baseline["planner_bytes"]
    assert orca == baseline["orca_bytes"]
    if dispatched:
        assert orca_dispatched == baseline["orca_dispatched_bytes"]
