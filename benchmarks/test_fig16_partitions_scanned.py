"""Paper Figure 16 — Partition elimination effectiveness.

Number of partitions scanned per partitioned table, aggregated across the
whole workload, Planner vs Orca.  The paper's claim: Orca scans at most as
many partitions as Planner for every table, and up to ~80% fewer for some
(web_returns in the paper).

The per-query partition counts come straight from the executor's metrics
layer (``result.metrics.table_stats()``, collected per DynamicScan /
LeafScan node) rather than being re-derived from result rows.
"""

from __future__ import annotations


def test_fig16_partitions_scanned(benchmark, workload_run):
    benchmark.pedantic(_report, args=(workload_run,), rounds=1, iterations=1)


def _report(workload_run):
    from repro.workloads.tpcds import FACT_TABLES

    from ._helpers import emit, emit_json, format_table

    totals = {
        table: {"orca": 0, "planner": 0} for table in FACT_TABLES
    }
    # the segment-level twin of the partition counts: segments each
    # statement's sending slices ran on, summed per fact table
    dispatched = {
        table: {"orca": 0, "planner": 0} for table in FACT_TABLES
    }
    for query in workload_run.queries:
        entry = workload_run.measurements[query.name]
        table = entry["orca"]["table"]
        for config in ("orca", "planner"):
            totals[table][config] += entry[config]["partitions"]
            dispatched[table][config] += entry[config]["segments_dispatched"]

    rows = []
    reductions = []
    for table in FACT_TABLES:
        orca = totals[table]["orca"]
        planner = totals[table]["planner"]
        reduction = (1 - orca / planner) * 100 if planner else 0.0
        reductions.append(reduction)
        rows.append([table, planner, orca, f"{reduction:.0f}%"])
    emit(
        "fig16_partitions_scanned",
        format_table(
            ["table", "planner parts", "orca parts", "orca reduction"], rows
        ),
    )
    emit_json(
        "fig16_partitions_scanned",
        {"tables": totals, "segments_dispatched": dispatched},
    )

    # Orca never scans more than Planner on any table, and achieves a
    # substantial reduction (paper: up to 80%) on at least one.
    for table in FACT_TABLES:
        assert totals[table]["orca"] <= totals[table]["planner"], table
    assert max(reductions) >= 40.0
