"""Ablation — the legacy Planner's parameter-based dynamic elimination.

Shows what the rudimentary mechanism buys (run-time leaf skipping for the
simple equality pattern) and what it doesn't (plan size still linear).
"""

from __future__ import annotations

from repro.workloads.synthetic import JOIN_QUERY, build_rs_database

from .._helpers import emit, format_table


def test_ablation_planner_param_dpe(benchmark):
    benchmark.pedantic(_report, rounds=1, iterations=1)


def _report():
    db = build_rs_database(num_parts=20, rows_per_table=400)
    # Concentrate the driving side so skipping is observable.
    db.sql("DELETE FROM r")
    db.insert("r", [(i, i % 1000) for i in range(400)])
    db.analyze("r")

    rows = []
    for label, options in (
        ("param DPE on", {}),
        ("param DPE off", {"enable_param_dpe": False}),
    ):
        plan = db.plan(JOIN_QUERY, optimizer="planner", **options)
        result = db.execute_plan(plan)
        rows.append(
            [
                label,
                plan.size_bytes(),
                result.partitions_scanned("s"),
                result.rows_scanned,
            ]
        )
    emit(
        "ablation_planner_param_dpe",
        format_table(
            ["configuration", "plan bytes", "s parts scanned", "rows scanned"],
            rows,
        ),
    )
    on, off = rows
    assert on[2] < off[2], "guarding must skip leaves at run time"
    # but the plan itself is no smaller — every leaf is still listed
    assert on[1] >= off[1] * 0.9
