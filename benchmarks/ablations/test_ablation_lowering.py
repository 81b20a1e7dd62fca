"""Ablation — native PartitionSelector vs the Section 3.2 lowered form.

The lowering replaces the dedicated operator with Filter/Project plumbing
over the Table 1 built-ins (Figure 15).  Results must be identical; the
ablation quantifies the (small) runtime delta of the function-based form.
"""

from __future__ import annotations

from repro.workloads.tpch import build_lineitem_database, shipdate_for_fraction
from tests.oracles.lowering import lower_partition_selectors

from .._helpers import emit, format_table, timed


def test_ablation_lowering(benchmark):
    benchmark.pedantic(_report, rounds=1, iterations=1)


def _report():
    db = build_lineitem_database(84, row_count=3000, num_segments=2)
    cutoff = shipdate_for_fraction(0.25)
    sql = (
        "SELECT count(*) FROM lineitem "
        f"WHERE l_shipdate < '{cutoff.isoformat()}'"
    )
    native_plan = db.plan(sql)
    lowered_plan = lower_partition_selectors(native_plan)

    native_result = db.execute_plan(native_plan)
    lowered_result = db.execute_plan(lowered_plan)
    assert native_result.rows == lowered_result.rows
    assert native_result.partitions_scanned(
        "lineitem"
    ) == lowered_result.partitions_scanned("lineitem")

    native_time = timed(lambda: db.execute_plan(native_plan))
    lowered_time = timed(lambda: db.execute_plan(lowered_plan))
    emit(
        "ablation_lowering",
        format_table(
            ["form", "runtime", "plan bytes", "parts scanned"],
            [
                [
                    "native PartitionSelector",
                    f"{native_time * 1000:.2f} ms",
                    native_plan.size_bytes(),
                    native_result.partitions_scanned("lineitem"),
                ],
                [
                    "lowered (Figure 15 built-ins)",
                    f"{lowered_time * 1000:.2f} ms",
                    lowered_plan.size_bytes(),
                    lowered_result.partitions_scanned("lineitem"),
                ],
            ],
        ),
    )
    # both forms must stay within a small factor of each other
    assert lowered_time < native_time * 3 + 0.05
