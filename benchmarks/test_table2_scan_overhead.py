"""Paper Table 2 — Overhead of Partitioning.

``SELECT * FROM lineitem`` over 7 years of data, partitioned per the
paper's four scenarios (42 / 84 / 169 / 361 parts), compared with an
unpartitioned baseline.  The paper reports 1-3% overhead, stable across
partition counts.

Flatness is asserted by count, not clock: a DynamicScan fills each batch
across leaves, so the batches one segment's scan emits do not depend on
the partition count and equal the unpartitioned scan's.

The percentage is reported, not asserted, and at this size it is not
reproduced: the statement's per-partition work (exact partition OID sets,
the metrics export the checks read) is a fixed cost of a fraction of a
millisecond at 361 partitions, and the whole unpartitioned statement
takes about half a millisecond, so the percentage grows with the
partition count.
"""

from __future__ import annotations

import pytest

from repro.executor.context import ExecContext
from repro.executor.iterators import build_batches
from repro.physical.ops import GatherMotion
from repro.workloads.tpch import TABLE2_SCENARIOS, build_lineitem_database

from ._helpers import emit, format_table, table_counters, timed

ROW_COUNT = 4000
SEGMENTS = 2
QUERY = "SELECT * FROM lineitem"

_scenarios = [None] + sorted(TABLE2_SCENARIOS)


def _run_full_scan(db, plan):
    result = db.execute_plan(plan)
    assert len(result.rows) == ROW_COUNT
    # The measured counters must agree with the workload's ground truth:
    # a full scan reads every row exactly once and opens every partition.
    counters = table_counters(result, "lineitem")
    assert counters["rows_scanned"] == ROW_COUNT
    total = counters["partitions_total"]
    if total is not None:  # partitioned scenarios only
        assert counters["partitions_scanned"] == total
    return result


def _batches_per_segment(db) -> list[int]:
    """Batches the full scan's slice emits on each segment, counted by
    running the operators below the Gather at the default width."""
    plan = db.plan(QUERY)
    gather = next(op for op in plan.root.walk() if isinstance(op, GatherMotion))
    ctx = ExecContext(db.catalog, db.storage, db.num_segments)
    return [
        sum(1 for _ in build_batches(gather.children[0], segment, ctx))
        for segment in range(db.num_segments)
    ]


@pytest.fixture(scope="module")
def databases():
    built = {}
    for parts in _scenarios:
        built[parts] = build_lineitem_database(
            parts, row_count=ROW_COUNT, num_segments=SEGMENTS
        )
    return built


@pytest.mark.parametrize("parts", _scenarios, ids=lambda p: f"parts={p or 0}")
def test_full_scan(benchmark, databases, parts):
    db = databases[parts]
    plan = db.plan(QUERY)
    benchmark.pedantic(
        _run_full_scan, args=(db, plan), rounds=3, iterations=1
    )


def test_batches_per_segment_are_flat(benchmark, databases):
    """Table 2's flatness by count: 42, 84, 169 or 361 partitions, each
    segment's scan emits as many batches as the unpartitioned one."""
    counts = benchmark.pedantic(
        lambda: {parts: _batches_per_segment(db) for parts, db in databases.items()},
        rounds=1,
        iterations=1,
    )
    assert all(count == counts[None] for count in counts.values()), counts


def test_report_table2(benchmark, databases):
    """Regenerate the Table 2 rows: per-scenario overhead vs baseline."""
    benchmark.pedantic(_report_table2, args=(databases,), rounds=1, iterations=1)


def _report_table2(databases):
    timings = {}
    opened = {}
    batches = {}
    for parts, db in databases.items():
        plan = db.plan(QUERY)
        timings[parts] = timed(lambda d=db, p=plan: _run_full_scan(d, p))
        result = db.execute_plan(plan)
        opened[parts] = table_counters(result, "lineitem")[
            "partitions_scanned"
        ]
        batches[parts] = _batches_per_segment(db)
    baseline = timings[None]
    rows = []
    for parts in sorted(TABLE2_SCENARIOS):
        added = timings[parts] - baseline
        rows.append(
            [
                parts,
                TABLE2_SCENARIOS[parts],
                opened[parts],
                batches[parts],
                f"{timings[parts] * 1000:.2f} ms",
                f"{added * 1000:+.2f} ms",
                f"{added / baseline * 100:+.0f}%",
            ]
        )
    rows.append(
        [
            0,
            "unpartitioned baseline",
            0,
            batches[None],
            f"{baseline * 1000:.2f} ms",
            "-",
            "-",
        ]
    )
    # Report-only: the paper's 1-3% is not reproduced at this size (see
    # the module docstring); the batch counts above are what is asserted.
    emit(
        "table2_scan_overhead",
        format_table(
            [
                "#parts",
                "Description",
                "parts opened",
                "batches/segment",
                "best time",
                "added",
                "Overhead",
            ],
            rows,
        ),
    )
