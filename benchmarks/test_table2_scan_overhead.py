"""Paper Table 2 — Overhead of Partitioning.

``SELECT * FROM lineitem`` over 7 years of data, partitioned per the
paper's four scenarios (42 / 84 / 169 / 361 parts), compared with an
unpartitioned baseline.  The paper reports 1-3% overhead, stable across
partition counts.

Flatness is asserted by count, not clock: a DynamicScan fills each batch
across leaves, so the batches one segment's scan emits, and its calls into
the metrics (``record_scan``, one per batch), do not depend on the
partition count and equal the unpartitioned scan's.

The percentage is reported, not asserted, and at this size it is not
reproduced.  The statement's per-partition work (storage slicing 361 small
buckets per segment, the export's OID list the checks read) is a fixed
cost of about half a millisecond at 361 partitions, and the whole
unpartitioned statement takes under a millisecond, so the percentage
grows with the partition count.  A bound
of ``overhead < 60%`` held in 1 of 20 runs (EXPERIMENTS.md).
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


def _scan_counts(db) -> dict[str, list[int]]:
    """Per segment, the batches the full scan's slice emits and its calls
    into ``record_scan``, counted by running the operators below the
    Gather at the default width."""
    plan = db.plan(QUERY)
    gather = next(op for op in plan.root.walk() if isinstance(op, GatherMotion))
    ctx = ExecContext(db.catalog, db.storage, db.num_segments)
    calls = [0] * db.num_segments
    record_scan = ctx.metrics.record_scan

    def counted(op, table, segment, opened, rows):
        calls[segment] += 1
        record_scan(op, table, segment, opened, rows)

    ctx.metrics.record_scan = counted
    batches = [
        sum(1 for _ in build_batches(gather.children[0], segment, ctx))
        for segment in range(db.num_segments)
    ]
    return {"batches": batches, "record_scan": calls}


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
    segment's scan emits as many batches, and makes as many calls into
    the metrics, as the unpartitioned one."""
    counts = benchmark.pedantic(
        lambda: {parts: _scan_counts(db) for parts, db in databases.items()},
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
        batches[parts] = _scan_counts(db)["batches"]
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
