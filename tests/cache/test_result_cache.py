"""The result cache: footprint rules and engine-level ``cache='results'``
behaviour (hits skip execution entirely; DML drops exactly the entries it
could have changed)."""

from __future__ import annotations

import pytest

from repro import Database
from repro import types as t
from repro.cache import ResultCache, ResultEntry, statement_key
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    uniform_int_level,
)
from repro.errors import SegmentFailure


def _key(i: int):
    return statement_key(f"SELECT * FROM t WHERE a = {i}")


def _entry(i: int, footprint):
    """An entry whose footprint maps root OIDs to leaf masks."""
    return ResultEntry(
        _key(i), [(1, "a"), (2, "b")], ["n", "s"], footprint
    )


# ---------------------------------------------------------------------------
# ResultEntry footprint semantics
# ---------------------------------------------------------------------------


def test_rows_are_frozen():
    entry = _entry(1, {50: 1 << 1})
    assert entry.rows == ((1, "a"), (2, "b"))
    assert isinstance(entry.rows, tuple)
    assert all(isinstance(row, tuple) for row in entry.rows)
    assert entry.column_names == ("n", "s")


def test_partitioned_footprint_intersects():
    entry = _entry(1, {50: 1 << 1 | 1 << 2})
    assert entry.stale_after(50, 1 << 2)
    assert not entry.stale_after(50, 1 << 3)
    assert entry.stale_after(50, None)  # truncate/drop
    assert not entry.stale_after(60, 1 << 2)  # other table


def test_whole_table_footprint_is_always_sensitive():
    entry = _entry(1, {50: None})
    assert entry.stale_after(50, 1 << 9)
    assert entry.stale_after(50, None)


def test_multi_table_footprint():
    entry = _entry(1, {50: 1 << 1, 60: None})
    assert entry.stale_after(60, 1 << 7)
    assert not entry.stale_after(50, 1 << 7)


def test_result_cache_invalidate_counts():
    cache = ResultCache(max_entries=10, max_bytes=1 << 20)
    cache.store(_entry(1, {50: 1 << 1}))
    cache.store(_entry(2, {50: 1 << 2}))
    assert cache.invalidate(50, 1 << 1) == 1
    assert len(cache) == 1
    assert cache.peek(_key(2)) is not None


# ---------------------------------------------------------------------------
# engine-level behaviour
# ---------------------------------------------------------------------------

DOMAIN, PARTS = 100, 4


def _build_db() -> Database:
    db = Database(num_segments=2, cache="results")
    db.create_table(
        "facts",
        TableSchema.of(("id", t.INT), ("key", t.INT), ("val", t.INT)),
        distribution=DistributionPolicy.hashed("id"),
        partition_scheme=PartitionScheme(
            [uniform_int_level("key", 0, DOMAIN, PARTS)]
        ),
    )
    db.create_table(
        "dim",
        TableSchema.of(("key", t.INT), ("grp", t.INT)),
        distribution=DistributionPolicy.hashed("key"),
    )
    db.insert("facts", [(i, i % DOMAIN, i) for i in range(200)])
    db.insert("dim", [(k, k % 5) for k in range(DOMAIN)])
    db.analyze()
    return db


HOT = "SELECT count(*), sum(val) FROM facts WHERE key >= 0 AND key <= 20"


def test_result_hit_serves_identical_rows_without_executing():
    db = _build_db()
    first = db.sql(HOT)
    assert first.metrics.cache_summary["result"] == "miss"
    assert first.metrics.cache_summary["stored"] is True
    second = db.sql(HOT)
    assert second.metrics.cache_summary["result"] == "hit"
    assert second.rows == first.rows
    assert second.column_names == first.column_names
    # a hit never executes: no elapsed time, no partitions opened
    assert second.elapsed_seconds == 0.0
    assert second.metrics.partitions_scanned() == 0


def test_dml_into_footprint_invalidates_result():
    db = _build_db()
    first = db.sql(HOT)
    db.insert("facts", [(9001, 10, 7)])  # inside the scanned range
    after = db.sql(HOT)
    assert after.metrics.cache_summary["result"] == "miss"
    assert after.rows[0][0] == first.rows[0][0] + 1
    # and the refreshed entry serves the new answer
    assert db.sql(HOT).rows == after.rows


def test_dml_outside_footprint_preserves_result():
    db = _build_db()
    db.sql(HOT)
    db.insert("facts", [(9002, 90, 7)])  # partition outside [0, 20]
    assert db.sql(HOT).metrics.cache_summary["result"] == "hit"


def test_unpartitioned_scan_is_whole_table_sensitive():
    db = _build_db()
    sql = "SELECT count(*) FROM dim"
    db.sql(sql)
    assert db.sql(sql).metrics.cache_summary["result"] == "hit"
    db.insert("dim", [(5000, 1)])
    after = db.sql(sql)
    assert after.metrics.cache_summary["result"] == "miss"
    assert after.rows[0][0] == DOMAIN + 1


def test_join_footprint_covers_both_sides():
    db = _build_db()
    sql = (
        "SELECT count(*) FROM facts f, dim d "
        "WHERE f.key = d.key AND d.grp = 3"
    )
    db.sql(sql)
    assert db.sql(sql).metrics.cache_summary["result"] == "hit"
    db.insert("dim", [(1001, 3)])  # dim side: whole-table sensitivity
    assert db.sql(sql).metrics.cache_summary["result"] == "miss"


@pytest.mark.parametrize(
    "point, values, skip, segment, durable",
    [
        ("insert_row", "(55, 55)", 2, 2, False),
        ("insert_row", "(3, 3), (55, 55)", 6, 2, False),
        ("wal_append", "(55, 55)", 0, 0, True),
        ("wal_fsync", "(55, 55)", 0, -1, True),
    ],
)
def test_an_insert_failing_part_way_invalidates_its_rows_leaves(
    tmp_path, point, values, skip, segment, durable
):
    """A replicated row stored on segments 0 and 1 before segment 2 fails
    changed its leaf, and so did one every copy took before its WAL
    append or fsync failed: the failed INSERT still drops the results
    that leaf feeds, so a cached read answers what an uncached one does."""
    db = Database(num_segments=4, data_dir=str(tmp_path) if durable else None)
    db.create_table(
        "r",
        TableSchema.of(("id", t.INT), ("k", t.INT)),
        distribution=DistributionPolicy.replicated(),
        partition_scheme=PartitionScheme([uniform_int_level("k", 0, 100, 10)]),
    )
    db.insert("r", [(i, i) for i in range(20)])
    sql = "SELECT count(*) FROM r WHERE k >= 50"
    assert db.sql(sql, cache="results").rows == [(0,)]
    assert db.sql(sql, cache="results").metrics.cache_summary["result"] == "hit"
    db.faults.arm(point, mode="fail_once", skip=skip)
    with pytest.raises(SegmentFailure, match=f"{point} on segment {segment} "):
        db.sql(f"INSERT INTO r VALUES {values}")
    db.faults.reset()
    assert db.sql(sql, cache="results").rows == db.sql(sql, cache="off").rows
    if durable:
        db.durability.close()


def test_dml_statements_are_never_result_cached():
    db = _build_db()
    before = len(db.cache.results)
    db.sql("INSERT INTO facts SELECT id, key, val FROM facts WHERE key = 5")
    assert len(db.cache.results) == before


def test_served_rows_are_fresh_copies():
    db = _build_db()
    db.sql(HOT)
    served = db.sql(HOT)
    served.rows.append(("tampered",))
    again = db.sql(HOT)
    assert again.metrics.cache_summary["result"] == "hit"
    assert ("tampered",) not in again.rows


def test_explain_analyze_and_trace_execute_instead_of_hitting():
    """A statement run to be measured reports an execution: with an
    entry cached, EXPLAIN ANALYZE still shows the plan and its actuals,
    and ``trace=True`` still returns the trace."""
    db = _build_db()
    db.sql(HOT)
    assert db.sql(HOT).metrics.cache_summary["result"] == "hit"
    text = db.explain_analyze(HOT)
    assert "DynamicScan" in text and "actual rows=" in text
    assert "result hit" not in text
    traced = db.sql(HOT, trace=True)
    assert traced.trace is not None
    assert traced.metrics.to_dict()["trace"] is not None
    assert traced.metrics.cache_summary["result"] is None  # no lookup
    # measuring never costs the plain repeat its hit
    assert db.sql(HOT).metrics.cache_summary["result"] == "hit"


def test_partitions_mode_is_a_typed_error():
    """Only 'off' and 'results' exist: the settings table rejects the
    removed selection-replay mode wherever a mode is given."""
    from repro.cli import ReplSession

    db = _build_db()
    for attempt in (
        lambda: Database(cache="partitions"),
        lambda: db.sql(HOT, cache="partitions"),
        lambda: db.session(cache="partitions"),
    ):
        with pytest.raises(ValueError, match=r"one of: off, results"):
            attempt()
    shell = ReplSession(db)
    assert shell.handle_line("SET cache partitions;") == (
        "ERROR (sql): unknown cache mode 'partitions' (one of: off, results)"
    )
