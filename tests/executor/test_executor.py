"""MPP execution: motion routing, segment semantics, end-to-end runs."""

import pytest

from repro import types as t
from repro.catalog import DistributionPolicy, TableSchema
from repro.engine import Database
from repro.executor.context import COORDINATOR_SEGMENT, ExecContext
from repro.expr.ast import ColumnRef
from repro.physical.ops import (
    BroadcastMotion,
    GatherMotion,
    RedistributeMotion,
    Scan,
)
from repro.physical.plan import Plan
from tests.conftest import rows_of


@pytest.fixture()
def db() -> Database:
    database = Database(num_segments=3)
    database.create_table(
        "t",
        TableSchema.of(("a", t.INT), ("b", t.INT)),
        distribution=DistributionPolicy.hashed("a"),
    )
    database.insert("t", [(i, i % 5) for i in range(30)])
    database.analyze()
    return database


def _buffered_rows(db, motion):
    plan = Plan(motion)
    ctx = ExecContext(db.catalog, db.storage, db.num_segments)
    # one motion slice on every segment: the statement path
    db.executor._run_motion_slice(motion, ctx, 1, set(), range(db.num_segments))
    return [
        rows_of(motion, segment, ctx)
        for segment in range(db.num_segments)
    ]


def test_gather_routes_to_coordinator(db):
    table = db.catalog.table("t")
    per_segment = _buffered_rows(db, GatherMotion(Scan(table, "t")))
    assert len(per_segment[COORDINATOR_SEGMENT]) == 30
    assert all(not rows for rows in per_segment[1:])


def test_broadcast_copies_everywhere(db):
    table = db.catalog.table("t")
    per_segment = _buffered_rows(db, BroadcastMotion(Scan(table, "t")))
    assert all(len(rows) == 30 for rows in per_segment)


def test_redistribute_partitions_by_hash(db):
    from repro.storage.distribution import segment_for

    table = db.catalog.table("t")
    motion = RedistributeMotion(Scan(table, "t"), [ColumnRef("b", "t")])
    per_segment = _buffered_rows(db, motion)
    assert sum(len(rows) for rows in per_segment) == 30
    for segment, rows in enumerate(per_segment):
        for row in rows:
            assert segment_for(row[1], db.num_segments) == segment


def test_execution_result_metadata(db):
    result = db.sql("SELECT * FROM t WHERE b = 1")
    assert result.column_names == ["a", "b"]
    assert result.rows_scanned == 30  # full scan feeds the filter
    assert len(result) == 6
    assert result.elapsed_seconds >= 0


def test_update_moves_rows_between_segments(db):
    """Updating the distribution key must re-route rows."""
    before = {
        segment: db.storage.store_by_name("t").segment_row_count(segment)
        for segment in range(3)
    }
    result = db.sql("UPDATE t SET a = a + 1000 WHERE b = 0")
    assert result.rows == [(6,)]
    store = db.storage.store_by_name("t")
    assert store.row_count() == 30
    from repro.storage.distribution import segment_for

    for segment in range(3):
        for row in store.scan_segment(segment):
            assert segment_for(row[0], 3) == segment
    rows = dict(store.scan_all())
    assert all(a >= 1000 for a, b in store.scan_all() if b == 0)


def test_update_moves_rows_between_partitions(rs_db):
    """Updating the partition key re-routes through f_T."""
    store = rs_db.storage.store_by_name("r")
    table = rs_db.catalog.table("r")
    first_leaf = table.all_leaf_oids()[0]
    before = store.leaf_row_count(first_leaf)
    rs_db.sql("UPDATE r SET b = 0 WHERE b >= 9000")
    after = store.leaf_row_count(first_leaf)
    assert after > before
    last_leaf = table.all_leaf_oids()[-1]
    assert store.leaf_row_count(last_leaf) == 0
    # restore for other fixtures sharing the module-scoped db
    rs_db.analyze("r")


def test_invalid_plan_rejected_before_execution(db):
    from repro.errors import InvalidPlanError
    from repro.physical.ops import DynamicScan

    # a DynamicScan with no producer must be rejected up front
    from repro.catalog import PartitionScheme, uniform_int_level

    part = db.create_table(
        "p",
        TableSchema.of(("k", t.INT),),
        partition_scheme=PartitionScheme([uniform_int_level("k", 0, 10, 2)]),
    )
    bad = Plan(DynamicScan(part, "p", 1))
    with pytest.raises(InvalidPlanError):
        db.execute_plan(bad)


def test_results_identical_across_segment_counts():
    """Segment count is an execution detail: results must not change."""
    sql = "SELECT b, count(*) AS cnt FROM t WHERE a < 20 GROUP BY b"
    results = []
    for segments in (1, 2, 5):
        database = Database(num_segments=segments)
        database.create_table(
            "t",
            TableSchema.of(("a", t.INT), ("b", t.INT)),
            distribution=DistributionPolicy.hashed("a"),
        )
        database.insert("t", [(i, i % 5) for i in range(30)])
        database.analyze()
        results.append(sorted(database.sql(sql).rows))
    assert results[0] == results[1] == results[2]


def test_in_list_of_date_strings_prunes_and_counts(orders_db):
    """Regression: IN over date-shaped string literals used to crash in
    interval intersection ('str' vs 'date').  It must now execute, return
    the same count as the equivalent OR of equalities, and statically
    prune down to the two partitions holding those months."""
    in_sql = (
        "SELECT count(*) FROM orders "
        "WHERE date IN ('2013-05-15', '2013-06-01')"
    )
    or_sql = (
        "SELECT count(*) FROM orders "
        "WHERE date = '2013-05-15' OR date = '2013-06-01'"
    )
    in_result = orders_db.sql(in_sql)
    assert in_result.rows == orders_db.sql(or_sql).rows
    assert in_result.partitions_scanned("orders") == 2
    # Both optimizers handle it, and a mixed list degrades gracefully:
    # the untranslatable predicate falls back to scanning all partitions
    # (sound) instead of crashing, and the filter still applies.
    assert (
        orders_db.sql(in_sql, optimizer="planner").rows == in_result.rows
    )
    mixed = orders_db.sql(
        "SELECT count(*) FROM orders "
        "WHERE date IN ('2013-05-15', 'not-a-date')"
    )
    only_date = orders_db.sql(
        "SELECT count(*) FROM orders WHERE date = '2013-05-15'"
    )
    assert mixed.rows == only_date.rows
