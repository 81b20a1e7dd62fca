"""One statement is one write: it is logged under one commit marker and
published only after that marker is durable, so a statement that raises
leaves memory and disk as it found them."""

import pytest

from repro import Database
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    uniform_int_level,
)
from repro.durability.wal import scan
from repro.errors import ReproError, SegmentFailure

MOVE_ALL = "UPDATE t SET k = (k + 20) % 400"


def _open(data_dir, num_segments=4):
    return Database(num_segments=num_segments, data_dir=str(data_dir), wal_sync="sync")


def _rows(db, table):
    return sorted(db.sql(f"SELECT * FROM {table}").rows)


def _buckets(db, table):
    store = db.storage.store_by_name(table)
    return [store.primary_buckets(seg) for seg in range(db.num_segments)]


def _reopened(data_dir, live, table):
    """Rejoin any copy a fault failed over, close ``live``, reopen its
    data_dir, and check the reopened buckets hold the live ones' rows in
    the live order; returns the rows."""
    live.health.recover_all()
    store = live.storage.store_by_name(table)
    buckets = _buckets(live, table)
    assert buckets == [store.mirror_buckets(seg) for seg in range(live.num_segments)]
    live.durability.close()
    reopened = _open(data_dir, live.num_segments)
    try:
        assert _buckets(reopened, table) == buckets
        return _rows(reopened, table)
    finally:
        reopened.durability.close()


def _moving_table(data_dir):
    db = _open(data_dir)
    db.create_table(
        "t",
        TableSchema.of(("id", t.INT), ("k", t.INT)),
        partition_scheme=PartitionScheme([uniform_int_level("k", 0, 400, 20)]),
    )
    db.insert("t", [(i, i) for i in range(400)])
    return db


def _markers(data_dir):
    return len(scan(data_dir / "wal" / "commit.wal")[0])


def test_an_update_moving_every_row_commits_once(tmp_path):
    db = _moving_table(tmp_path)
    markers, fsyncs = _markers(tmp_path), db.durability.wal_fsyncs
    assert db.sql(MOVE_ALL).rows == [(400,)]
    assert _markers(tmp_path) == markers + 1
    assert db.durability.wal_fsyncs - fsyncs <= 5
    moved = [(i, (i + 20) % 400) for i in range(400)]
    assert _rows(db, "t") == sorted(moved)
    assert _reopened(tmp_path, db, "t") == sorted(moved)


@pytest.mark.parametrize("mode", ["fail_once", "always"])
def test_an_update_failing_at_its_101st_row_moves_all_rows_or_none(tmp_path, mode):
    """The fault fires while the write is staged, before anything
    changes: a retry of the statement then moves every row, and a
    statement that gives up leaves every row where it was."""
    db = _moving_table(tmp_path)
    db.faults.arm("insert_row", skip=100, mode=mode)
    if mode == "fail_once":
        assert db.sql(MOVE_ALL).rows == [(400,)]
        expected = sorted((i, (i + 20) % 400) for i in range(400))
    else:
        with pytest.raises(ReproError):
            db.sql(MOVE_ALL)
        expected = [(i, i) for i in range(400)]
    db.faults.reset()
    assert _rows(db, "t") == expected
    assert _reopened(tmp_path, db, "t") == expected


#: statement -> (SQL, the write-side fault points it reaches, its effect)
STATEMENTS = {
    "update": (
        MOVE_ALL,
        {"insert_row", "delete_rows", "wal_append", "wal_fsync"},
        lambda rows: sorted((i, (k + 20) % 400) for i, k in rows),
    ),
    "delete": (
        "DELETE FROM t WHERE k < 200",
        {"delete_rows", "wal_append", "wal_fsync"},
        lambda rows: [(i, k) for i, k in rows if k >= 200],
    ),
    "insert_select": (
        "INSERT INTO t SELECT id + 400, k FROM t WHERE k < 100",
        {"insert_row", "wal_append", "wal_fsync"},
        lambda rows: sorted(rows + [(i + 400, k) for i, k in rows if k < 100]),
    ),
}


@pytest.mark.parametrize("point", ["insert_row", "delete_rows", "wal_append", "wal_fsync"])
@pytest.mark.parametrize("statement", sorted(STATEMENTS))
def test_a_statement_failing_at_any_write_point_changes_nothing(tmp_path, statement, point):
    """A fault point that always fires makes every statement that reaches
    it raise a ReproError and leave the table as it was; a statement that
    never reaches it is applied whole."""
    db = _moving_table(tmp_path)
    sql, reached, effect = STATEMENTS[statement]
    before = _rows(db, "t")
    db.faults.arm(point, mode="always")
    if point in reached:
        with pytest.raises(ReproError):
            db.sql(sql)
        expected = before
    else:
        db.sql(sql)
        expected = effect(before)
    db.faults.reset()
    assert _rows(db, "t") == expected
    assert _reopened(tmp_path, db, "t") == expected


def _kv(data_dir, distribution=None):
    db = _open(data_dir, num_segments=2)
    db.create_table(
        "kv", TableSchema.of(("id", t.INT), ("k", t.INT)), distribution=distribution
    )
    db.insert("kv", [(1, 1)])
    return db


def test_a_failed_commit_fsync_leaves_memory_and_disk_as_they_were(tmp_path):
    """The commit log's fsync fails after the marker was appended: the
    INSERT raises, memory never took the row, and the marker is cut from
    the log, so a reopened database does not recover the row either."""
    db = _kv(tmp_path)
    db.faults.arm("wal_fsync", mode="fail_once", skip=1)
    with pytest.raises(SegmentFailure):
        db.sql("INSERT INTO kv VALUES (2, 2)")
    db.faults.reset()
    assert _rows(db, "kv") == [(1, 1)]
    assert _reopened(tmp_path, db, "kv") == [(1, 1)]


def test_a_failed_commit_marker_reports_no_missed_write(tmp_path):
    """With segment 0's primary down, the INSERT's record for segment 0
    is logged as missed by that copy, but its commit marker never lands:
    health learns of no missed LSN, and the copy rejoins equal to its
    mirror."""
    db = _kv(tmp_path, DistributionPolicy.replicated())
    db.health.failover(0)
    db.faults.arm("wal_append", segment=-1, mode="fail_once")
    with pytest.raises(SegmentFailure):
        db.sql("INSERT INTO kv VALUES (2, 2)")
    db.faults.reset()
    assert not db.health.is_stale(0)
    db.health.recover(0)
    store = db.storage.store_by_name("kv")
    assert store.primary_buckets(0) == store.mirror_buckets(0)
    assert _rows(db, "kv") == [(1, 1)]
    assert _reopened(tmp_path, db, "kv") == [(1, 1)]


def test_a_failed_create_table_log_leaves_no_table(tmp_path):
    db = _open(tmp_path)
    db.faults.arm("wal_append", segment=-1, mode="fail_once")
    with pytest.raises(SegmentFailure):
        db.create_table("x", TableSchema.of(("id", t.INT)))
    db.faults.reset()
    assert not db.catalog.has_table("x")
    db.create_table("x", TableSchema.of(("id", t.INT)))  # the name is free
    db.insert("x", [(1,)])
    assert _reopened(tmp_path, db, "x") == [(1,)]


def test_a_failed_drop_table_log_keeps_the_table(tmp_path):
    db = _kv(tmp_path)
    db.faults.arm("wal_append", segment=-1, mode="fail_once")
    with pytest.raises(SegmentFailure):
        db.drop_table("kv")
    db.faults.reset()
    assert _rows(db, "kv") == [(1, 1)]
    assert _reopened(tmp_path, db, "kv") == [(1, 1)]


def test_replaying_a_delete_keeps_the_bucket_order(tmp_path):
    """Duplicate victims sit between and after kept rows of one bucket;
    the reopened bucket equals the live one list for list."""
    db = _open(tmp_path, num_segments=1)
    db.create_table("g", TableSchema.of(("id", t.INT), ("v", t.INT)))
    db.insert("g", [(0, 0), (5, 5), (1, 1), (5, 5), (2, 2), (6, 6), (5, 5), (3, 3)])
    db.insert("g", [(6, 6), (4, 4)])
    db.sql("DELETE FROM g WHERE id >= 5")
    assert _buckets(db, "g") == [{db.catalog.table("g").oid: [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]}]
    assert _reopened(tmp_path, db, "g") == [(i, i) for i in range(5)]
