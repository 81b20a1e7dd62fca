"""Restart recovery: ``Database(data_dir=...)`` replays checkpoint + WAL
tail back into storage — DDL, DML, partitioned tables, dates, torn tails,
checkpoint swaps."""

import datetime
import json

import pytest

from repro import Database
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    monthly_range_level,
)
from repro.errors import DurabilityError

START = datetime.date(2013, 1, 1)


def _db(data_dir, **kwargs):
    return Database(num_segments=4, data_dir=str(data_dir), **kwargs)


def _close(db):
    if db.durability is not None:
        db.durability.close()


def _orders(db):
    db.create_table(
        "orders",
        TableSchema.of(("id", t.INT), ("date", t.DATE), ("amount", t.FLOAT)),
        distribution=DistributionPolicy.hashed("id"),
        partition_scheme=PartitionScheme(
            [monthly_range_level("date", START, 12)]
        ),
    )
    db.insert(
        "orders",
        [
            (i, START + datetime.timedelta(days=i % 360), float(i))
            for i in range(300)
        ],
    )


def test_wal_only_round_trip(tmp_path):
    db = _db(tmp_path)
    _orders(db)
    db.sql("DELETE FROM orders WHERE id < 40")
    expected = sorted(db.sql("SELECT id, date, amount FROM orders").rows)
    _close(db)

    recovered = _db(tmp_path)
    assert (
        sorted(recovered.sql("SELECT id, date, amount FROM orders").rows)
        == expected
    )
    assert recovered.durability.recovery_replayed_records > 0
    # partition pruning still works on the recovered catalog
    result = recovered.sql(
        "SELECT count(*) FROM orders "
        "WHERE date BETWEEN '2013-03-01' AND '2013-04-30'"
    )
    assert result.metrics.partitions_scanned() <= 2
    _close(recovered)


def test_checkpoint_then_restart(tmp_path):
    db = _db(tmp_path)
    _orders(db)
    summary = db.checkpoint()
    assert db.durability.wal_size_bytes() == 0
    assert summary["bytes"] > 0
    expected = sorted(db.sql("SELECT id FROM orders").rows)
    _close(db)

    recovered = _db(tmp_path)
    assert sorted(recovered.sql("SELECT id FROM orders").rows) == expected
    # nothing to replay: the whole state came from the snapshot
    assert recovered.durability.recovery_replayed_records == 0
    assert recovered.durability.recovery_checkpoint_lsn == summary["lsn"]
    _close(recovered)


def test_checkpoint_plus_wal_tail(tmp_path):
    db = _db(tmp_path)
    _orders(db)
    db.checkpoint()
    db.insert("orders", [(1000 + i, START, 1.0) for i in range(20)])
    db.sql("DELETE FROM orders WHERE id < 10")
    expected = sorted(db.sql("SELECT id, amount FROM orders").rows)
    _close(db)

    recovered = _db(tmp_path)
    assert sorted(recovered.sql("SELECT id, amount FROM orders").rows) == expected
    assert recovered.durability.recovery_replayed_records > 0
    _close(recovered)


def test_recovered_oids_are_stable(tmp_path):
    db = _db(tmp_path)
    _orders(db)
    before = db.catalog.table("orders")
    leaf_oids = dict(before._leaf_oids)
    _close(db)

    recovered = _db(tmp_path)
    after = recovered.catalog.table("orders")
    assert after.oid == before.oid
    assert dict(after._leaf_oids) == leaf_oids
    # new tables must not collide with recovered OIDs
    recovered.create_table(
        "extra",
        TableSchema.of(("k", t.INT)),
        distribution=DistributionPolicy.hashed("k"),
    )
    assert recovered.catalog.table("extra").oid > max(
        [before.oid] + list(leaf_oids.values())
    )
    _close(recovered)


def test_drop_table_round_trip(tmp_path):
    db = _db(tmp_path)
    _orders(db)
    db.create_table(
        "scratch",
        TableSchema.of(("k", t.INT)),
        distribution=DistributionPolicy.hashed("k"),
    )
    db.insert("scratch", [(i,) for i in range(10)])
    db.drop_table("scratch")
    _close(db)

    recovered = _db(tmp_path)
    assert not recovered.catalog.has_table("scratch")
    assert recovered.catalog.has_table("orders")
    _close(recovered)


def test_torn_segment_tail_recovers_committed_prefix(tmp_path):
    db = _db(tmp_path)
    _orders(db)
    expected = sorted(db.sql("SELECT id FROM orders").rows)
    _close(db)
    # a crash mid-append tears the last line of one segment's log — but
    # the statement it belonged to is not in any commit marker here, so
    # torn garbage simply vanishes
    wal = tmp_path / "wal" / "seg0.wal"
    with open(wal, "ab") as fh:
        fh.write(b'{"type":"insert","lsn":999')

    recovered = _db(tmp_path)
    assert sorted(recovered.sql("SELECT id FROM orders").rows) == expected
    _close(recovered)


def test_uncommitted_records_are_not_replayed(tmp_path):
    """Data records without a commit marker (crash between the segment
    append and the marker append) must not resurrect."""
    db = _db(tmp_path)
    db.create_table(
        "kv",
        TableSchema.of(("k", t.INT), ("v", t.INT)),
        distribution=DistributionPolicy.hashed("k"),
    )
    db.insert("kv", [(i, i) for i in range(40)])
    expected = sorted(db.sql("SELECT k FROM kv").rows)
    _close(db)
    # drop the last commit marker: its statement's data records are now
    # orphaned, exactly as if the process died pre-marker
    commit_wal = tmp_path / "wal" / "commit.wal"
    lines = commit_wal.read_bytes().splitlines(keepends=True)
    dropped = json.loads(lines[-1])
    commit_wal.write_bytes(b"".join(lines[:-1]))

    recovered = _db(tmp_path)
    rows = sorted(recovered.sql("SELECT k FROM kv").rows)
    assert len(rows) < len(expected)
    assert dropped["lsns"]  # the marker we dropped really covered records
    # both copies agree after recovery
    store = recovered.storage.store_by_name("kv")
    for segment in range(4):
        primary = sorted(
            r for rows_ in store.primary_buckets(segment).values() for r in rows_
        )
        mirror = sorted(
            r for rows_ in store.mirror_buckets(segment).values() for r in rows_
        )
        assert primary == mirror
    _close(recovered)


def test_corrupt_checkpoint_falls_back_to_old(tmp_path):
    db = _db(tmp_path)
    _orders(db)
    db.checkpoint()
    db.insert("orders", [(5000, START, 9.0)])
    db.checkpoint()
    expected = sorted(db.sql("SELECT id FROM orders").rows)
    _close(db)
    # wreck the current checkpoint's manifest; fabricate an "old" snapshot
    # by copying it first (the swap normally removes checkpoint.old)
    import shutil

    current = tmp_path / "checkpoint"
    shutil.copytree(current, tmp_path / "checkpoint.old")
    (current / "manifest.json").write_text("{ not json")

    recovered = _db(tmp_path)
    assert sorted(recovered.sql("SELECT id FROM orders").rows) == expected
    _close(recovered)


def test_stale_checkpoint_tmp_is_discarded(tmp_path):
    db = _db(tmp_path)
    _orders(db)
    expected = sorted(db.sql("SELECT id FROM orders").rows)
    _close(db)
    tmp = tmp_path / "checkpoint.tmp"
    tmp.mkdir()
    (tmp / "seg0.json").write_text("{}")  # died before manifest.json

    recovered = _db(tmp_path)
    assert not tmp.exists()
    assert sorted(recovered.sql("SELECT id FROM orders").rows) == expected
    _close(recovered)


def test_checkpoint_without_data_dir_raises():
    db = Database(num_segments=4)
    with pytest.raises(DurabilityError):
        db.checkpoint()


def test_background_checkpointer(tmp_path):
    db = _db(tmp_path, checkpoint_interval_s=0.05)
    _orders(db)
    deadline = 100
    import time

    while db.durability.checkpoints == 0 and deadline:
        time.sleep(0.05)
        deadline -= 1
    assert db.durability.checkpoints > 0
    _close(db)

    recovered = _db(tmp_path)
    assert recovered.sql("SELECT count(*) FROM orders").rows == [(300,)]
    _close(recovered)


def test_metrics_carry_durability_section(tmp_path):
    db = _db(tmp_path)
    _orders(db)
    result = db.sql("SELECT count(*) FROM orders")
    data = result.metrics.to_dict()
    section = data["durability"]
    assert section["enabled"] is True
    assert section["wal_records"] > 0
    assert section["wal_sync"] == "sync"
    assert section["resyncing_segments"] == []
    _close(db)


def test_reads_do_not_wait_behind_a_commit(tmp_path):
    """Every statement exports the durability counters; that must not
    queue a reader behind the lock a commit holds across its fsyncs."""
    import threading

    db = _db(tmp_path)
    _orders(db)
    committing, done = threading.Event(), threading.Event()

    def commit_in_progress():
        with db.durability._lock:
            committing.set()
            done.wait(5.0)

    writer = threading.Thread(target=commit_in_progress)
    writer.start()
    try:
        assert committing.wait(5.0)
        answered = threading.Event()
        reader = threading.Thread(
            target=lambda: (db.sql("SELECT count(*) FROM orders"), answered.set())
        )
        reader.start()
        assert answered.wait(2.0), "a read blocked on the commit lock"
        reader.join()
    finally:
        done.set()
        writer.join()
    _close(db)


def test_metrics_without_data_dir_mark_durability_off():
    db = Database(num_segments=4)
    db.create_table(
        "kv",
        TableSchema.of(("k", t.INT)),
        distribution=DistributionPolicy.hashed("k"),
    )
    db.insert("kv", [(1,)])
    data = db.sql("SELECT count(*) FROM kv").metrics.to_dict()
    assert data["durability"]["enabled"] is False


def test_prometheus_families(tmp_path):
    from repro.obs.prom import export_prometheus

    db = _db(tmp_path)
    _orders(db)
    db.checkpoint()
    text = export_prometheus(db)
    assert "repro_durability_wal_records_total" in text
    assert "repro_durability_checkpoints_total 1" in text
    assert "repro_durability_resyncing_segments 0" in text
    _close(db)


def test_async_wal_mode_still_recovers(tmp_path):
    db = _db(tmp_path, wal_sync="async")
    _orders(db)
    assert db.durability.wal_fsyncs == 0
    expected = sorted(db.sql("SELECT id FROM orders").rows)
    _close(db)
    recovered = _db(tmp_path)
    assert sorted(recovered.sql("SELECT id FROM orders").rows) == expected
    _close(recovered)
