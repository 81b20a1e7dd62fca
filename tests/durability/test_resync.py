"""Online mirror resync: a failed-over primary is rebuilt from its
survivor before rejoining, and a rejoin that *can't* rebuild refuses
rather than serving stale rows (the stale-rejoin regression)."""

import datetime
import json
import urllib.request

import pytest

from repro import Database
from repro import types as t
from repro.catalog import DistributionPolicy, TableSchema
from repro.errors import DurabilityError, ResyncRequired, SegmentFailure
from repro.resilience import INSERT_ROW, MIRROR, PRIMARY
from repro.resilience.health import SegmentHealth

START = datetime.date(2013, 1, 1)


def _kv_db(data_dir=None):
    db = Database(
        num_segments=4, data_dir=str(data_dir) if data_dir else None
    )
    db.create_table(
        "kv",
        TableSchema.of(("k", t.INT), ("v", t.INT)),
        distribution=DistributionPolicy.hashed("k"),
    )
    db.insert("kv", [(i, i) for i in range(200)])
    return db


def _copies(db, segment):
    store = db.storage.store_by_name("kv")
    primary = sorted(
        r for rows in store.primary_buckets(segment).values() for r in rows
    )
    mirror = sorted(
        r for rows in store.mirror_buckets(segment).values() for r in rows
    )
    return primary, mirror


def test_wal_resync_rebuilds_the_stale_copy(tmp_path):
    db = _kv_db(tmp_path)
    db.health.failover(2, reason="test")
    db.insert("kv", [(1000 + i, 7) for i in range(80)])
    db.sql("DELETE FROM kv WHERE k < 20")
    assert db.health.is_stale(2, PRIMARY), "segment 2 writes while down must be tracked"
    assert not db.health.is_stale(2, MIRROR)

    db.health.recover(2)
    assert not db.health.is_stale(2, PRIMARY)
    primary, mirror = _copies(db, 2)
    assert primary == mirror
    assert db.health.status()["primaries"] == ["up"] * 4
    assert db.health.resync_count == 1
    assert db.sql("SELECT count(*) FROM kv").rows == [(260,)]
    db.durability.close()


def test_failover_events_are_lsn_stamped(tmp_path):
    db = _kv_db(tmp_path)
    db.health.failover(1)
    event = db.health.failover_events[-1]
    assert event["lsn"] == db.durability.current_lsn()
    db.durability.close()


def test_reads_served_from_mirror_while_resyncing(tmp_path):
    """During the replay the segment is in ``resyncing``: not readable
    from its primary, still readable overall (the mirror serves)."""
    db = _kv_db(tmp_path)
    db.health.failover(3)
    db.insert("kv", [(2000 + i, 1) for i in range(40)])

    observed = {}
    inner = db.health.resync_handler

    def spying_handler(segment, copy):
        observed["state"] = db.health.status()["primaries"][segment]
        observed["mirror_serves"] = db.health.require_readable(segment)
        observed["degraded"] = segment in db.health.down_segments
        inner(segment, copy)

    db.health.resync_handler = spying_handler
    db.health.recover(3)
    assert observed == {
        "state": "resyncing",
        "mirror_serves": True,
        "degraded": True,
    }
    assert db.health.require_readable(3) is False  # primary serves again
    db.durability.close()


def test_stale_rejoin_without_resync_path_refuses():
    """Regression: a bare SegmentHealth (no storage, no WAL) must refuse
    to flip a copy up when it missed writes — rejoining would silently
    serve stale rows."""
    health = SegmentHealth(2)
    health.resync_handler = None
    health.failover(0)
    health.mark_stale(0, PRIMARY)
    with pytest.raises(ResyncRequired):
        health.recover(0)
    # the refusal left the segment down, not half-joined
    assert health.is_up(0) is False
    assert health.is_stale(0, PRIMARY), "stale bit must survive"
    # a clean segment still rejoins instantly
    health.failover(1)
    health.recover(1)
    assert health.is_up(1)


def test_full_copy_resync_without_wal():
    """No data_dir: recover() falls back to rebuilding the stale copy
    wholesale from the survivor."""
    db = _kv_db()
    assert db.durability is None
    db.health.failover(1)
    db.insert("kv", [(3000 + i, 5) for i in range(60)])
    db.sql("DELETE FROM kv WHERE k < 10")
    db.health.recover(1)
    primary, mirror = _copies(db, 1)
    assert primary == mirror
    assert db.sql("SELECT count(*) FROM kv").rows == [(250,)]


def test_mirror_resync_after_mirror_outage(tmp_path):
    db = _kv_db(tmp_path)
    db.health.mark_mirror_down(2)
    db.insert("kv", [(4000 + i, 2) for i in range(40)])
    assert db.health.is_stale(2, MIRROR)
    db.health.recover(2)
    primary, mirror = _copies(db, 2)
    assert primary == mirror
    db.durability.close()


def test_double_fault_write_raises():
    db = _kv_db()
    db.health.failover(0)
    db.health.mark_mirror_down(0)
    with pytest.raises(SegmentFailure):
        db.insert("kv", [(9000 + i, 0) for i in range(50)])


def test_resync_failure_keeps_segment_down(tmp_path):
    db = _kv_db(tmp_path)
    db.health.failover(2)
    db.insert("kv", [(5000 + i, 3) for i in range(40)])

    def broken_handler(segment, copy):
        raise DurabilityError("disk gone")

    inner = db.health.resync_handler
    db.health.resync_handler = broken_handler
    with pytest.raises(DurabilityError):
        db.health.recover(2)
    assert db.health.is_up(2) is False
    assert not db.health.is_resyncing(2)
    # reinstate the real handler: recovery completes on retry
    db.health.resync_handler = inner
    db.health.recover(2)
    assert db.health.is_up(2)
    db.durability.close()


def test_checkpoint_during_double_fault_keeps_committed_rows(tmp_path):
    """The mirror goes down, then takes no writes, then the primary fails
    over: the snapshot must come from the primary, the copy that is not
    stale, or the checkpoint's LSN hides the inserts from replay."""
    db = Database(num_segments=2, data_dir=str(tmp_path))
    db.create_table(
        "kv",
        TableSchema.of(("k", t.INT), ("v", t.INT)),
        distribution=DistributionPolicy.hashed("k"),
    )
    db.insert("kv", [(i, i) for i in range(20)])
    db.health.mark_mirror_down(0)
    db.insert("kv", [(100 + i, 1) for i in range(20)])
    db.health.failover(0)
    db.checkpoint()
    db.durability.close()

    reopened = Database(num_segments=2, data_dir=str(tmp_path))
    assert reopened.sql("SELECT count(*) FROM kv").rows == [(40,)]
    reopened.durability.close()


def test_mutation_fault_points_fire():
    db = _kv_db()
    db.faults.arm(INSERT_ROW, mode="always")
    with pytest.raises(SegmentFailure):
        db.insert("kv", [(7000, 0)])
    db.faults.reset()
    db.faults.arm("delete_rows", mode="always")
    with pytest.raises(SegmentFailure):
        db.sql("DELETE FROM kv WHERE k = 1")
    db.faults.reset()
    # with faults cleared the paths work again
    db.insert("kv", [(7001, 0)])
    assert db.sql("SELECT count(*) FROM kv WHERE k = 7001").rows == [(1,)]


def test_healthz_reports_resyncing_as_degraded(tmp_path):
    """/healthz returns 200 + "degraded" while a segment resyncs."""
    db = _kv_db(tmp_path)
    db.health.failover(1)
    db.insert("kv", [(8000 + i, 6) for i in range(40)])
    scrape = db.serve_scrape(port=0)
    try:
        observed = {}
        inner = db.health.resync_handler

        def probing_handler(segment, copy):
            with urllib.request.urlopen(
                f"{scrape.address}/healthz", timeout=5
            ) as response:
                observed["code"] = response.status
                observed["body"] = json.loads(response.read())
            inner(segment, copy)

        db.health.resync_handler = probing_handler
        db.health.recover(1)
        assert observed["code"] == 200
        assert observed["body"]["status"] == "degraded"
        assert observed["body"]["primaries"][1] == "resyncing"
        assert observed["body"]["resyncing_segments"] == [1]
        # after the resync the endpoint is clean again
        with urllib.request.urlopen(
            f"{scrape.address}/healthz", timeout=5
        ) as response:
            body = json.loads(response.read())
        assert body["status"] == "ok"
        assert body["resync_count"] == 1
    finally:
        scrape.close()
        db.durability.close()


def test_live_gauge_tracks_resyncing_segments(tmp_path):
    db = _kv_db(tmp_path)
    db.health.failover(2)
    db.insert("kv", [(8500 + i, 6) for i in range(10)])

    seen = []
    inner = db.health.resync_handler

    def sampling_handler(segment, copy):
        seen.append(len(db.health.resyncing_segments))
        inner(segment, copy)

    db.health.resync_handler = sampling_handler
    db.health.recover(2)
    assert seen == [1]
    assert db.health.resyncing_segments == []
    db.durability.close()
