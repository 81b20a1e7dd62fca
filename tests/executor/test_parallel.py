"""Segment execution order and the Motion buffer.

A statement runs on one thread: slices one after another, and each
slice's segment instances in ascending segment order.  A Motion buffer
keeps one run per (target, producer) pair and hands a target its rows in
producer-segment order.
"""

from __future__ import annotations

import datetime
import sys
import threading

import pytest

from repro import Database
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    monthly_range_level,
)
from repro.errors import ChannelError
from repro.executor.executor import MppExecutor
from repro.executor.queues import MotionBuffer

SEGMENTS = 4
START = datetime.date(2013, 1, 1)

#: multi-slice: the join forces a Redistribute/Broadcast Motion, and the
#: WHERE on the partition key exercises static elimination alongside it.
JOIN_SQL = (
    "SELECT count(*), sum(o.amount) FROM orders o, dim d "
    "WHERE o.id = d.id AND d.tag = 't3'"
)


@pytest.fixture(scope="module")
def pdb() -> Database:
    db = Database(num_segments=SEGMENTS)
    db.create_table(
        "orders",
        TableSchema.of(("id", t.INT), ("date", t.DATE), ("amount", t.FLOAT)),
        distribution=DistributionPolicy.hashed("id"),
        partition_scheme=PartitionScheme(
            [monthly_range_level("date", START, 12)]
        ),
    )
    db.create_table(
        "dim",
        TableSchema.of(("id", t.INT), ("tag", t.TEXT)),
        distribution=DistributionPolicy.hashed("id"),
    )
    db.insert(
        "orders",
        [
            (i, START + datetime.timedelta(days=i % 360), float(i))
            for i in range(800)
        ],
    )
    db.insert("dim", [(i, f"t{i % 7}") for i in range(800)])
    db.analyze()
    return db


@pytest.fixture(autouse=True)
def _clean_state(pdb):
    pdb.faults.reset()
    pdb.health.recover_all()
    yield
    pdb.faults.reset()
    pdb.health.recover_all()


# ---------------------------------------------------------------------------
# MotionBuffer contract
# ---------------------------------------------------------------------------


def test_queue_merges_runs_in_producer_order():
    buffer = MotionBuffer(num_segments=4)
    # sends interleaved across producers
    buffer.send_batch(1, [("b", 1)], producer=2)
    buffer.send_batch(1, [("a", 1)], producer=0)
    buffer.send_batch(1, [("b", 2)], producer=2)
    buffer.send_batch(1, [("a", 2)], producer=0)
    buffer.send_batch(1, [("c", 1)], producer=3)
    buffer.close()
    assert buffer.rows(1) == [
        ("a", 1), ("a", 2), ("b", 1), ("b", 2), ("c", 1)
    ]
    # non-destructive: a retried consumer re-reads the same rows
    assert buffer.rows(1) == buffer.rows(1)


def test_queue_drain_before_close_raises():
    buffer = MotionBuffer(num_segments=1)
    buffer.send_batch(0, [(1,)], producer=0)
    with pytest.raises(ChannelError, match="before its producers closed"):
        buffer.rows(0)


def test_queue_put_after_close_raises():
    buffer = MotionBuffer(num_segments=1)
    buffer.close()
    with pytest.raises(ChannelError, match="closed motion queue"):
        buffer.send_batch(0, [(1,)], producer=0)


def test_queue_double_close_raises():
    buffer = MotionBuffer(num_segments=1)
    buffer.close()
    with pytest.raises(ChannelError, match="double close"):
        buffer.close()


def test_queue_discard_producer_drops_only_that_run():
    buffer = MotionBuffer(num_segments=2)
    buffer.send_batch(0, [(1,)], producer=0)
    buffer.send_batch(0, [(2,)], producer=1)
    buffer.send_batch(0, [(3,)], producer=1)
    assert buffer.discard_producer(1) == 2
    assert buffer.discard_producer(1) == 0  # already gone
    buffer.close()
    assert buffer.rows(0) == [(1,)]


def test_motion_buffer_routes_and_discards_per_target():
    buffer = MotionBuffer(num_segments=2)
    buffer.send_batch(0, [("x",)], producer=1)
    buffer.send_batch(1, [("y",)], producer=1)
    buffer.send_batch(1, [("z",)], producer=0)
    assert buffer.discard_producer(1) == 2
    buffer.close()
    assert buffer.rows(0) == []
    assert buffer.rows(1) == [("z",)]
    assert buffer.closed


def test_motion_buffer_without_a_lock_loses_no_rows_under_thread_churn():
    """Eight producer threads (more than cores) on a tiny switch interval
    send batches to every target, and each discards and re-sends its own
    runs once, as an instance retry does; once every producer has
    finished, every target reads each producer's rows exactly once, in
    producer order.  A statement writes its buffers from one thread; this
    checks the buffer does not depend on that."""
    producers, targets, batches = 8, 4, 1000
    buffer = MotionBuffer(num_segments=producers)

    def send(producer: int) -> None:
        for attempt in (0, 1):
            for i in range(batches):
                for target in range(targets):
                    buffer.send_batch(target, [(producer, i)], producer)
            if attempt == 0:
                assert buffer.discard_producer(producer) == batches * targets

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [
        threading.Thread(target=send, args=(p,)) for p in range(producers)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    buffer.close()
    expected = [(p, i) for p in range(producers) for i in range(batches)]
    for target in range(targets):
        assert buffer.rows(target) == expected
    for target in range(targets, producers):
        assert buffer.rows(target) == []


# ---------------------------------------------------------------------------
# One execution order
# ---------------------------------------------------------------------------


def test_instances_run_in_segment_order_on_the_statement_thread(
    pdb, monkeypatch
):
    ran: list[tuple[int, int]] = []
    send = MppExecutor._send_segment

    def recording(self, motion, ctx, segment, buffer):
        ran.append((threading.get_ident(), segment))
        return send(self, motion, ctx, segment, buffer)

    monkeypatch.setattr(MppExecutor, "_send_segment", recording)
    result = pdb.sql(JOIN_SQL, analyze=True)
    assert {ident for ident, _ in ran} == {threading.get_ident()}
    sending = len(result.metrics.slices) - 1
    assert [segment for _, segment in ran] == list(range(SEGMENTS)) * sending
    # the instance log is written in run order: slice by slice, and
    # within a slice in ascending segment order
    logged = [(e["slice_id"], e["segment"]) for e in result.metrics.instances]
    slices = [entry["id"] for entry in result.metrics.slices]
    assert logged == [(s, g) for s in slices for g in range(SEGMENTS)]


def test_default_execution_stays_serial(pdb):
    data = pdb.sql(JOIN_SQL, analyze=True).metrics.to_dict()
    assert set(data["parallel"]) == {
        "batch_size", "instances", "instance_busy_seconds"
    }
    assert data["parallel"]["instance_busy_seconds"] == pytest.approx(
        sum(e["seconds"] for e in data["parallel"]["instances"])
    )


def test_explain_analyze_parallel_line(pdb):
    assert "Parallel:" not in pdb.explain_analyze(JOIN_SQL)
