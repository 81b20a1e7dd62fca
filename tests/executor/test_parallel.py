"""Parallel segment execution: the thread-pool scheduler, bounded Motion
queues, and serial/parallel result equivalence.

The acceptance contract: ``db.sql(query, workers=N)`` must return rows
byte-identical to the serial run, with identical partition-elimination
and Motion counters, for any worker count — parallelism is an execution
strategy, never a semantics change.
"""

from __future__ import annotations

import datetime
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
from repro.executor.queues import MotionBuffer, TupleQueue
from repro.executor.scheduler import SegmentScheduler
from repro.resilience import FAIL_ONCE, MOTION_SEND, SCAN_ROW

SEGMENTS = 4
START = datetime.date(2013, 1, 1)

#: multi-slice: the join forces a Redistribute/Broadcast Motion, and the
#: WHERE on the partition key exercises static elimination alongside it.
JOIN_SQL = (
    "SELECT count(*), sum(o.amount) FROM orders o, dim d "
    "WHERE o.id = d.id AND d.tag = 't3'"
)
SCAN_SQL = (
    "SELECT count(*) FROM orders "
    "WHERE date BETWEEN '03-01-2013' AND '08-31-2013'"
)
#: join on the partition key: a dynamic selector pushes OIDs per streamed
#: row, beside a static one
DPE_SQL = (
    "SELECT count(*) FROM orders o, orders p "
    "WHERE o.date = p.date AND p.id < 40"
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
# TupleQueue contract
# ---------------------------------------------------------------------------


def test_queue_merges_runs_in_producer_order():
    queue = TupleQueue()
    # pushes interleaved across producers, as worker threads would
    queue.put(("b", 1), producer=2)
    queue.put(("a", 1), producer=0)
    queue.put(("b", 2), producer=2)
    queue.put(("a", 2), producer=0)
    queue.put(("c", 1), producer=3)
    queue.close()
    assert queue.rows() == [
        ("a", 1), ("a", 2), ("b", 1), ("b", 2), ("c", 1)
    ]
    # non-destructive: a retried consumer re-reads the same rows
    assert queue.rows() == queue.rows()


def test_queue_drain_before_close_raises():
    queue = TupleQueue()
    queue.put((1,))
    with pytest.raises(ChannelError, match="before its producers closed"):
        queue.rows()


def test_queue_put_after_close_raises():
    queue = TupleQueue()
    queue.close()
    with pytest.raises(ChannelError, match="closed motion queue"):
        queue.put((1,))


def test_queue_double_close_raises():
    queue = TupleQueue()
    queue.close()
    with pytest.raises(ChannelError, match="double close"):
        queue.close()


def test_queue_full_with_no_consumer_fails_fast():
    """A bounded queue with nobody draining it must raise, not deadlock."""
    queue = TupleQueue(capacity=2)
    queue.put((1,))
    queue.put((2,))
    with pytest.raises(ChannelError, match="no consumer attached"):
        queue.put((3,))


def test_queue_backpressure_with_streaming_consumer():
    """With a live stream() consumer, bounded put() blocks until the
    consumer frees a slot — and every row still arrives exactly once."""
    queue = TupleQueue(capacity=2)
    produced = list(range(50))
    received: list[tuple] = []

    def producer():
        for i in produced:
            queue.put((i,))
        queue.close()

    consumer_ready = threading.Event()

    def consumer():
        stream = queue.stream()
        consumer_ready.set()
        for row in stream:
            received.append(row)

    consumer_thread = threading.Thread(target=consumer)
    consumer_thread.start()
    consumer_ready.wait()
    producer_thread = threading.Thread(target=producer)
    producer_thread.start()
    producer_thread.join(timeout=10)
    consumer_thread.join(timeout=10)
    assert not producer_thread.is_alive() and not consumer_thread.is_alive()
    assert received == [(i,) for i in produced]


def test_queue_discard_producer_drops_only_that_run():
    queue = TupleQueue()
    queue.put((1,), producer=0)
    queue.put((2,), producer=1)
    queue.put((3,), producer=1)
    assert queue.discard_producer(1) == 2
    assert queue.discard_producer(1) == 0  # already gone
    queue.close()
    assert queue.rows() == [(1,)]


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


# ---------------------------------------------------------------------------
# SegmentScheduler
# ---------------------------------------------------------------------------


def test_scheduler_serial_runs_inline_in_order():
    scheduler = SegmentScheduler(workers=1)
    assert not scheduler.parallel
    order: list[int] = []
    results = scheduler.run_slice(
        [lambda i=i: (order.append(i), i)[1] for i in range(4)]
    )
    assert results == [0, 1, 2, 3]
    assert order == [0, 1, 2, 3]


def test_scheduler_parallel_returns_segment_order():
    with SegmentScheduler(workers=4) as scheduler:
        assert scheduler.parallel
        results = scheduler.run_slice([lambda i=i: i * 10 for i in range(8)])
    assert results == [i * 10 for i in range(8)]


def test_scheduler_parallel_raises_lowest_segment_failure():
    def boom(i):
        raise RuntimeError(f"segment {i}")

    with SegmentScheduler(workers=4) as scheduler:
        with pytest.raises(RuntimeError, match="segment 1"):
            scheduler.run_slice(
                [
                    lambda: 0,
                    lambda: boom(1),
                    lambda: 2,
                    lambda: boom(3),
                ]
            )


def test_scheduler_rejects_zero_workers():
    with pytest.raises(ValueError):
        SegmentScheduler(workers=0)


# ---------------------------------------------------------------------------
# End-to-end equivalence and metrics
# ---------------------------------------------------------------------------


def _counters(metrics) -> dict:
    """Every counter of the export: per node rows by segment, loops, the
    scan's OIDs and rows and the Motion's rows by target and bytes; per
    selector its OIDs pushed; per table; and the totals."""
    data = metrics.to_dict()
    return {
        "nodes": [
            (n["op"], n["rows_by_segment"], n["loops"], n.get("scan"), n.get("motion"))
            for n in data["nodes"]
        ],
        "selectors": data["partition_selectors"],
        "tables": data["tables"],
        "totals": data["totals"],
    }


@pytest.mark.parametrize("sql", [JOIN_SQL, SCAN_SQL, DPE_SQL])
@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_rows_and_counters_match_serial(pdb, sql, workers):
    serial = pdb.sql(sql, analyze=True)
    parallel = pdb.sql(sql, analyze=True, workers=workers)
    assert parallel.rows == serial.rows
    assert _counters(parallel.metrics) == _counters(serial.metrics)
    assert parallel.metrics.partitions_scanned() > 0
    assert any(n.rows_moved for n in parallel.metrics.nodes if n.is_motion)


def test_default_execution_stays_serial(pdb):
    result = pdb.sql(JOIN_SQL, analyze=True)
    data = result.metrics.to_dict()
    assert data["parallel"]["workers"] == 1
    assert data["parallel"]["mode"] == "serial"
    assert data["parallel"]["overlap"] is None


def test_parallel_metrics_section_shape(pdb):
    result = pdb.sql(JOIN_SQL, analyze=True, workers=4)
    data = result.metrics.to_dict()
    section = data["parallel"]
    assert section["workers"] == 4
    assert section["mode"] == "parallel"
    instances = section["instances"]
    assert instances, "per-(slice, segment) instance walls recorded"
    # every instance is attributed, in deterministic (slice, segment) order
    keys = [(e["slice_id"], e["segment"]) for e in instances]
    assert keys == sorted(keys)
    assert all(e["seconds"] >= 0.0 for e in instances)
    # every slice ran one instance per segment
    slices = {e["slice_id"] for e in instances}
    for slice_id in slices:
        segs = [e["segment"] for e in instances if e["slice_id"] == slice_id]
        assert segs == list(range(SEGMENTS))
    assert section["instance_busy_seconds"] == pytest.approx(
        sum(e["seconds"] for e in instances)
    )


def test_parallel_trace_has_segment_spans(pdb):
    result = pdb.sql(JOIN_SQL, trace=True, workers=4)
    tracer = result.trace
    slices = [s for s in tracer.spans if s.name.startswith("slice:")]
    assert slices
    for slice_span in slices:
        children = [
            s for s in tracer.spans if s.parent_id == slice_span.span_id
        ]
        seg_names = sorted(
            s.name for s in children if s.name.startswith("segment:")
        )
        assert seg_names == [f"segment:{i}" for i in range(SEGMENTS)]
    # serial traces stay exactly as before: no per-segment spans
    serial = pdb.sql(JOIN_SQL, trace=True)
    assert not any(
        s.name.startswith("segment:") for s in serial.trace.spans
    )


def test_explain_analyze_parallel_line(pdb):
    text = pdb.explain_analyze(JOIN_SQL, workers=4)
    assert "Parallel: 4 workers" in text
    serial_text = pdb.explain_analyze(JOIN_SQL)
    assert "Parallel:" not in serial_text


def test_workers_validation(pdb):
    with pytest.raises(ValueError):
        pdb.sql(JOIN_SQL, workers=0)


def test_database_level_workers_default():
    db = Database(num_segments=2, workers=2)
    db.create_table(
        "kv",
        TableSchema.of(("k", t.INT), ("v", t.INT)),
        distribution=DistributionPolicy.hashed("k"),
    )
    db.insert("kv", [(i, i) for i in range(20)])
    result = db.sql("SELECT count(*) FROM kv", analyze=True)
    assert result.rows == [(20,)]
    assert result.metrics.to_dict()["parallel"]["workers"] == 2


# ---------------------------------------------------------------------------
# Parallel execution under fault injection
# ---------------------------------------------------------------------------


def test_parallel_failover_retries_only_failed_instance(pdb):
    baseline = pdb.sql(JOIN_SQL).rows
    pdb.faults.arm(SCAN_ROW, segment=2, mode=FAIL_ONCE)
    result = pdb.sql(JOIN_SQL, analyze=True, workers=4)
    assert result.rows == baseline
    metrics = result.metrics
    assert metrics.failover_count == 1
    assert metrics.retry_count == 1
    assert metrics.retries[0]["segment"] == 2
    # only the failed segment's instance re-ran: it alone appears twice
    # in the per-instance wall log for its slice
    data = metrics.to_dict()
    counts: dict[tuple[int, int], int] = {}
    for entry in data["parallel"]["instances"]:
        key = (entry["slice_id"], entry["segment"])
        counts[key] = counts.get(key, 0) + 1
    assert all(count == 1 for count in counts.values()), (
        "retry happens inside one instance attempt window, other "
        "instances never re-run"
    )


def test_parallel_transient_retry_matches_serial_counters(pdb):
    baseline = pdb.sql(JOIN_SQL).rows
    pdb.faults.arm(MOTION_SEND, segment=1, mode=FAIL_ONCE, transient=True)
    serial = pdb.sql(JOIN_SQL)
    assert serial.metrics.retry_count == 1
    pdb.faults.reset()
    pdb.faults.arm(MOTION_SEND, segment=1, mode=FAIL_ONCE, transient=True)
    result = pdb.sql(JOIN_SQL, workers=4)
    assert result.rows == baseline
    assert result.metrics.retry_count == 1
    assert result.metrics.failover_count == 0
    assert pdb.health.is_up(1)
    # the failed attempt's counts stay in both runs, slot for slot
    assert _counters(result.metrics) == _counters(serial.metrics)
