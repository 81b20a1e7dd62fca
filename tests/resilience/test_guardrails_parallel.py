"""Guardrails under the parallel scheduler: timeout/cancel must
terminate promptly at workers=4 and must never leak worker threads or
parked producers."""

from __future__ import annotations

import datetime
import random
import threading
import time

import pytest

from repro import Database
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    monthly_range_level,
)
from repro.errors import QueryCancelled, QueryTimeout
from repro.resilience import CancelToken

JOIN_QUERY = (
    "SELECT avg(amount) FROM orders WHERE date BETWEEN "
    "'01-01-2012' AND '12-31-2013'"
)


def _db() -> Database:
    db = Database(num_segments=4)
    db.create_table(
        "orders",
        TableSchema.of(
            ("order_id", t.INT), ("amount", t.FLOAT), ("date", t.DATE)
        ),
        distribution=DistributionPolicy.hashed("order_id"),
        partition_scheme=PartitionScheme(
            [monthly_range_level("date", datetime.date(2012, 1, 1), 24)]
        ),
    )
    rng = random.Random(11)
    start = datetime.date(2012, 1, 1)
    db.insert(
        "orders",
        [
            (
                i,
                round(rng.uniform(1, 100), 2),
                start + datetime.timedelta(days=rng.randrange(729)),
            )
            for i in range(2000)
        ],
    )
    db.analyze()
    return db


def _segment_threads() -> int:
    return sum(
        1
        for thread in threading.enumerate()
        if thread.name.startswith("repro-segment") and thread.is_alive()
    )


def test_timeout_fires_promptly_at_workers_4():
    db = _db()
    db.storage.io_latency_s = 0.002
    started = time.monotonic()
    with pytest.raises(QueryTimeout):
        db.sql(JOIN_QUERY, workers=4, timeout=0.0)
    # cooperative checkpoints must kill the run in well under a second
    # of wall clock even though four workers are mid-flight
    assert time.monotonic() - started < 5.0
    # the per-query pool was shut down (no leaked segment workers)
    assert _segment_threads() == 0
    # and the database still executes cleanly afterwards
    db.storage.io_latency_s = 0.0
    assert db.sql(JOIN_QUERY, workers=4).rows


def test_external_cancel_terminates_parallel_run():
    db = _db()
    db.storage.io_latency_s = 0.002
    token = CancelToken()
    outcome: dict = {}

    def run():
        try:
            outcome["rows"] = db.sql(JOIN_QUERY, workers=4, cancel=token).rows
        except QueryCancelled:
            outcome["cancelled"] = True

    thread = threading.Thread(target=run)
    thread.start()
    time.sleep(0.01)
    token.cancel()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert outcome.get("cancelled") or "rows" in outcome
    assert _segment_threads() == 0


def test_deterministic_cancel_sweep_at_workers_4():
    """The cancel_after_checks hook fires inside worker threads too; no
    depth may hang the query or leak pool threads."""
    db = _db()
    for checks in (1, 5, 17, 65):
        token = CancelToken(cancel_after_checks=checks)
        started = time.monotonic()
        try:
            db.sql(JOIN_QUERY, workers=4, cancel=token)
        except QueryCancelled:
            pass
        assert time.monotonic() - started < 10.0
        assert _segment_threads() == 0


def test_timeout_with_motion_backpressure_leaves_no_parked_producers():
    """End to end: 4 workers + timeout through Motions.  The query dies
    promptly and every producer thread drains out."""
    db = _db()
    db.storage.io_latency_s = 0.002
    before = threading.active_count()
    with pytest.raises((QueryTimeout, Exception)):
        db.sql(JOIN_QUERY, workers=4, timeout=0.0)
    deadline = time.monotonic() + 5.0
    while _segment_threads() > 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _segment_threads() == 0
    # thread census returns to (at most) where it started
    assert threading.active_count() <= before
