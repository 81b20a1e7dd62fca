"""Guardrails stop a statement promptly while it waits on storage, and
leave the database usable.

The test names keep the ids they had when segment instances could run on
a thread pool; instances now run in segment order on the statement's
thread, which is what these cases exercise.
"""

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


def test_timeout_fires_promptly_at_workers_4():
    db = _db()
    db.storage.io_latency_s = 0.002
    started = time.monotonic()
    with pytest.raises(QueryTimeout):
        db.sql(JOIN_QUERY, timeout=0.0)
    # cooperative checkpoints end the run well before it would finish
    # (24 leaves x 4 segments of simulated I/O)
    assert time.monotonic() - started < 5.0
    # and the database still executes cleanly afterwards
    db.storage.io_latency_s = 0.0
    assert db.sql(JOIN_QUERY).rows


def test_external_cancel_terminates_parallel_run():
    """A token cancelled from another thread ends a ``db.sql`` run that
    is waiting on storage; the statement's thread finishes."""
    db = _db()
    db.storage.io_latency_s = 0.002
    token = CancelToken()
    outcome: dict = {}

    def run():
        try:
            outcome["rows"] = db.sql(JOIN_QUERY, cancel=token).rows
        except QueryCancelled:
            outcome["cancelled"] = True

    thread = threading.Thread(target=run)
    thread.start()
    time.sleep(0.01)
    token.cancel()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert outcome.get("cancelled") or "rows" in outcome
