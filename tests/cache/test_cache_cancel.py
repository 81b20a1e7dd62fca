"""Result-cache safety under cancellation and timeout.

A query killed mid-execution (QueryCancelled / QueryTimeout) has no
answer, only partial state; storing any of it would serve a wrong result
to every later repeat.  The engine commits a result only after the
executor returned, so an exception skips the store by construction —
these tests interleave cancellation at every checkpoint depth to prove no
partial state is ever stored.
"""

from __future__ import annotations

import datetime
import random

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

QUERY = (
    "SELECT avg(amount) FROM orders "
    "WHERE date BETWEEN '03-01-2012' AND '08-31-2012'"
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
            [monthly_range_level("date", datetime.date(2012, 1, 1), 12)]
        ),
    )
    rng = random.Random(5)
    start = datetime.date(2012, 1, 1)
    db.insert(
        "orders",
        [
            (
                i,
                round(rng.uniform(1, 100), 2),
                start + datetime.timedelta(days=rng.randrange(365)),
            )
            for i in range(800)
        ],
    )
    db.analyze()
    return db


def _cache_totals(db: Database) -> dict:
    snapshot = db.cache.stats_dict()["results"]
    return {"entries": snapshot["entries"], "stores": snapshot["stores"]}


def test_cancel_at_every_checkpoint_depth_never_stores_partial_state():
    """Sweep the deterministic cancel hook across checkpoint depths: no
    matter where mid-execution the query dies, the cache stays empty."""
    db = _db()
    cancelled = 0
    for checks in range(1, 40, 2):
        token = CancelToken(cancel_after_checks=checks)
        try:
            db.sql(QUERY, cache="results", cancel=token)
        except QueryCancelled:
            cancelled += 1
        totals = _cache_totals(db)
        assert totals["entries"] == 0, (
            f"cancel after {checks} checks leaked a cache entry"
        )
        assert totals["stores"] == 0
    assert cancelled > 0, "the sweep never actually cancelled a query"
    # sanity: without a cancel the same query does get stored
    db.sql(QUERY, cache="results")
    assert _cache_totals(db)["stores"] == 1


def test_timeout_mid_execution_never_stores_partial_state():
    db = _db()
    db.storage.io_latency_s = 0.002
    with pytest.raises(QueryTimeout):
        db.sql(QUERY, cache="results", timeout=0.0)
    totals = _cache_totals(db)
    assert totals["entries"] == 0
    assert totals["stores"] == 0


def test_cancelled_result_mode_query_never_stores_rows():
    db = _db()
    with pytest.raises(QueryCancelled):
        db.sql(
            QUERY, cache="results", cancel=CancelToken(cancel_after_checks=3)
        )
    totals = _cache_totals(db)
    assert totals["entries"] == 0
    assert totals["stores"] == 0
    # a clean run afterwards serves and stores normally
    first = db.sql(QUERY, cache="results")
    second = db.sql(QUERY, cache="results")
    assert first.rows == second.rows
    assert second.metrics.to_dict()["cache"]["result"] == "hit"
