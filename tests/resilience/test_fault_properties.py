"""Property-based fault testing: any *single* injected segment failure
either yields results identical to the fault-free run (after failover /
retry) or raises a typed :class:`~repro.errors.ReproError` — never a bare
exception, never silently wrong rows.
"""

import datetime

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Database
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    monthly_range_level,
)
from repro.errors import ReproError
from repro.resilience import (
    ALWAYS,
    FAIL_N,
    FAIL_ONCE,
    INJECTION_POINTS,
    MOTION_SEND,
)

SEGMENTS = 4
START = datetime.date(2013, 1, 1)

QUERIES = [
    # multi-slice join over the partitioned fact
    "SELECT count(*), sum(o.amount) FROM orders o, dim d "
    "WHERE o.id = d.id AND d.tag = 't2'",
    # static partition elimination + aggregate
    "SELECT count(*) FROM orders "
    "WHERE date BETWEEN '2013-03-01' AND '2013-05-31'",
    # grouped aggregation (hash agg buffers state)
    "SELECT d.tag, count(*) FROM orders o, dim d "
    "WHERE o.id = d.id GROUP BY d.tag",
    # the Motions above carry a few aggregate rows; these two move base
    # rows, ~45 (Gather) and ~30 (Broadcast) per producer segment
    "SELECT id, amount FROM orders WHERE date < '2013-04-01'",
    "SELECT count(*), sum(o.amount) FROM orders o, dim d "
    "WHERE o.id + 1 = d.id AND d.tag = 't2'",
]

# Module-level lazy singleton: building the database once keeps hypothesis
# example runtime flat, and every example resets faults/health explicitly.
_DB = None
_BASELINES = None


def _database():
    global _DB, _BASELINES
    if _DB is None:
        db = Database(num_segments=SEGMENTS)
        db.create_table(
            "orders",
            TableSchema.of(
                ("id", t.INT), ("date", t.DATE), ("amount", t.FLOAT)
            ),
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
                for i in range(600)
            ],
        )
        db.insert("dim", [(i, f"t{i % 5}") for i in range(600)])
        db.analyze()
        _DB = db
        _BASELINES = {sql: db.sql(sql).rows for sql in QUERIES}
    return _DB, _BASELINES


@given(
    query_index=st.integers(min_value=0, max_value=len(QUERIES) - 1),
    point=st.sampled_from(INJECTION_POINTS),
    segment=st.integers(min_value=0, max_value=SEGMENTS - 1),
    mode=st.sampled_from([FAIL_ONCE, FAIL_N, ALWAYS]),
    n=st.integers(min_value=1, max_value=3),
    skip=st.integers(min_value=0, max_value=5),
    transient=st.booleans(),
    # width 7 splits a producer's base rows into several batches, so a
    # motion_send fault can land after its instance already sent some: the
    # retry must discard that partly sent run
    batch_size=st.sampled_from([7, 1024]),
)
# a motion_send fault after the instance's second batch (width 7) on each
# base-row Motion, retried in place / after a failover
@example(3, MOTION_SEND, 1, FAIL_ONCE, 1, 2, True, 7)
@example(4, MOTION_SEND, 2, FAIL_ONCE, 1, 2, False, 7)
@settings(max_examples=60, deadline=None)
def test_single_fault_never_corrupts_results(
    query_index, point, segment, mode, n, skip, transient, batch_size
):
    db, baselines = _database()
    db.faults.reset()
    db.health.recover_all()
    sql = QUERIES[query_index]
    db.faults.arm(
        point, segment=segment, mode=mode, n=n, skip=skip, transient=transient
    )
    try:
        result = db.sql(sql, batch_size=batch_size)
    except ReproError:
        # Typed failure is an acceptable outcome (e.g. retries exhausted
        # under ALWAYS) — a bare exception would escape this clause and
        # fail the test.
        return
    finally:
        db.faults.reset()
        db.health.recover_all()
    assert sorted(result.rows) == sorted(baselines[sql]), (
        f"fault {point}@{segment} ({mode}, n={n}, skip={skip}, "
        f"transient={transient}, batch_size={batch_size}) "
        f"corrupted results of {sql!r}"
    )


@given(
    point=st.sampled_from(INJECTION_POINTS),
    segment=st.integers(min_value=0, max_value=SEGMENTS - 1),
)
@settings(max_examples=20, deadline=None)
def test_fail_once_always_recovers(point, segment):
    """The single-crash case specifically must *succeed* (not merely fail
    cleanly): one primary death is always survivable with mirrors up."""
    db, baselines = _database()
    db.faults.reset()
    db.health.recover_all()
    sql = QUERIES[0]
    db.faults.arm(point, segment=segment, mode=FAIL_ONCE)
    try:
        result = db.sql(sql)
    finally:
        db.faults.reset()
        db.health.recover_all()
    assert sorted(result.rows) == sorted(baselines[sql])
