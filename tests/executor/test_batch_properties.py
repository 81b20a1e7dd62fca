"""Property-based width invariance.

For random partition predicates and any batch width, the one pipeline must return exactly the rows of the handwritten row
operators (:mod:`tests.executor.row_reference`), scan exactly the same
partition set, and count the same rows at every node and every Motion —
the width may never change what partition elimination selects, what the
query answers, or what its counters say.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    uniform_int_level,
)

from . import row_reference

ROWS = 400
DOMAIN = 1000
PARTS = 8


def _build_db() -> Database:
    db = Database(num_segments=4)
    db.create_table(
        "facts",
        TableSchema.of(("id", t.INT), ("key", t.INT), ("val", t.INT)),
        distribution=DistributionPolicy.hashed("id"),
        partition_scheme=PartitionScheme(
            [uniform_int_level("key", 0, DOMAIN, PARTS)]
        ),
    )
    db.create_table(
        "dim",
        TableSchema.of(("key", t.INT), ("grp", t.INT)),
        distribution=DistributionPolicy.hashed("key"),
    )
    rng = random.Random(4321)
    db.insert(
        "facts",
        [(i, rng.randrange(DOMAIN), rng.randrange(50)) for i in range(ROWS)],
    )
    db.insert("dim", [(k, k % 10) for k in range(0, DOMAIN, 7)])
    db.analyze()
    return db


DB = _build_db()



def _counters(metrics):
    return [
        (n.op, n.rows_out, n.rows_scanned, n.loops, n.rows_by_target, n.bytes_moved)
        for n in metrics.nodes
    ]


def _check(sql, batch_size):
    """``sql`` at ``batch_size`` against the row reference: rows, scanned
    partitions, and every node's counters (none of these statements has a
    LIMIT, so nothing is abandoned and nothing may differ)."""
    rows, ctx = row_reference.run_plan(DB, DB.plan(sql))
    result = DB.sql(sql, analyze=True, batch_size=batch_size)
    assert result.rows == rows  # in the same order, ORDER BY or not
    assert result.metrics.partitions_scanned() == ctx.metrics.partitions_scanned()
    assert result.metrics.total_rows_scanned == ctx.metrics.total_rows_scanned
    assert _counters(result.metrics) == _counters(ctx.metrics)


bounds = st.integers(min_value=-50, max_value=DOMAIN + 50)
batch_sizes = st.sampled_from([1, 7, 1024])


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(lo=bounds, hi=bounds, batch_size=batch_sizes)
def test_scan_filter_is_batch_invariant(lo, hi, batch_size):
    """Random range predicate on the partition key: identical rows, an
    identical scanned-partition set, and identical scan-row totals at
    every batch width."""
    sql = f"SELECT id, key, val FROM facts WHERE key >= {lo} AND key <= {hi}"
    _check(sql, batch_size)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    grp=st.integers(min_value=0, max_value=9),
    batch_size=batch_sizes,
)
def test_join_elimination_is_batch_invariant(grp, batch_size):
    """Random dimension filter driving join-based partition elimination:
    the multi-slice plan (Motions included) is batch-invariant."""
    sql = (
        "SELECT count(*), sum(f.val) FROM facts f, dim d "
        f"WHERE f.key = d.key AND d.grp = {grp}"
    )
    _check(sql, batch_size)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cut=bounds, batch_size=batch_sizes)
def test_group_by_is_batch_invariant(cut, batch_size):
    """Two-phase aggregation (partial on segments, final after the
    redistribute) produces identical groups at every batch width."""
    sql = (
        f"SELECT val, count(*), sum(id) FROM facts WHERE key < {cut} "
        "GROUP BY val"
    )
    _check(sql, batch_size)


#: one statement per kernel variant the optimizers can produce from SQL:
#: semi join, multi-key join, join with a residual, every aggregate function
#: scalar and grouped (``{cut}`` below the domain makes the input empty),
#: mixed-direction sort
KERNEL_SHAPES = [
    "SELECT id FROM facts WHERE key < {cut} AND key IN "
    "(SELECT key FROM dim WHERE grp < 5)",
    "SELECT f.id, d.grp FROM facts f, dim d "
    "WHERE f.key = d.key AND f.val = d.grp AND f.key < {cut}",
    "SELECT f.id, d.grp FROM facts f, dim d "
    "WHERE f.key = d.key AND f.val < d.grp AND f.key < {cut}",
    "SELECT count(*), count(val), sum(val), avg(val), min(val), max(val) "
    "FROM facts WHERE key < {cut}",
    "SELECT val, count(*), sum(id), avg(key), min(key), max(id) "
    "FROM facts WHERE key < {cut} GROUP BY val",
    "SELECT val, key, id FROM facts WHERE key < {cut} "
    "ORDER BY val DESC, key, id DESC",
]


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    shape=st.sampled_from(KERNEL_SHAPES),
    cut=bounds,
    batch_size=batch_sizes,
)
def test_kernel_shapes_are_batch_invariant(shape, cut, batch_size):
    sql = shape.format(cut=cut)
    _check(sql, batch_size)
