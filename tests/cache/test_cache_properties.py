"""Property-based cached/uncached equivalence.

The cache may never change an answer.  For random partition predicates
and random DML interleavings, a cached run must return byte-identical
rows to a cache-off run at the same data state — and a cached run that
executed (a miss) must scan the identical partition set.

Module state is shared across examples on purpose — entries persist,
invalidations accumulate — which is exactly the regime a long-lived cache
lives in.
"""

from __future__ import annotations

import itertools
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
    rng = random.Random(1234)
    db.insert(
        "facts",
        [(i, rng.randrange(DOMAIN), rng.randrange(50)) for i in range(ROWS)],
    )
    db.insert("dim", [(k, k % 10) for k in range(0, DOMAIN, 7)])
    db.analyze()
    return db


DB = _build_db()
_IDS = itertools.count(10_000)  # fresh ids for interleaved inserts

bounds = st.integers(min_value=-50, max_value=DOMAIN + 50)
keys = st.integers(min_value=0, max_value=DOMAIN - 1)


def _assert_equivalent(sql: str) -> None:
    """Cached run ≡ cache-off run at the current data state: identical
    rows, and (when the cached run actually executed) identical
    partitions_scanned."""
    cached = DB.sql(sql, cache="results")
    plain = DB.sql(sql, cache="off")
    assert cached.rows == plain.rows
    summary = cached.metrics.cache_summary
    assert summary is not None and summary["mode"] == "results"
    if summary["result"] != "hit":
        assert (
            cached.metrics.partitions_scanned()
            == plain.metrics.partitions_scanned()
        )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(lo=bounds, hi=bounds)
def test_random_range_predicates_are_cache_invariant(lo, hi):
    """Random range predicate on the partition key: warm then repeat —
    both the storing run and the serving run answer exactly like
    cache-off."""
    sql = (
        "SELECT id, key, val FROM facts "
        f"WHERE key >= {lo} AND key <= {hi}"
    )
    _assert_equivalent(sql)  # cold (stores)
    _assert_equivalent(sql)  # warm (a hit)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    in_keys=st.lists(keys, min_size=1, max_size=6, unique=True),
    dml_key=keys,
)
def test_dml_interleaving_is_cache_invariant(in_keys, dml_key):
    """Warm the cache, mutate a random partition (which may or may not
    intersect the cached footprint), and re-compare: the cached run must
    reflect the post-DML state exactly — invalidation can be a hit or a
    miss, but never a stale answer."""
    in_list = ", ".join(str(k) for k in sorted(in_keys))
    sql = (
        "SELECT count(*), sum(val), min(id), max(id) FROM facts "
        f"WHERE key IN ({in_list})"
    )
    _assert_equivalent(sql)  # warm at the current state
    DB.insert("facts", [(next(_IDS), dml_key, 7)])
    _assert_equivalent(sql)  # post-DML: no stale hit
    _assert_equivalent(sql)  # and the refreshed entry holds


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    grp=st.integers(min_value=0, max_value=9),
    dim_key=keys,
)
def test_join_elimination_with_dim_dml_is_cache_invariant(grp, dim_key):
    """Join-driven (dynamic) partition elimination: the dimension side's
    rows decide the selection, so dim DML must drop the entry — serving
    the pre-DML answer would miss the partitions the new row selects."""
    sql = (
        "SELECT count(*), sum(f.val) FROM facts f, dim d "
        f"WHERE f.key = d.key AND d.grp = {grp}"
    )
    _assert_equivalent(sql)
    DB.insert("dim", [(dim_key, grp)])
    _assert_equivalent(sql)
