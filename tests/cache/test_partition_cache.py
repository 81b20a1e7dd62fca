"""Partition-scoped caching: the LRU and byte bounds of the statement
cache, its partition-intersection invalidation rule, and the engine cases
the selection-replay tier was tested on, run against the result cache
that replaced it.  A selection entry never outlived the result entry with
the same key: each DML below that dropped one drops the other."""

from __future__ import annotations

from repro import Database
from repro import types as t
from repro.cache import ResultCache, ResultEntry, statement_key
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    uniform_int_level,
)


def _key(i: int):
    return statement_key(f"SELECT * FROM t WHERE a = {i}")


def _entry(i: int, rows=((1,), (2,)), footprint_oid=50, leaves=(1, 2)):
    """An entry whose footprint is the leaf mask of ordinals ``leaves``."""
    mask = sum(1 << leaf for leaf in leaves)
    return ResultEntry(_key(i), list(rows), ["n"], {footprint_oid: mask})


# ---------------------------------------------------------------------------
# LRU + byte bounds
# ---------------------------------------------------------------------------


def test_lru_entry_bound_evicts_oldest():
    cache = ResultCache(max_entries=2, max_bytes=1 << 20)
    cache.store(_entry(1))
    cache.store(_entry(2))
    cache.store(_entry(3))
    assert len(cache) == 2
    assert cache.peek(_key(1)) is None  # oldest evicted
    assert cache.peek(_key(3)) is not None
    assert cache.stats.evictions == 1


def test_lru_get_refreshes_recency():
    cache = ResultCache(max_entries=2, max_bytes=1 << 20)
    cache.store(_entry(1))
    cache.store(_entry(2))
    assert cache.get(_key(1)) is not None  # 1 becomes the young entry
    cache.store(_entry(3))
    assert cache.peek(_key(1)) is not None
    assert cache.peek(_key(2)) is None  # 2 was the LRU victim


def test_byte_bound_evicts_until_it_fits():
    one = _entry(1)
    cache = ResultCache(max_entries=100, max_bytes=one.size_bytes * 2 + 1)
    cache.store(_entry(1))
    cache.store(_entry(2))
    cache.store(_entry(3))
    assert len(cache) == 2
    assert cache.bytes_used <= cache.max_bytes


def test_oversized_entry_does_not_wedge_the_cache():
    tiny = ResultCache(max_entries=100, max_bytes=64)
    tiny.store(_entry(1, rows=[(n,) for n in range(100)]))
    assert len(tiny) == 0  # refused by eviction, not stored forever
    assert tiny.bytes_used == 0


def test_restore_same_key_replaces_without_leaking_bytes():
    cache = ResultCache(max_entries=4, max_bytes=1 << 20)
    cache.store(_entry(1, rows=[(n,) for n in range(50)]))
    cache.store(_entry(1, rows=[(1,)]))
    assert len(cache) == 1
    assert cache.bytes_used == _entry(1, rows=[(1,)]).size_bytes


def test_invalidate_drops_only_matching_entries():
    cache = ResultCache(max_entries=10, max_bytes=1 << 20)
    cache.store(_entry(1, leaves=(1,), footprint_oid=50))
    cache.store(_entry(2, leaves=(2,), footprint_oid=50))
    cache.store(_entry(3, leaves=(1,), footprint_oid=60))
    dropped = cache.invalidate(50, 1 << 1)
    assert dropped == 1
    assert cache.peek(_key(1)) is None
    assert cache.peek(_key(2)) is not None
    assert cache.peek(_key(3)) is not None
    assert cache.stats.invalidations == 1


def test_hit_miss_counters():
    cache = ResultCache(max_entries=4, max_bytes=1 << 20)
    cache.store(_entry(1))
    assert cache.get(_key(1)) is not None
    assert cache.get(_key(2)) is None
    snap = cache.to_dict()
    assert snap["hits"] == 1 and snap["misses"] == 1
    assert snap["hit_rate"] == 0.5
    assert snap["stores"] == 1


# ---------------------------------------------------------------------------
# engine level: what a repeat is served, and what DML drops
# ---------------------------------------------------------------------------

DOMAIN, PARTS = 100, 4


def _build_db() -> Database:
    db = Database(num_segments=2, cache="results")
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
    db.insert("facts", [(i, i % DOMAIN, i) for i in range(200)])
    db.insert("dim", [(k, k % 5) for k in range(DOMAIN)])
    db.analyze()
    return db


HOT = "SELECT count(*), sum(val) FROM facts WHERE key >= 0 AND key <= 20"
JOIN = "SELECT count(*) FROM facts f, dim d WHERE f.key = d.key AND d.grp = 3"


def _only_entry(db: Database) -> ResultEntry:
    [(_, entry)] = db.cache.results.items()
    return entry


def test_scoped_invalidation_is_partition_intersecting():
    """A selector's target table is scoped to the leaves the run opened."""
    db = _build_db()
    first = db.sql(HOT)
    facts = db.catalog.table("facts")
    opened = first.metrics.tracker.partitions["facts"]
    entry = _only_entry(db)
    assert entry.footprint == {facts.oid: opened}
    # keys 0..20 live in the first of four leaves
    assert facts.leaf_oids(opened) == facts.all_leaf_oids()[:1]
    unopened = facts.all_leaves & ~opened
    assert entry.stale_after(facts.oid, opened)
    assert not entry.stale_after(facts.oid, unopened)
    assert entry.stale_after(facts.oid, None)  # truncate, drop


def test_volatile_tables_stale_unconditionally():
    """The table whose rows drive a join's selection is read whole, so
    any DML on it stales the entry."""
    db = _build_db()
    db.sql(JOIN)
    dim = db.catalog.table("dim")
    entry = _only_entry(db)
    assert entry.footprint[dim.oid] is None
    assert entry.stale_after(dim.oid, 1 << 3)
    assert entry.stale_after(dim.oid, None)


def test_dml_into_selected_partition_invalidates():
    db = _build_db()
    baseline = db.sql(HOT)
    assert db.sql(HOT).metrics.cache_summary["result"] == "hit"
    # key=10 is inside the selected range: rows i=10 and i=110
    db.sql("UPDATE facts SET val = val + 1 WHERE key = 10")
    after = db.sql(HOT)
    assert after.metrics.cache_summary["result"] == "miss"
    assert after.rows[0] == (baseline.rows[0][0], baseline.rows[0][1] + 2)


def test_dml_outside_selection_preserves_entry():
    db = _build_db()
    baseline = db.sql(HOT)
    assert db.sql("DELETE FROM facts WHERE key = 90").rows == [(2,)]
    after = db.sql(HOT)
    assert after.metrics.cache_summary["result"] == "hit"
    assert after.rows == baseline.rows


def test_dml_on_volatile_join_side_invalidates():
    db = _build_db()
    baseline = db.sql(JOIN)
    assert db.sql(JOIN).metrics.cache_summary["result"] == "hit"
    # dim's rows drive the dynamic selection: any dim DML drops the entry
    db.sql("UPDATE dim SET grp = 3 WHERE key = 1")
    after = db.sql(JOIN)
    assert after.metrics.cache_summary["result"] == "miss"
    assert after.rows[0][0] == baseline.rows[0][0] + 2  # facts 1 and 101


def test_different_literals_get_distinct_entries():
    db = _build_db()
    a = "SELECT count(*) FROM facts WHERE key >= 0 AND key <= 20"
    b = "SELECT count(*) FROM facts WHERE key >= 80 AND key <= 99"
    db.sql(a)
    db.sql(b)
    assert len(db.cache.results) == 2
    ra, rb = db.sql(a), db.sql(b)
    assert ra.metrics.cache_summary["result"] == "hit"
    assert rb.metrics.cache_summary["result"] == "hit"
    assert ra.rows != rb.rows


def test_cache_off_mode_bypasses_everything():
    db = _build_db()
    result = db.sql(HOT, cache="off")
    assert result.metrics.cache_summary is None
    assert len(db.cache.results) == 0
    assert db.cache.results.stats.lookups == 0


def test_explain_analyze_shows_cache_line():
    db = _build_db()
    db.sql(HOT)
    text = db.sql(HOT, analyze=True).explain_analyze()
    # measured runs execute (no lookup) and store what they computed
    assert "Cache: mode=results, stored" in text
    assert "partitions: 1/4" in text
