"""Storage layer: routing on insert, distribution, per-leaf addressing."""

import pytest

from repro import Database
from repro import types as t
from repro.catalog import (
    Catalog,
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    uniform_int_level,
)
from repro.errors import PartitionError
from repro.resilience import SegmentHealth
from repro.storage import StorageManager, TableStore

SCHEMA = TableSchema.of(("a", t.INT), ("b", t.INT))


def _partitioned(catalog: Catalog, name: str = "p") -> TableStore:
    desc = catalog.create_table(
        name,
        SCHEMA,
        distribution=DistributionPolicy.hashed("a"),
        partition_scheme=PartitionScheme([uniform_int_level("b", 0, 100, 4)]),
    )
    return TableStore(desc, num_segments=3)


def test_insert_routes_to_correct_leaf():
    catalog = Catalog()
    store = _partitioned(catalog)
    desc = store.descriptor
    store.write([(1, 5), (2, 80)])
    oid_first = desc.leaf_oid((0,))
    oid_last = desc.leaf_oid((3,))
    assert list(store.scan_all([oid_first])) == [(1, 5)]
    assert list(store.scan_all([oid_last])) == [(2, 80)]
    assert store.leaf_row_count(oid_first) == 1


def test_insert_invalid_partition_raises():
    store = _partitioned(Catalog())
    with pytest.raises(PartitionError):
        store.write([(1, 100)])  # outside every range -> ⊥
    with pytest.raises(PartitionError):
        store.write([(1, None)])  # NULL partition key -> ⊥
    # a write is all or nothing: the valid row before the bad one is gone too
    with pytest.raises(PartitionError):
        store.write([(1, 5), (2, 100)])
    assert store.row_count() == 0


def test_rows_land_on_hash_segment():
    from repro.storage.distribution import segment_for

    store = _partitioned(Catalog())
    store.write([(i, i % 100) for i in range(50)])
    for segment in range(3):
        for row in store.scan_segment(segment):
            assert segment_for(row[0], 3) == segment
    assert store.row_count() == 50


def test_replicated_table_copies_to_all_segments():
    catalog = Catalog()
    desc = catalog.create_table(
        "r", SCHEMA, distribution=DistributionPolicy.replicated()
    )
    store = TableStore(desc, num_segments=3)
    assert store.write([(i, i) for i in range(10)]) == 10
    for segment in range(3):
        assert store.segment_row_count(segment) == 10
    # scan_all must not duplicate replicated rows
    assert store.row_count() == 10
    assert len(list(store.scan_all())) == 10
    # a replicated row is counted once, though every segment drops a copy
    assert store.write(replace={(1, 1): None, (2, 2): (2, 3)}) == 2
    for segment in range(3):
        assert sorted(store.scan_segment(segment))[:3] == [(0, 0), (2, 3), (3, 3)]


def test_write_deletes_every_row():
    store = _partitioned(Catalog())
    rows = [(i, i % 100) for i in range(20)]
    store.write(rows)
    assert store.write(replace=dict.fromkeys(rows)) == 20
    assert store.row_count() == 0


def test_write_replaces_every_stored_copy_of_a_value():
    """Equal rows are one value: deleting or updating it changes every
    stored copy, and an updated copy moves to its new leaf and segment."""
    store = _partitioned(Catalog())
    desc = store.descriptor
    store.write([(1, 5), (1, 5), (2, 5), (3, 6), (3, 6)])
    assert store.write(replace={(1, 5): None, (7, 7): None}) == 2
    assert store.write(replace={(3, 6): (4, 80)}) == 2
    assert list(store.scan_all([desc.leaf_oid((0,))])) == [(2, 5)]
    assert list(store.scan_all([desc.leaf_oid((3,))])) == [(4, 80), (4, 80)]


def test_a_scan_keeps_the_buckets_it_started_on():
    """Reads take no lock, and a write publishes new bucket lists rather
    than changing the live ones: a write between two batches leaves the
    running scan on the rows it started with, in full-width batches, and
    the next scan sees the rows after the write."""
    catalog = Catalog()
    desc = catalog.create_table(
        "p",
        SCHEMA,
        distribution=DistributionPolicy.hashed("a"),
        partition_scheme=PartitionScheme([uniform_int_level("b", 0, 100, 4)]),
    )
    store = TableStore(desc, num_segments=1)
    first = [(a, 5) for a in range(100)]
    second = [(a, 30) for a in range(30)]
    store.write(first + second)
    leaves = desc.all_leaf_oids()
    scan = store.scan_segment_batches(0, leaves, batch_size=16)
    batches = [next(scan)]
    store.write([(500, 80)], replace=dict.fromkeys(first[10:]))
    batches.extend(scan)
    assert [len(batch) for batch in batches] == [16] * 8 + [2]
    assert [row for batch in batches for row in batch] == first + second
    after = [row for batch in store.scan_segment_batches(0, leaves, 16) for row in batch]
    assert after == first[:10] + second + [(500, 80)]


def test_a_failover_between_batches_reads_the_rest_from_the_mirror():
    """Each batch asks the health gate again when it starts filling: a
    primary marked down after the first batch hands the rest of the scan
    to the mirror, with no row lost or repeated."""
    catalog = Catalog()
    desc = catalog.create_table(
        "p",
        SCHEMA,
        distribution=DistributionPolicy.hashed("a"),
        partition_scheme=PartitionScheme([uniform_int_level("b", 0, 100, 4)]),
    )
    health = SegmentHealth(1)
    store = TableStore(desc, num_segments=1, health=health)
    store.write([(a, a % 100) for a in range(200)])
    leaves = desc.all_leaf_oids()
    expected = list(store.scan_segment(0, leaves))
    scan = store.scan_segment_batches(0, leaves, batch_size=16)
    batches = [next(scan)]
    health.failover(0, "primary lost mid-scan")
    for bucket in store.primary_buckets(0).values():
        bucket.clear()  # the primary answers nothing from here on
    batches.extend(scan)
    assert [row for batch in batches for row in batch] == expected
    assert [len(batch) for batch in batches] == [16] * 12 + [8]
    # the first batch came from the primary, each later one from the mirror
    assert health.mirror_reads == [len(batches) - 1]


def test_storage_manager_scan_leaf():
    catalog = Catalog()
    manager = StorageManager(catalog, num_segments=3)
    desc = catalog.create_table(
        "p",
        SCHEMA,
        distribution=DistributionPolicy.hashed("a"),
        partition_scheme=PartitionScheme([uniform_int_level("b", 0, 100, 4)]),
    )
    manager.register(desc)
    manager.store(desc.oid).write([(1, 5)])
    oid = desc.leaf_oid((0,))
    rows = []
    for segment in range(3):
        for batch in manager.scan_table_batches(segment, desc.oid, [oid]):
            rows.extend(batch)
    assert rows == [(1, 5)]


def test_storage_manager_errors():
    catalog = Catalog()
    manager = StorageManager(catalog, num_segments=2)
    desc = catalog.create_table("t", SCHEMA)
    manager.register(desc)
    from repro.errors import CatalogError

    with pytest.raises(CatalogError):
        manager.register(desc)
    with pytest.raises(CatalogError):
        manager.store(999999)


def test_stable_hash_deterministic_and_type_aware():
    import datetime

    from repro.storage.distribution import segment_for, stable_hash

    assert stable_hash("abc") == stable_hash("abc")
    assert stable_hash(2) == stable_hash(2.0)  # SQL equality co-locates
    assert stable_hash(None) == 0
    assert stable_hash(True) != stable_hash(1)
    day = datetime.date(2013, 5, 1)
    assert stable_hash(day) == stable_hash(datetime.date(2013, 5, 1))
    assert 0 <= segment_for("x", 7) < 7
    with pytest.raises(ValueError):
        segment_for(1, 0)


def test_row_counts_read_the_copy_scans_read_after_a_failover():
    """After a failover the primary is stale: ANALYZE's per-leaf counts and
    the store's counts must read the mirror, as scans do, and agree with
    ``count(*)``."""
    db = Database(num_segments=2)
    db.create_table(
        "t",
        TableSchema.of(("k", t.INT), ("v", t.INT)),
        distribution=DistributionPolicy.hashed("k"),
        partition_scheme=PartitionScheme([uniform_int_level("k", 0, 40, 4)]),
    )
    db.insert("t", [(k, k) for k in range(40)])
    db.health.failover(0)
    db.insert("t", [(k, 100 + k) for k in range(40)])
    db.analyze("t")
    store = db.storage.store_by_name("t")
    stats = db.statistics.get(store.descriptor)
    assert db.sql("SELECT count(*) FROM t").rows == [(80,)]
    assert stats.row_count == 80
    assert sum(stats.leaf_rows.values()) == 80
    assert store.row_count() == 80
    assert sum(store.segment_row_count(s) for s in range(2)) == 80
