"""Storage layer: routing on insert, distribution, per-leaf addressing."""

import pytest

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
    store.insert((1, 5))
    store.insert((2, 80))
    oid_first = desc.leaf_oid((0,))
    oid_last = desc.leaf_oid((3,))
    assert list(store.scan_all([oid_first])) == [(1, 5)]
    assert list(store.scan_all([oid_last])) == [(2, 80)]
    assert store.leaf_row_count(oid_first) == 1


def test_insert_invalid_partition_raises():
    store = _partitioned(Catalog())
    with pytest.raises(PartitionError):
        store.insert((1, 100))  # outside every range -> ⊥
    with pytest.raises(PartitionError):
        store.insert((1, None))  # NULL partition key -> ⊥


def test_rows_land_on_hash_segment():
    from repro.storage.distribution import segment_for

    store = _partitioned(Catalog())
    store.insert_many([(i, i % 100) for i in range(50)])
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
    store.insert_many([(i, i) for i in range(10)])
    for segment in range(3):
        assert store.segment_row_count(segment) == 10
    # scan_all must not duplicate replicated rows
    assert store.row_count() == 10
    assert len(list(store.scan_all())) == 10


def test_truncate():
    store = _partitioned(Catalog())
    store.insert_many([(i, i % 100) for i in range(20)])
    store.truncate()
    assert store.row_count() == 0


def test_delete_from_leaf():
    catalog = Catalog()
    store = _partitioned(catalog)
    store.insert((1, 5))
    desc = store.descriptor
    oid = desc.leaf_oid((0,))
    from repro.storage.distribution import segment_for

    seg = segment_for(1, 3)
    store.delete_from_leaf(seg, oid, [(1, 5)])
    assert store.row_count() == 0


def test_batches_stay_within_the_width_when_a_bucket_shrinks_mid_scan():
    """Reads take no lock, so a delete between two batches can shrink the
    bucket being scanned below the scan's position.  The batches after it
    still hold at most the width, and only the last is short."""
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
    store.insert_many(first + second)
    scan = store.scan_segment_batches(0, desc.all_leaf_oids(), batch_size=16)
    batches = [next(scan)]
    store.delete_from_leaf(0, desc.leaf_oid((0,)), first[10:])
    batches.extend(scan)
    assert [len(batch) for batch in batches] == [16, 16, 14]
    assert batches[0] == first[:16]
    assert batches[1] + batches[2] == second


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
    store.insert_many([(a, a % 100) for a in range(200)])
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
    manager.store(desc.oid).insert((1, 5))
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
