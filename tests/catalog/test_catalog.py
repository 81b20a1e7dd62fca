"""Catalog: DDL, OID assignment, leaf lookup, distribution policies."""

import pytest

from repro import types as t
from repro.catalog import (
    Catalog,
    DistributionPolicy,
    PartitionScheme,
    TableDescriptor,
    TableSchema,
    uniform_int_level,
)
from repro.errors import CatalogError, PartitionError


@pytest.fixture
def catalog() -> Catalog:
    return Catalog()


SCHEMA = TableSchema.of(("a", t.INT), ("b", t.INT))


def test_create_unpartitioned(catalog):
    desc = catalog.create_table("t", SCHEMA)
    assert not desc.is_partitioned
    assert desc.num_leaves == 0
    assert catalog.table("t") is desc
    assert catalog.table_by_oid(desc.oid) is desc


def test_default_distribution_is_first_column(catalog):
    desc = catalog.create_table("t", SCHEMA)
    assert desc.distribution == DistributionPolicy.hashed("a")


def test_duplicate_table_rejected(catalog):
    catalog.create_table("t", SCHEMA)
    with pytest.raises(CatalogError):
        catalog.create_table("t", SCHEMA)


def test_unknown_table_and_oid(catalog):
    with pytest.raises(CatalogError):
        catalog.table("nope")
    with pytest.raises(CatalogError):
        catalog.table_by_oid(12345)


def test_partitioned_table_gets_leaf_oids(catalog):
    desc = catalog.create_table(
        "p",
        SCHEMA,
        partition_scheme=PartitionScheme([uniform_int_level("b", 0, 100, 5)]),
    )
    assert desc.is_partitioned
    assert desc.num_leaves == 5
    oids = desc.all_leaf_oids()
    assert len(set(oids)) == 5
    assert desc.oid not in oids
    for oid in oids:
        assert desc.leaf_oid(desc.leaf_id(oid)) == oid


def test_partition_key_must_be_a_column(catalog):
    with pytest.raises(CatalogError):
        catalog.create_table(
            "p",
            SCHEMA,
            partition_scheme=PartitionScheme(
                [uniform_int_level("missing", 0, 100, 5)]
            ),
        )


def test_distribution_column_must_exist(catalog):
    with pytest.raises(CatalogError):
        catalog.create_table(
            "t", SCHEMA, distribution=DistributionPolicy.hashed("zzz")
        )


def test_distribution_policy_validation():
    with pytest.raises(CatalogError):
        DistributionPolicy("hashed")  # missing column
    with pytest.raises(CatalogError):
        DistributionPolicy("replicated", "a")
    with pytest.raises(CatalogError):
        DistributionPolicy("round_robin")


def test_route_row(catalog):
    desc = catalog.create_table(
        "p",
        SCHEMA,
        partition_scheme=PartitionScheme([uniform_int_level("b", 0, 100, 5)]),
    )
    assert desc.route_row((1, 0)) == (0,)
    assert desc.route_row((1, 99)) == (4,)
    assert desc.route_row((1, 100)) is None


def test_select_leaf_oids_unrestricted(catalog):
    desc = catalog.create_table(
        "p",
        SCHEMA,
        partition_scheme=PartitionScheme([uniform_int_level("b", 0, 100, 5)]),
    )
    assert desc.select_leaf_oids() == desc.all_leaf_oids()


def test_drop_table_releases_leaves(catalog):
    catalog.create_table(
        "p",
        SCHEMA,
        partition_scheme=PartitionScheme([uniform_int_level("b", 0, 100, 5)]),
    )
    catalog.drop_table("p")
    assert not catalog.has_table("p")


def test_leaf_lookup_errors(catalog):
    desc = catalog.create_table(
        "p",
        SCHEMA,
        partition_scheme=PartitionScheme([uniform_int_level("b", 0, 100, 5)]),
    )
    with pytest.raises(PartitionError):
        desc.leaf_oid((99,))
    with pytest.raises(PartitionError):
        desc.leaf_id(desc.oid)


def test_leaf_masks_number_leaves_from_the_root_oid(catalog):
    """Leaf ordinal i has OID root + 1 + i: bit i of a leaf mask."""
    scheme = PartitionScheme(
        [uniform_int_level("a", 0, 10, 2), uniform_int_level("b", 0, 100, 3)]
    )
    desc = catalog.create_table("p", SCHEMA, partition_scheme=scheme)
    oids = desc.all_leaf_oids()
    assert oids == list(range(desc.oid + 1, desc.oid + 7))
    assert desc.all_leaves == 0b111111
    assert desc.leaf_mask([oids[4], oids[1], oids[4]]) == 0b10010
    assert desc.leaf_oids(0b10010) == [oids[1], oids[4]]
    assert desc.leaves_through(oids[2]) == 0b111
    # slots {1} x {0, 2}: leaves (1, 0) and (1, 2), ordinals 3 and 5
    assert scheme.slots_mask([[1], [0, 2]]) == 0b101000
    assert scheme.slots_mask([[0, 1], []]) == 0
    with pytest.raises(PartitionError):
        desc.leaf_mask([desc.oid])
    plain = catalog.create_table("t", SCHEMA)
    assert plain.all_leaves == plain.leaves_through(plain.oid) == 0
    assert plain.leaf_oids(0) == []


@pytest.mark.parametrize("oids", [(11, 13, 14), (12, 11, 13), (12, 13, 14)])
def test_leaf_oids_must_follow_the_root_in_leaf_order(oids):
    """A recovered descriptor is rebuilt from the OIDs on disk; ones that
    do not number the leaves root + 1, root + 2, ... are refused."""
    scheme = PartitionScheme([uniform_int_level("b", 0, 100, 3)])
    leaves = list(scheme.leaf_ids())
    policy = DistributionPolicy.hashed("a")
    TableDescriptor(10, "p", SCHEMA, policy, scheme, dict(zip(leaves, (11, 12, 13))))
    with pytest.raises(CatalogError, match="do not follow"):
        TableDescriptor(10, "p", SCHEMA, policy, scheme, dict(zip(leaves, oids)))


def test_schema_validation():
    with pytest.raises(CatalogError):
        TableSchema.of(("a", t.INT), ("a", t.TEXT))
    schema = TableSchema.of(("a", t.INT), ("b", t.TEXT))
    assert schema.column_index("b") == 1
    assert schema.column_names == ("a", "b")
    assert schema.validate_row([1, "x"]) == (1, "x")
    with pytest.raises(CatalogError):
        schema.validate_row([1])
    with pytest.raises(Exception):
        schema.validate_row(["not-int", "x"])
