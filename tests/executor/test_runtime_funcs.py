"""The Table 1 built-in partition selection functions."""

import pytest

from repro import types as t
from repro.catalog import (
    Catalog,
    PartitionScheme,
    TableSchema,
    list_level,
    uniform_int_level,
)
from repro.errors import ChannelError, PartitionError
from repro.executor.context import ExecContext
from repro.executor.runtime_funcs import (
    partition_constraints,
    partition_expansion,
    partition_propagation,
    partition_selection,
)
from repro.storage import StorageManager


@pytest.fixture(scope="module")
def env():
    catalog = Catalog()
    single = catalog.create_table(
        "single",
        TableSchema.of(("k", t.INT), ("v", t.INT)),
        partition_scheme=PartitionScheme([uniform_int_level("k", 0, 100, 4)]),
    )
    multi = catalog.create_table(
        "multi",
        TableSchema.of(("k", t.INT), ("region", t.TEXT)),
        partition_scheme=PartitionScheme(
            [
                uniform_int_level("k", 0, 100, 4),
                list_level("region", [("r1", ["R1"]), ("r2", ["R2"])]),
            ]
        ),
    )
    plain = catalog.create_table(
        "plain", TableSchema.of(("a", t.INT))
    )
    return catalog, single, multi, plain


def test_partition_expansion(env):
    catalog, single, multi, plain = env
    assert partition_expansion(catalog, single.oid) == single.all_leaf_oids()
    assert len(partition_expansion(catalog, multi.oid)) == 8
    with pytest.raises(PartitionError):
        partition_expansion(catalog, plain.oid)


def test_partition_selection_single_level(env):
    catalog, single, _, _ = env
    assert partition_selection(catalog, single.oid, 0) == single.leaf_oid((0,))
    assert partition_selection(catalog, single.oid, 99) == single.leaf_oid((3,))
    assert partition_selection(catalog, single.oid, 100) is None  # ⊥
    assert partition_selection(catalog, single.oid, None) is None


def test_partition_selection_multi_level(env):
    catalog, _, multi, _ = env
    oid = partition_selection(catalog, multi.oid, [30, "R2"])
    assert oid == multi.leaf_oid((1, 1))
    with pytest.raises(PartitionError):
        partition_selection(catalog, multi.oid, 30)  # missing level value


def test_partition_constraints(env):
    catalog, single, _, _ = env
    rows = partition_constraints(catalog, single.oid)
    assert len(rows) == 4
    first = rows[0]
    assert first.min_values == (0,)
    assert first.max_values == (25,)
    assert first.min_inclusive == (True,)
    assert first.max_inclusive == (False,)
    # constraints tile the domain
    assert rows[1].min_values == (25,)


def test_partition_constraints_multi_level(env):
    catalog, _, multi, _ = env
    rows = partition_constraints(catalog, multi.oid)
    assert len(rows) == 8
    assert len(rows[0].min_values) == 2


def test_partition_propagation(env):
    catalog, single, _, _ = env
    storage = StorageManager(catalog, 2)
    ctx = ExecContext(catalog, storage, num_segments=2)
    target = single.all_leaf_oids()[0]
    partition_propagation(ctx, 7, 1, single.leaf_mask([target]))
    channel = ctx.channel(7, 1)
    channel.close()
    assert single.leaf_oids(channel.consume()) == [target]
    # other segment's channel is unaffected
    other = ctx.channel(7, 0)
    with pytest.raises(ChannelError):
        other.consume()
