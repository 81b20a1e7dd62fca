"""Operator iterators: joins, aggregation, sorting, selector semantics —
exercised directly against hand-built plan fragments."""

import pytest

from repro import types as t
from repro.catalog import (
    Catalog,
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    uniform_int_level,
)
from repro.errors import ChannelError
from repro.executor.context import ExecContext
from repro.expr.ast import (
    AggCall,
    ColumnRef,
    Comparison,
    Literal,
    Parameter,
)
from repro.physical.ops import (
    Append,
    DynamicScan,
    Filter,
    HashAgg,
    HashJoin,
    LeafScan,
    Limit,
    NLJoin,
    PartitionSelector,
    Project,
    Scan,
    Sequence,
    Sort,
)
from repro.physical.properties import PartSelectorSpec
from tests.conftest import rows_of

SEGMENTS = 2


@pytest.fixture()
def env():
    catalog = Catalog()
    from repro.storage import StorageManager

    storage = StorageManager(catalog, SEGMENTS)

    part = catalog.create_table(
        "part",
        TableSchema.of(("k", t.INT), ("v", t.INT)),
        distribution=DistributionPolicy.replicated(),
        partition_scheme=PartitionScheme([uniform_int_level("k", 0, 100, 4)]),
    )
    storage.register(part)
    storage.store(part.oid).write([(k, k * 10) for k in range(0, 100, 5)])

    plain = catalog.create_table(
        "plain",
        TableSchema.of(("a", t.INT), ("b", t.TEXT)),
        distribution=DistributionPolicy.replicated(),
    )
    storage.register(plain)
    storage.store(plain.oid).write(
        [(1, "x"), (2, "y"), (3, None), (None, "z")]
    )
    return catalog, storage, part, plain


def _run(op, catalog, storage, params=None) -> list[tuple]:
    """Run an iterator on one segment (tables above are replicated)."""
    ctx = ExecContext(catalog, storage, SEGMENTS, params)
    return rows_of(op, 0, ctx)


def test_scan_and_filter(env):
    catalog, storage, _, plain = env
    scan = Scan(plain, "p")
    rows = _run(scan, catalog, storage)
    assert len(rows) == 4
    filtered = Filter(scan, Comparison(">", ColumnRef("a", "p"), Literal(1)))
    rows = _run(filtered, catalog, storage)
    assert sorted(r[0] for r in rows) == [2, 3]  # NULL fails the predicate


def test_project(env):
    catalog, storage, _, plain = env
    project = Project(
        Scan(plain, "p"),
        [(ColumnRef("b", "p"), "name"), (Literal(1), "one")],
    )
    rows = _run(project, catalog, storage)
    assert ("x", 1) in rows


def test_sequence_runs_children_in_order(env):
    catalog, storage, part, _ = env
    spec = PartSelectorSpec.for_table(1, part, "t")
    seq = Sequence([PartitionSelector(spec), DynamicScan(part, "t", 1)])
    rows = _run(seq, catalog, storage)
    assert len(rows) == 20  # full scan through the selector


def test_dynamic_scan_without_producer_fails(env):
    catalog, storage, part, _ = env
    with pytest.raises(ChannelError):
        _run(DynamicScan(part, "t", 1), catalog, storage)


def test_static_selector_prunes(env):
    catalog, storage, part, _ = env
    key = ColumnRef("k", "t")
    spec = PartSelectorSpec(
        1, part, [key], [Comparison("<", key, Literal(25))]
    )
    plan = PartitionSelector(spec, DynamicScan(part, "t", 1))
    ctx = ExecContext(catalog, storage, SEGMENTS)
    rows = rows_of(plan, 0, ctx)
    assert sorted(r[0] for r in rows) == [0, 5, 10, 15, 20]
    assert ctx.metrics.partitions_scanned("part") == 1


def test_parameter_selector_prunes_at_runtime(env):
    """Prepared-statement case: the parameter value drives selection."""
    catalog, storage, part, _ = env
    key = ColumnRef("k", "t")
    spec = PartSelectorSpec(
        1, part, [key], [Comparison("=", key, Parameter(1))]
    )
    plan = PartitionSelector(spec, DynamicScan(part, "t", 1))
    ctx = ExecContext(catalog, storage, SEGMENTS, params=[30])
    rows = rows_of(plan, 0, ctx)
    assert all(25 <= r[0] < 50 for r in rows)
    assert ctx.metrics.partitions_scanned("part") == 1


def test_streaming_selector_selects_per_tuple(env):
    """Join-form selection: each streamed tuple contributes its OIDs."""
    catalog, storage, part, plain = env
    key = ColumnRef("k", "t")
    join_pred = Comparison("=", key, ColumnRef("a", "p"))
    spec = PartSelectorSpec(1, part, [key], [join_pred])
    selector = PartitionSelector(spec, Scan(plain, "p"))
    join = NLJoin(
        "inner",
        selector,
        DynamicScan(part, "t", 1),
        Comparison("=", ColumnRef("a", "p"), ColumnRef("k", "t")),
    )
    ctx = ExecContext(catalog, storage, SEGMENTS)
    rows_of(join, 0, ctx)
    # values 1,2,3 (and NULL) all fall in the first partition only
    assert ctx.metrics.partitions_scanned("part") == 1


def test_hash_join_inner_and_null_keys(env):
    catalog, storage, _, plain = env
    left = Scan(plain, "l")
    right = Scan(plain, "r")
    join = HashJoin(
        "inner",
        left,
        right,
        [ColumnRef("a", "l")],
        [ColumnRef("a", "r")],
    )
    rows = _run(join, catalog, storage)
    # NULL keys never join: 3 matching pairs (1,2,3), not 4
    assert len(rows) == 3
    assert all(r[0] == r[2] for r in rows)


def test_hash_join_semi(env):
    catalog, storage, _, plain = env
    join = HashJoin(
        "semi",
        Scan(plain, "l"),
        Scan(plain, "r"),
        [ColumnRef("a", "l")],
        [ColumnRef("a", "r")],
    )
    rows = _run(join, catalog, storage)
    assert len(rows) == 3
    assert all(len(r) == 2 for r in rows)  # probe rows only


def test_hash_join_residual(env):
    catalog, storage, _, plain = env
    join = HashJoin(
        "inner",
        Scan(plain, "l"),
        Scan(plain, "r"),
        [ColumnRef("a", "l")],
        [ColumnRef("a", "r")],
        residual=Comparison(">", ColumnRef("a", "l"), Literal(1)),
    )
    rows = _run(join, catalog, storage)
    assert sorted(r[0] for r in rows) == [2, 3]


def test_nl_join_semi(env):
    catalog, storage, _, plain = env
    join = NLJoin(
        "semi",
        Scan(plain, "l"),
        Scan(plain, "r"),
        Comparison("<", ColumnRef("a", "l"), ColumnRef("a", "r")),
    )
    rows = _run(join, catalog, storage)
    assert sorted(r[0] for r in rows) == [1, 2]


def test_hash_agg_grouped(env):
    catalog, storage, part, _ = env
    spec = PartSelectorSpec.for_table(1, part, "t")
    scan = Sequence([PartitionSelector(spec), DynamicScan(part, "t", 1)])
    agg = HashAgg(
        scan,
        [ColumnRef("k", "t")],
        [(AggCall("count", None), "cnt")],
    )
    rows = _run(agg, catalog, storage)
    assert len(rows) == 20
    assert all(r[1] == 1 for r in rows)


def test_scalar_agg_functions(env):
    catalog, storage, _, plain = env
    agg = HashAgg(
        Scan(plain, "p"),
        [],
        [
            (AggCall("count", None), "star"),
            (AggCall("count", ColumnRef("a", "p")), "non_null"),
            (AggCall("sum", ColumnRef("a", "p")), "total"),
            (AggCall("avg", ColumnRef("a", "p")), "mean"),
            (AggCall("min", ColumnRef("a", "p")), "lo"),
            (AggCall("max", ColumnRef("a", "p")), "hi"),
        ],
    )
    rows = _run(agg, catalog, storage)
    assert rows == [(4, 3, 6, 2.0, 1, 3)]


def test_scalar_agg_empty_input_on_coordinator(env):
    catalog, storage, _, plain = env
    empty = Filter(Scan(plain, "p"), Literal(False))
    agg = HashAgg(
        empty,
        [],
        [
            (AggCall("count", None), "star"),
            (AggCall("sum", ColumnRef("a", "p")), "total"),
        ],
    )
    # coordinator (segment 0) emits the empty-group row...
    assert _run(agg, catalog, storage) == [(0, None)]
    # ...other segments stay silent
    ctx = ExecContext(catalog, storage, SEGMENTS)
    assert rows_of(agg, 1, ctx) == []


def test_sort_null_placement(env):
    catalog, storage, _, plain = env
    ascending = Sort(Scan(plain, "p"), [(ColumnRef("a", "p"), True)])
    rows = _run(ascending, catalog, storage)
    assert [r[0] for r in rows] == [1, 2, 3, None]
    descending = Sort(Scan(plain, "p"), [(ColumnRef("a", "p"), False)])
    rows = _run(descending, catalog, storage)
    assert [r[0] for r in rows] == [None, 3, 2, 1]


def test_limit(env):
    catalog, storage, _, plain = env
    rows = _run(Limit(Scan(plain, "p"), 2), catalog, storage)
    assert len(rows) == 2
    assert _run(Limit(Scan(plain, "p"), 0), catalog, storage) == []


def test_append_and_guarded_leaf_scan(env):
    catalog, storage, part, _ = env
    oids = part.all_leaf_oids()
    append = Append(
        [LeafScan(part, "t", oid, guard_scan_id=9) for oid in oids]
    )
    ctx = ExecContext(catalog, storage, SEGMENTS)
    channel = ctx.channel(9, 0)
    channel.push(part.leaf_mask([oids[1]]))
    channel.close()
    rows = rows_of(append, 0, ctx)
    assert all(25 <= r[0] < 50 for r in rows)
    assert ctx.metrics.partitions_scanned("part") == 1
