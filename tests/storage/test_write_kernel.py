"""The generated staging kernel against a per-row reference.

``TableStore.write`` validates, routes and hashes a write set in one
generated pass.  The reference below does the same work one row at a time
the plain way: ``DataType.validate`` per value, a linear search over every
slot's constraint per level (no bisect), ``stable_hash`` for the segment.
Bucket contents, bucket order, the returned count and every error must
agree, and a write that raises must publish nothing.
"""

from __future__ import annotations

import datetime
import enum
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro import types as t
from repro.catalog import (
    Catalog,
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    list_level,
    monthly_range_level,
    range_level,
    uniform_int_level,
)
from repro.errors import CatalogError, PartitionError, SegmentFailure
from repro.expr import codegen
from repro.resilience import FaultInjector
from repro.resilience.faults import DELETE_ROWS, INSERT_ROW
from repro.storage import TableStore
from repro.storage.distribution import stable_hash


class Key(enum.IntEnum):
    ONE = 1
    TWENTY_FIVE = 25


# -- the reference -------------------------------------------------------------


def ref_validate(desc, row) -> tuple:
    columns = desc.schema.columns
    if len(row) != len(columns):
        raise CatalogError(
            f"row has {len(row)} values, schema has {len(columns)} columns"
        )
    return tuple(col.data_type.validate(value) for col, value in zip(columns, row))


def ref_leaf(desc, row: tuple) -> int:
    if not desc.is_partitioned:
        return desc.oid
    leaf = []
    for level in desc.partition_scheme.levels:
        value = row[desc.schema.column_index(level.key)]
        slots = [
            idx for idx, slot in enumerate(level.slots) if slot.constraint.contains(value)
        ]
        if not slots:
            raise PartitionError(
                f"row {row!r} maps to the invalid partition of table {desc.name!r}"
            )
        leaf.append(slots[0])
    return desc.leaf_oid(tuple(leaf))


def ref_segments(desc, num_segments: int, row: tuple) -> list[int]:
    if desc.distribution.kind == DistributionPolicy.REPLICATED:
        return list(range(num_segments))
    value = row[desc.schema.column_index(desc.distribution.column)]
    return [stable_hash(value) % num_segments]


def ref_write(state, desc, num_segments, inserts, replace):
    """``(count, new state)`` of one write on ``state`` (per segment, a dict
    of leaf OID -> rows); raises as the write must, changing nothing."""
    replicated = desc.distribution.kind == DistributionPolicy.REPLICATED
    doomed: dict = {}
    for old in replace:
        oid = ref_leaf(desc, old)
        for seg in ref_segments(desc, num_segments, old):
            doomed.setdefault((seg, oid), set()).add(old)
    new_state = [dict(buckets) for buckets in state]
    replaced: Counter = Counter()
    for (seg, oid), values in doomed.items():
        bucket = state[seg].get(oid, [])
        if any(row in values for row in bucket):
            if not replicated or seg == 0:
                replaced.update(row for row in bucket if row in values)
            new_state[seg][oid] = [row for row in bucket if row not in values]
    count = sum(replaced.values()) + len(inserts)
    news = [new for old, new in replace.items() if new is not None for _ in range(replaced[old])]
    added: dict = {}
    for raw in list(inserts) + news:
        row = ref_validate(desc, raw)
        oid = ref_leaf(desc, row)
        for seg in ref_segments(desc, num_segments, row):
            added.setdefault((seg, oid), []).append(row)
    for (seg, oid), rows in added.items():
        new_state[seg][oid] = new_state[seg].get(oid, []) + rows
    return count, new_state


# -- shapes and rows -----------------------------------------------------------

TYPES = [t.INT, t.BIGINT, t.FLOAT, t.TEXT, t.DATE, t.BOOL]


def levels_for(key: str, data_type) -> list:
    """Partition levels a column of ``data_type`` can key; values the
    row strategy draws fall outside some of them (⊥)."""
    kind = data_type.kind
    if kind in (t.TypeKind.INT, t.TypeKind.BIGINT):
        return [
            range_level(key, [0, 10, 20, 30]),
            list_level(key, [("odd", [1, 3, 25]), ("even", [2, 4, 10])]),
        ]
    if kind is t.TypeKind.FLOAT:
        return [
            range_level(key, [0.0, 2.0, 10.5, 30.0]),
            list_level(key, [("two", [2.0]), ("more", [2.5, 7.0])]),
        ]
    if kind is t.TypeKind.TEXT:
        return [
            list_level(key, [("ab", ["a", "b"]), ("c", ["c"])]),
            range_level(key, ["a", "b", "zz"]),
        ]
    if kind is t.TypeKind.DATE:
        return [
            monthly_range_level(key, datetime.date(2013, 3, 1), 4),
            list_level(key, [("ides", [datetime.date(2013, 5, 15)])]),
        ]
    return [
        list_level(key, [("t", [True]), ("f", [False])]),
        list_level(key, [("t", [True])]),
    ]


VALID = {
    t.TypeKind.INT: st.integers(-5, 35),
    t.TypeKind.BIGINT: st.integers(-5, 35),
    t.TypeKind.FLOAT: st.floats(-1, 31, allow_nan=False) | st.sampled_from([2.0, 2.5]),
    t.TypeKind.TEXT: st.sampled_from(["a", "b", "c", "zz", ""]),
    t.TypeKind.DATE: st.dates(datetime.date(2013, 1, 1), datetime.date(2013, 9, 30)),
    t.TypeKind.BOOL: st.booleans(),
}

#: values the kernel must send through ``validate``: coerced or rejected
ODD = {
    t.TypeKind.INT: st.sampled_from([True, Key.ONE, Key.TWENTY_FIVE, 2.0, "1"]),
    t.TypeKind.BIGINT: st.sampled_from([False, Key.TWENTY_FIVE, 2.0]),
    t.TypeKind.FLOAT: st.sampled_from([2, 25, -3, True, Key.ONE, "2.0"]),
    t.TypeKind.TEXT: st.sampled_from([1, b"a", 2.0]),
    t.TypeKind.DATE: st.sampled_from(
        [
            "2013-05-15",
            "05-15-2013",
            "2013-13-01",
            "not a date",
            datetime.datetime(2013, 5, 15, 12),
            20130515,
        ]
    ),
    t.TypeKind.BOOL: st.sampled_from([1, 0, "t"]),
}


def values(data_type):
    valid = VALID[data_type.kind]
    return st.one_of(valid, valid, valid, st.none(), ODD[data_type.kind])


@st.composite
def tables(draw):
    types = draw(st.lists(st.sampled_from(TYPES), min_size=1, max_size=5))
    schema = TableSchema.of(*((f"c{i}", ty) for i, ty in enumerate(types)))
    depth = draw(st.integers(0, min(2, len(types))))
    keys = draw(st.permutations(range(len(types))))[:depth]
    levels = [draw(st.sampled_from(levels_for(f"c{i}", types[i]))) for i in keys]
    if draw(st.booleans()):
        distribution = DistributionPolicy.replicated()
    else:
        distribution = DistributionPolicy.hashed(f"c{draw(st.integers(0, len(types) - 1))}")
    scheme = PartitionScheme(levels) if levels else None
    return Catalog().create_table("t", schema, distribution, scheme)


def raw_rows(desc):
    """A row as a caller hands it over: a list or tuple, sometimes of the
    wrong arity."""
    types = [col.data_type for col in desc.schema.columns]
    width = len(types)

    @st.composite
    def row(draw):
        cells = [draw(values(ty)) for ty in types]
        arity = draw(st.sampled_from([width] * 8 + [width - 1, width + 1]))
        cells = (cells + [1])[:arity]
        return draw(st.sampled_from([tuple, list]))(cells)

    return row()


def published(store) -> str:
    """Both copies' buckets in order, with every value's type."""
    return repr(
        [
            [list(copy(seg).items()) for seg in range(store.num_segments)]
            for copy in (store.primary_buckets, store.mirror_buckets)
        ]
    )


def outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the class and text are compared
        return exc


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_stages_as_the_per_row_reference(data):
    desc = data.draw(tables())
    num_segments = data.draw(st.integers(1, 4))
    store = TableStore(desc, num_segments)
    events = []
    store.on_mutation = lambda oid, leaves: events.append(leaves)
    state = [{} for _ in range(num_segments)]
    for step in range(3):
        inserts = data.draw(st.lists(raw_rows(desc), max_size=10))
        replace = {}
        stored = [row for buckets in state for rows in buckets.values() for row in rows]
        if step and stored:
            keys = data.draw(st.lists(st.sampled_from(stored), unique=True, max_size=4))
            replace = {key: data.draw(st.none() | raw_rows(desc)) for key in keys}
        expected = outcome(lambda: ref_write(state, desc, num_segments, inserts, replace))
        before, fired = published(store), len(events)
        got = outcome(lambda: store.write(inserts, replace))
        if isinstance(expected, Exception):
            assert type(got) is type(expected)
            assert str(got) == str(expected)
            assert published(store) == before
            assert len(events) == fired
            continue
        count, state = expected
        assert got == count
        assert published(store) == repr(
            [[list(buckets.items()) for buckets in state]] * 2
        )


def test_kernel_is_the_validate_row_of_the_catalog():
    """``coerce`` (the recovery paths) is ``TableSchema.validate_row`` over
    a batch, errors included."""
    desc = Catalog().create_table(
        "t", TableSchema.of(("a", t.INT), ("b", t.FLOAT), ("c", t.DATE), ("d", t.BOOL))
    )
    store = TableStore(desc, 2)
    rows = [[Key.ONE, 2, "05-15-2013", None], (7, 2.5, "2013-05-16", True)]
    assert repr(store.coerce(rows)) == repr([desc.schema.validate_row(r) for r in rows])
    for bad in ([1, 2.0, "x", True], [True, 2.0, None, None], [1, 2.0]):
        expected = outcome(lambda: desc.schema.validate_row(bad))
        got = outcome(lambda: store.coerce([bad]))
        assert (type(got), str(got)) == (type(expected), str(expected))


# -- fault points keep their per-row meaning ------------------------------------


def _store(replicated: bool, num_segments: int = 3) -> TableStore:
    desc = Catalog().create_table(
        "t",
        TableSchema.of(("a", t.INT), ("b", t.INT)),
        DistributionPolicy.replicated() if replicated else DistributionPolicy.hashed("a"),
        PartitionScheme([uniform_int_level("b", 0, 100, 4)]),
    )
    return TableStore(desc, num_segments)


@pytest.mark.parametrize("replicated", [False, True], ids=["hashed", "replicated"])
@pytest.mark.parametrize("skip", [0, 4, 9])
def test_insert_row_fires_on_the_reference_row_and_segment(replicated, skip):
    """``insert_row`` is visited once per row and target segment, in row
    order: armed with ``skip=k`` on one segment (every other segment
    armed never to fire, so its visits are counted too), it fires at the
    (k+1)-th visit of that segment, after exactly the visits the per-row
    reference makes before it."""
    store = _store(replicated)
    faults = store.faults = FaultInjector()
    target = 1
    for seg in range(store.num_segments):
        faults.arm(INSERT_ROW, segment=seg, skip=skip if seg == target else 10**9)
    rows = [(i, (i * 7) % 100) for i in range(40)]
    visits = [
        seg for row in rows for seg in ref_segments(store.descriptor, store.num_segments, row)
    ]
    firing = [pos for pos, seg in enumerate(visits) if seg == target][skip]
    with pytest.raises(SegmentFailure, match=f"at insert_row on segment {target} "):
        store.write(rows)
    assert faults.hits_by_point == {INSERT_ROW: firing + 1}
    assert faults.fired_by_point == {INSERT_ROW: 1}
    assert store.row_count() == 0


def test_delete_rows_fires_per_bucket_under_a_moving_update():
    """An UPDATE that moves every row to another partition visits
    ``delete_rows`` once per bucket that loses rows: armed with ``skip=k``
    below that number the (k+1)-th visit fires, the statement is retried
    and moves every row once."""
    db = Database(num_segments=3)
    db.create_table(
        "t",
        TableSchema.of(("id", t.INT), ("k", t.INT)),
        partition_scheme=PartitionScheme([uniform_int_level("k", 0, 400, 20)]),
    )
    db.insert("t", [(i, i) for i in range(400)])
    store = db.storage.store_by_name("t")
    target = 2
    losing = sum(1 for rows in store.primary_buckets(target).values() if rows)
    assert losing > 3
    db.faults.arm(DELETE_ROWS, segment=target, skip=3)
    assert db.sql("UPDATE t SET k = (k + 20) % 400").rows == [(400,)]
    assert db.faults.hits_by_point[DELETE_ROWS] == 4
    assert db.faults.fired_by_point[DELETE_ROWS] == 1
    assert sorted(db.sql("SELECT * FROM t").rows) == sorted(
        (i, (i + 20) % 400) for i in range(400)
    )
    db.faults.reset()
    db.faults.arm(DELETE_ROWS, segment=target, skip=10**9)
    db.sql("UPDATE t SET k = (k + 20) % 400")
    assert db.faults.hits_by_point[DELETE_ROWS] == losing


# -- one kernel per table ------------------------------------------------------


def test_repeated_writes_compile_no_kernel(monkeypatch):
    """A second ``db.insert``, INSERT, UPDATE and DELETE on a table reuse
    its kernels: nothing is compiled.  A dropped and recreated table gets
    kernels of its own."""
    db = Database(num_segments=3)
    schema = TableSchema.of(("a", t.INT), ("b", t.INT))
    scheme = PartitionScheme([uniform_int_level("b", 0, 100, 4)])
    db.create_table("t", schema, partition_scheme=scheme)

    def writes(base):
        db.insert("t", [(base + i, i) for i in range(50)])
        db.sql(f"INSERT INTO t VALUES ({base + 99}, 5)")
        db.sql("UPDATE t SET b = (b + 30) % 100 WHERE a < 10")
        db.sql("DELETE FROM t WHERE a = 3")

    writes(0)
    store = db.storage.store_by_name("t")
    kernels = dict(store._kernels)
    compiled = []
    monkeypatch.setattr(
        codegen, "compile", lambda *args: compiled.append(args) or compile(*args), raising=False
    )
    writes(1000)
    assert compiled == []
    assert store._kernels == kernels
    assert all(store._kernels[key] is kernel for key, kernel in kernels.items())

    db.drop_table("t")
    db.create_table("t", schema, partition_scheme=scheme)
    writes(0)
    fresh = db.storage.store_by_name("t")
    assert fresh is not store
    assert fresh._kernels.keys() == kernels.keys()
    assert all(fresh._kernels[key] is not kernel for key, kernel in kernels.items())
