"""Width invariance: one pipeline, the same answer at every batch width.

The executor runs every width through the same batch operators; width 1
is row-at-a-time execution.  At widths 1, 7 and 1024 it must be externally
indistinguishable from the handwritten row operators kept as the reference
in :mod:`tests.executor.row_reference` — same rows, same per-node
counters, same Motion rows and bytes, same guardrail firing points
(max_rows budget, cooperative cancel, timeout) and typed messages, same
LIMIT semantics.  These tests pin the exact accounting rules:

* ``tick_rows(n)`` enforces exactly what ``n`` calls of ``tick_rows(1)``
  would (cancel-after-checks thresholds, amortized deadline reads);
* ``charge_rows_batch(n)`` stops at the first crossing charge, so
  ``buffered_rows`` and the typed error message match one-by-one charges;
* ``TupleQueue.put_batch`` degrades to per-row puts on bounded queues so
  backpressure errors fire on the same row;
* the one legal divergence, below a LIMIT that abandons its child, is the
  contract of docs/observability.md ("Width invariance").
"""

from __future__ import annotations

import datetime
import math

import pytest

from repro import Database
from repro import types as t
from repro.catalog import DistributionPolicy, PartitionScheme, TableSchema, uniform_int_level
from repro.errors import (
    ChannelError,
    QueryCancelled,
    QueryTimeout,
    ResourceLimitExceeded,
)
from repro.executor.executor import motion_row_bytes
from repro.executor.queues import MotionBuffer, TupleQueue
from repro.obs.metrics import MetricsCollector
from repro.resilience import CancelToken, QueryLimits
from repro.settings import QuerySettings
from tests.conftest import rows_of

from . import row_reference

BATCH_SIZES = [1, 7, 1024]

JOIN_SQL = (
    "SELECT o.order_id, d.year FROM orders_fk o, date_dim d "
    "WHERE o.date_id = d.date_id AND d.year = 2012"
)

QUERIES = [
    "SELECT order_id, amount FROM orders WHERE amount > 50.0",
    JOIN_SQL,
    "SELECT count(*), sum(amount) FROM orders",
    (
        "SELECT d.month, count(*) FROM orders_fk o, date_dim d "
        "WHERE o.date_id = d.date_id GROUP BY d.month"
    ),
    "SELECT order_id FROM orders ORDER BY order_id DESC LIMIT 17",
    "SELECT order_id FROM orders LIMIT 5",
]


# -- guardrail unit level ----------------------------------------------------


def _ticks_until_raised(limits, step: int, total: int):
    """Rows ticked, in steps of ``step``, when the guardrail fired."""
    limits.start()
    for done in range(0, total, step):
        try:
            limits.tick_rows(step)
        except (QueryCancelled, QueryTimeout) as error:
            return type(error), done + step
    return None, total


def test_tick_rows_matches_sequential_ticks_for_cancel():
    # The threshold checkpoint lands mid-batch: the batch call must fire.
    limits = QueryLimits(cancel=CancelToken(cancel_after_checks=10))
    limits.tick_rows(9)
    with pytest.raises(QueryCancelled):
        limits.tick_rows(4)
    # f(n) == n x f(1): the same checkpoint trips, in the step holding it
    for step in (1, 4, 7, 13):
        cancel = QueryLimits(cancel=CancelToken(cancel_after_checks=10))
        assert _ticks_until_raised(cancel, step, 52) == (
            QueryCancelled, -(-10 // step) * step,
        )
        deadline = QueryLimits(timeout_seconds=0.0, check_interval=16)
        assert _ticks_until_raised(deadline, step, 52) == (
            QueryTimeout, -(-16 // step) * step,
        )


def test_tick_rows_zero_and_inactive_are_noops():
    limits = QueryLimits()
    limits.tick_rows(0)
    limits.tick_rows(10**6)  # no guardrail configured: never raises


def test_tick_rows_crosses_deadline_boundary():
    limits = QueryLimits(timeout_seconds=0.0, check_interval=128)
    limits.start()
    # 100 ticks: no boundary crossed yet, so the amortized clock read is
    # skipped exactly as 100 sequential tick() calls would skip it.
    limits.tick_rows(100)
    with pytest.raises(QueryTimeout):
        limits.tick_rows(100)  # crosses tick 128


def test_charge_rows_batch_matches_sequential_buffered_rows():
    sequential = QueryLimits(max_rows=10)
    with pytest.raises(ResourceLimitExceeded) as seq_err:
        for _ in range(15):
            sequential.charge_rows(1)
    batched = QueryLimits(max_rows=10)
    with pytest.raises(ResourceLimitExceeded) as batch_err:
        batched.charge_rows_batch(15)
    assert batched.buffered_rows == sequential.buffered_rows == 11
    assert str(batch_err.value) == str(seq_err.value)


def test_charge_rows_batch_per_row_matches_broadcast_charges():
    # Broadcast charges num_segments per row; the crossing charge is
    # included whole, exactly like the sequential loop.
    sequential = QueryLimits(max_rows=10)
    with pytest.raises(ResourceLimitExceeded):
        for _ in range(5):
            sequential.charge_rows(4)
    batched = QueryLimits(max_rows=10)
    with pytest.raises(ResourceLimitExceeded):
        batched.charge_rows_batch(5, per_row=4)
    assert batched.buffered_rows == sequential.buffered_rows == 12


def test_charge_rows_batch_under_budget_accumulates_exactly():
    limits = QueryLimits(max_rows=100)
    limits.charge_rows_batch(40)
    limits.charge_rows_batch(60)
    assert limits.buffered_rows == 100
    with pytest.raises(ResourceLimitExceeded):
        limits.charge_rows_batch(1)
    assert limits.buffered_rows == 101


# -- queue unit level --------------------------------------------------------


def test_put_batch_drains_identically_to_per_row_puts():
    rows = [(i,) for i in range(10)]
    per_row = TupleQueue()
    for row in rows:
        per_row.put(row, producer=1)
    per_row.close()
    batched = TupleQueue()
    batched.put_batch(rows[:4], producer=1)
    batched.put_batch(rows[4:], producer=1)
    batched.put_batch([], producer=1)
    batched.close()
    assert batched.rows() == per_row.rows()


def test_put_batch_interleaves_producers_like_per_row_puts():
    per_row = TupleQueue()
    batched = TupleQueue()
    for producer in (2, 0, 1):
        run = [(producer, i) for i in range(3)]
        for row in run:
            per_row.put(row, producer=producer)
        batched.put_batch(run, producer=producer)
    per_row.close()
    batched.close()
    # the deterministic drain merges runs in producer-segment order
    assert batched.rows() == per_row.rows()


def test_put_batch_bounded_raises_on_the_same_row():
    bounded = TupleQueue(capacity=3)
    with pytest.raises(ChannelError):
        bounded.put_batch([(i,) for i in range(5)])
    assert len(bounded) == 3  # rows before the overflowing one were kept


def test_put_batch_to_closed_queue_raises():
    queue = TupleQueue()
    queue.close()
    with pytest.raises(ChannelError):
        queue.put_batch([(1,)])


def test_send_batch_of_n_equals_n_sends_of_one():
    rows = [(i, "x" * i) for i in range(9)]
    whole, single = MotionBuffer(2), MotionBuffer(2)
    for producer in (1, 0):
        whole.send_batch(1, rows, producer)
        for row in rows:
            single.send_batch(1, [row], producer)
    whole.close()
    single.close()
    assert whole.rows(1) == single.rows(1) == rows + rows
    assert whole.rows(0) == single.rows(0) == []


@pytest.mark.parametrize("producers", [1, 2])
def test_record_motion_batch_of_n_equals_n_records_of_one(producers):
    """The Motion byte measure over a real layout: 8 bytes of framing per
    row and 8 per slot, whatever its type or value: the INT / FLOAT / DATE
    base columns, the TEXT column and the computed ``max(s)`` slot, NULL
    included.  A batch of n rows sizes and records as n rows of one, and
    batches sent from ``producers`` segments add up as from one."""
    table = Catalog().create_table(
        "m",
        TableSchema.of(("i", t.INT), ("f", t.FLOAT), ("d", t.DATE), ("s", t.TEXT)),
        distribution=DistributionPolicy.hashed("i"),
    )
    keys = [_col(name, "x") for name in ("i", "f", "d", "s")]
    motion = GatherMotion(
        HashAgg(Scan(table, "x"), keys, [(AggCall("max", keys[3]), "top")])
    )
    rows = [
        (
            None if i == 3 else i,
            None if i % 4 else 0.5 * i,
            None if i == 5 else datetime.date(2013, 1, 1 + i),
            None if i % 3 == 0 else "x" * i,
            None if i == 7 else "it's"[: i % 5],
        )
        for i in range(9)
    ]
    row_bytes = motion_row_bytes(motion)

    def size(batch):
        return row_bytes * len(batch)

    expected = len(rows) * (8 + 5 * 8)
    assert size(rows) == sum(size([row]) for row in rows) == expected

    def recorded(batches):
        collector = MetricsCollector(2)
        for i, batch in enumerate(batches):
            collector.record_motion_batch(
                motion, "gather", i % producers, 1, len(batch), size(batch)
            )
        node = collector.node(motion)
        return node.motion_kind, node.rows_by_target, node.bytes_moved

    whole = recorded([rows])
    assert whole == recorded([[row] for row in rows])
    assert whole == ("gather", [0, 9], expected)


# -- engine level: result equivalence ---------------------------------------


def _node_counters(metrics):
    """Per node, in plan order: rows out, rows scanned and loops per
    segment, Motion rows per target and bytes."""
    return [
        (n.op, n.detail, n.rows_out, n.rows_scanned, n.loops,
         n.rows_by_target, n.bytes_moved)
        for n in metrics.nodes
    ]


def _row_reference(db, sql, optimizer="orca", **kwargs):
    """(rows, context) of ``sql`` run through the row operators."""
    return row_reference.run_plan(db, db.plan(sql, optimizer), **kwargs)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("sql", QUERIES)
def test_batch_results_match_row_path(orders_db, sql, batch_size):
    rows, ctx = _row_reference(orders_db, sql)
    batched = orders_db.sql(sql, analyze=True, batch_size=batch_size)
    assert batched.rows == rows  # same rows in the same order
    if "LIMIT" not in sql or batch_size == 1:
        # nothing is abandoned mid-stream (or width 1 is the row path):
        # every counter of every node, Motion rows and bytes included
        assert _node_counters(batched.metrics) == _node_counters(ctx.metrics)
    assert batched.metrics.partitions_scanned() == ctx.metrics.partitions_scanned()
    assert batched.metrics.total_rows_scanned == ctx.metrics.total_rows_scanned


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batch_partition_elimination_is_batch_invariant(orders_db, batch_size):
    sql = JOIN_SQL
    _, ctx = _row_reference(orders_db, sql)
    batched = orders_db.sql(sql, analyze=True, batch_size=batch_size)
    assert (
        batched.metrics.partitions_scanned()
        == ctx.metrics.partitions_scanned()
    )
    assert (
        batched.metrics.total_rows_scanned
        == ctx.metrics.total_rows_scanned
    )
    assert [
        batched.metrics.selector_summary(scan_id) for scan_id in batched.metrics.selectors
    ] == [ctx.metrics.selector_summary(scan_id) for scan_id in ctx.metrics.selectors]


def test_metrics_record_the_batch_size(orders_db):
    result = orders_db.sql(
        "SELECT order_id FROM orders", analyze=True, batch_size=64
    )
    assert result.metrics.parallel_stats()["batch_size"] == 64


# -- engine level: guardrails fire identically -------------------------------


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_max_rows_fires_identically_at_any_batch_size(orders_db, batch_size):
    reference_limits = QueryLimits(max_rows=5)
    with pytest.raises(ResourceLimitExceeded) as row_err:
        _row_reference(orders_db, JOIN_SQL, limits=reference_limits)
    limits = QueryLimits(max_rows=5)
    with pytest.raises(ResourceLimitExceeded) as batch_err:
        orders_db.execute_plan(
            orders_db.plan(JOIN_SQL), limits=limits, batch_size=batch_size
        )
    assert str(batch_err.value) == str(row_err.value)
    assert limits.buffered_rows == reference_limits.buffered_rows == 8
    with pytest.raises(ResourceLimitExceeded) as sql_err:
        orders_db.sql(JOIN_SQL, max_rows=5, batch_size=batch_size)
    assert str(sql_err.value) == str(row_err.value)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_cancel_fires_at_any_batch_size(orders_db, batch_size):
    with pytest.raises(QueryCancelled):
        orders_db.sql(
            JOIN_SQL,
            batch_size=batch_size,
            cancel=CancelToken(cancel_after_checks=10),
        )


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_timeout_fires_at_any_batch_size(orders_db, batch_size):
    with pytest.raises(QueryTimeout):
        orders_db.sql(JOIN_SQL, timeout=0.0, batch_size=batch_size)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_max_rows_budget_boundary_is_batch_invariant(orders_db, batch_size):
    # 2400 rows buffered at the gather: passes a 2400-row budget, fails
    # 2399, at every batch width (see test_max_rows_counts_motion_buffers).
    result = orders_db.sql(
        "SELECT order_id FROM orders", max_rows=2400, batch_size=batch_size
    )
    assert len(result.rows) == 2400
    with pytest.raises(ResourceLimitExceeded):
        orders_db.sql(
            "SELECT order_id FROM orders", max_rows=2399, batch_size=batch_size
        )


# -- configuration surface ---------------------------------------------------


def test_invalid_batch_size_rejected():
    with pytest.raises(ValueError):
        Database(num_segments=2, batch_size=0)
    db = Database(num_segments=2)
    db.create_table("t", TableSchema.of(("a", t.INT)))
    db.insert("t", [(1,)])
    with pytest.raises(ValueError):
        db.sql("SELECT a FROM t", batch_size=0)


def test_database_batch_size_default_is_overridable():
    db = Database(num_segments=2, batch_size=1)
    db.create_table(
        "t",
        TableSchema.of(("a", t.INT), ("k", t.INT)),
        distribution=DistributionPolicy.hashed("a"),
        partition_scheme=PartitionScheme([uniform_int_level("k", 0, 100, 4)]),
    )
    db.insert("t", [(i, i % 100) for i in range(300)])
    row_mode = db.sql("SELECT a FROM t WHERE k < 50", analyze=True)
    assert row_mode.metrics.parallel_stats()["batch_size"] == 1
    batched = db.sql("SELECT a FROM t WHERE k < 50", batch_size=32)
    assert sorted(batched.rows) == sorted(row_mode.rows)


# -- storage batch scans -----------------------------------------------------


def test_scan_segment_batches_matches_scan_segment(orders_db):
    storage = orders_db.storage
    root = orders_db.catalog.table("orders").oid
    for segment in range(orders_db.num_segments):
        rows = list(storage.store(root).scan_segment(segment))
        batches = list(
            storage.scan_table_batches(segment, root, batch_size=64)
        )
        flat = [row for batch in batches for row in batch]
        assert flat == rows
        assert all(len(batch) <= 64 for batch in batches)
        assert all(batch for batch in batches)  # never yields empties


# -- generated kernels: every variant equals the row path --------------------
#
# Hand-built operator trees over one segment, so each kernel variant is
# reached whatever plan the optimizers prefer: the row operators of
# row_reference are the reference, the pipeline runs at widths 1, 7 and
# 1024, and rows (in order), every node's rows_out / rows_scanned / loops
# and the max_rows firing point must be equal.

from repro.catalog import Catalog  # noqa: E402
from repro.errors import ExecutionError  # noqa: E402
from repro.executor.context import ExecContext  # noqa: E402
from repro.executor.iterators import build_batches  # noqa: E402
from repro.executor.kernels import project_kernel  # noqa: E402
from repro.expr.ast import (  # noqa: E402
    AggCall,
    Arithmetic,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    Parameter,
)
from repro.physical.ops import (  # noqa: E402
    Delete,
    EmptyScan,
    Filter,
    GatherMotion,
    HashAgg,
    HashJoin,
    Limit,
    NLJoin,
    Project,
    Scan,
    Sort,
)
from repro.storage import StorageManager  # noqa: E402

#: l(k, g, v) and r(k, g, w): NULLs in every column, duplicate keys on both
#: sides, float values whose sum depends on the order of addition
L_ROWS = [
    (i % 7 if i % 11 else None, i % 3 if i % 5 else None, 0.1 * i if i % 4 else None)
    for i in range(60)
]
R_ROWS = [
    (i % 9 if i % 6 else None, i % 3 if i % 7 else None, i if i % 5 else None)
    for i in range(40)
]


#: build rows of ``l`` that have a join key
KEYED = sum(1 for row in L_ROWS if row[0] is not None)


@pytest.fixture(scope="module")
def kernel_env():
    catalog = Catalog()
    storage = StorageManager(catalog, 1)
    tables = {}
    for name, columns, rows in (
        ("l", (("k", t.INT), ("g", t.INT), ("v", t.FLOAT)), L_ROWS),
        ("r", (("k", t.INT), ("g", t.INT), ("w", t.INT)), R_ROWS),
        ("nulls", (("k", t.INT), ("g", t.INT), ("v", t.FLOAT)),
         [(None, 1, None), (None, 1, None), (None, 2, None)]),
    ):
        table = catalog.create_table(
            name, TableSchema.of(*columns), distribution=DistributionPolicy.replicated()
        )
        storage.register(table)
        storage.store(table.oid).insert_many(rows)
        tables[name] = table
    return catalog, storage, tables


def _col(name, alias):
    return ColumnRef(name, alias)


def _run_tree(kernel_env, make_tree, width, params=None, max_rows=None):
    """(rows, per-node counters, limits) — or the typed error — of a fresh
    tree run through the row reference (``width=None``) or the pipeline."""
    catalog, storage, tables = kernel_env
    limits = QueryLimits(max_rows=max_rows)
    limits.start()
    ctx = ExecContext(
        catalog, storage, 1, params, limits=limits,
        settings=QuerySettings(batch_size=width or 1),
    )
    tree = make_tree(tables)
    try:
        if width is None:
            rows = list(row_reference.build_iterator(tree, 0, ctx))
        else:
            rows = []
            for batch in build_batches(tree, 0, ctx):
                assert 0 < len(batch) <= width  # never empty, never wider
                rows.extend(batch)
    except (ResourceLimitExceeded, ExecutionError) as error:
        return type(error), str(error), limits.buffered_rows
    counters = sorted(
        (n.op, n.detail, n.rows_out, n.rows_scanned, n.loops)
        for n in ctx.metrics.nodes
    )
    return rows, counters, limits.buffered_rows


def _join(kind, keys, residual=None, build="l", probe="r"):
    def make(tables):
        return HashJoin(
            kind,
            Scan(tables[build], "b"),
            Scan(tables[probe], "p"),
            [_col(k, "b") for k in keys],
            [_col(k, "p") for k in keys],
            residual,
        )

    return make


RESIDUAL = Comparison("<", _col("v", "b"), _col("w", "p"))

JOINS = {
    "inner-single-key": _join("inner", ["k"]),
    "inner-multi-key": _join("inner", ["k", "g"]),
    "inner-residual": _join("inner", ["k"], RESIDUAL),
    "inner-multi-key-residual": _join("inner", ["k", "g"], RESIDUAL),
    "semi": _join("semi", ["k"]),
    "semi-multi-key": _join("semi", ["k", "g"]),
    "semi-residual": _join("semi", ["k"], RESIDUAL),
    "all-null-build-keys": _join("inner", ["k"], build="nulls", probe="l"),
    "all-null-probe-keys": _join("semi", ["k", "g"], build="l", probe="nulls"),
    "expression-key": lambda tables: HashJoin(
        "inner",
        Scan(tables["l"], "b"),
        Scan(tables["r"], "p"),
        [Arithmetic("+", _col("k", "b"), Literal(1))],
        [Arithmetic("+", _col("k", "p"), Parameter(1))],
    ),
}


@pytest.mark.parametrize("width", BATCH_SIZES)
@pytest.mark.parametrize("name", sorted(JOINS))
def test_join_kernels_match_the_row_path(kernel_env, name, width):
    reference = _run_tree(kernel_env, JOINS[name], None, params=[1])
    assert _run_tree(kernel_env, JOINS[name], width, params=[1]) == reference
    rows = reference[0]
    if name.startswith("all-null"):
        assert rows == []  # NULL keys never join, from either side
    else:
        assert rows


ALL_AGGS = [
    (AggCall("count", None), "n"),
    (AggCall("count", _col("v", "x")), "nv"),
    (AggCall("sum", _col("v", "x")), "s"),
    (AggCall("avg", _col("v", "x")), "a"),
    (AggCall("min", _col("v", "x")), "lo"),
    (AggCall("max", _col("v", "x")), "hi"),
    (AggCall("sum", Arithmetic("*", _col("v", "x"), Literal(2))), "s2"),
    (AggCall("count", Literal(1)), "ones"),
]


def _agg(table, keys, mode, predicate=None):
    def make(tables):
        child = (
            EmptyScan(tables["l"], "x") if table == "empty" else Scan(tables[table], "x")
        )
        if predicate is not None:
            child = Filter(child, predicate)
        partial = HashAgg(
            child,
            [_col(k, "x") for k in keys],
            ALL_AGGS,
            "partial" if mode == "final" else mode,
        )
        if mode != "final":
            return partial
        return HashAgg(
            partial,
            [_col(k, "x") for k in keys],
            [(AggCall(agg.func, ColumnRef(name)), name) for agg, name in ALL_AGGS],
            "final",
        )

    return make


AGG_INPUTS = {
    "rows": ("l", None),
    "all-null": ("nulls", None),
    "filtered-empty": ("l", Comparison("<", _col("k", "x"), Literal(-1))),
    "empty": ("empty", None),
}


@pytest.mark.parametrize("width", BATCH_SIZES)
@pytest.mark.parametrize("mode", ["single", "partial", "final"])
@pytest.mark.parametrize("keys", [(), ("g",), ("k", "g")], ids=["scalar", "one-key", "two-keys"])
@pytest.mark.parametrize("data", sorted(AGG_INPUTS))
def test_agg_kernels_match_the_row_path(kernel_env, data, keys, mode, width):
    table, predicate = AGG_INPUTS[data]
    make = _agg(table, keys, mode, predicate)
    reference = _run_tree(kernel_env, make, None)
    assert _run_tree(kernel_env, make, width) == reference
    rows = reference[0]
    if data in ("empty", "filtered-empty"):
        # a scalar aggregate answers over no rows; a grouped one has no groups
        assert len(rows) == (0 if keys else 1)
    if data == "all-null" and not keys and mode != "partial":
        assert rows == [(3, 0, None, None, None, None, None, 3)]


def test_float_sums_accumulate_left_to_right(kernel_env):
    """The batch==row battery compares exactly, so the kernel may not use
    ``sum()`` (compensated on 3.12) or reorder the additions."""
    total = None
    for _, _, v in L_ROWS:
        if v is not None:
            total = v if total is None else total + v
    make = _agg("l", (), "single")
    for width in BATCH_SIZES:
        rows = _run_tree(kernel_env, make, width)[0]
        assert rows[0][2] == total


@pytest.mark.parametrize("width", BATCH_SIZES)
@pytest.mark.parametrize(
    "keys",
    [
        [("v", True)],
        [("v", False)],
        [("g", True), ("v", False)],
        [("g", False), ("k", True), ("v", True)],
    ],
    ids=["asc", "desc", "asc-desc", "desc-asc-asc"],
)
def test_sort_kernel_matches_the_row_path(kernel_env, keys, width):
    make = lambda tables: Sort(  # noqa: E731
        Scan(tables["l"], "x"), [(_col(name, "x"), asc) for name, asc in keys]
    )
    reference = _run_tree(kernel_env, make, None)
    assert _run_tree(kernel_env, make, width) == reference
    column = {"k": 0, "g": 1, "v": 2}[keys[0][0]]
    leading = [row[column] for row in reference[0]]
    nulls = leading.count(None)
    assert nulls  # NULLs sort last ascending, first descending
    assert (leading[-nulls:] if keys[0][1] else leading[:nulls]) == [None] * nulls


@pytest.mark.parametrize("width", BATCH_SIZES)
def test_filter_and_project_kernels_match_the_row_path(kernel_env, width):
    predicate = Comparison(">", Arithmetic("*", _col("v", "x"), Literal(2)), Parameter(1))
    make = lambda tables: Project(  # noqa: E731
        Filter(Scan(tables["l"], "x"), predicate),
        [
            (_col("k", "x"), "k"),
            (Arithmetic("/", _col("k", "x"), Literal(2)), "half"),
            (InList(_col("g", "x"), [1, None]), "member"),
            (Literal("it's"), "text"),
        ],
    )
    reference = _run_tree(kernel_env, make, None, params=[3.0])
    assert _run_tree(kernel_env, make, width, params=[3.0]) == reference
    assert reference[0] and all(row[3] == "it's" for row in reference[0])
    zero = lambda tables: Project(  # noqa: E731
        Scan(tables["l"], "x"), [(Arithmetic("%", _col("k", "x"), Literal(0)), "m")]
    )
    error = _run_tree(kernel_env, zero, None)
    assert error[:2] == (ExecutionError, "division by zero")
    assert _run_tree(kernel_env, zero, width)[:2] == error[:2]


@pytest.mark.parametrize("width", BATCH_SIZES)
def test_identity_project_returns_its_input_batch(kernel_env, width):
    """A Project of its input's slots in order runs no per-row loop: the
    kernel hands back the very list it got.  A reordering or a subset is
    projected, and every shape equals the row reference."""
    _, _, tables = kernel_env
    layout = Scan(tables["l"], "x").output_layout()
    columns = [_col(name, "x") for name in ("k", "g", "v")]
    batch = list(L_ROWS)
    assert project_kernel(columns, layout, None)(batch) is batch
    shapes = {"identity": columns, "reordered": columns[::-1],
              "prefix": columns[:2], "suffix": columns[1:]}
    for name, exprs in shapes.items():
        projected = project_kernel(exprs, layout, None)(batch)
        assert (projected is batch) == (name == "identity")
        make = lambda tables, exprs=exprs: Project(  # noqa: E731
            Scan(tables["l"], "x"), [(e, e.name) for e in exprs]
        )
        reference = _run_tree(kernel_env, make, None)
        assert _run_tree(kernel_env, make, width) == reference
        slots = [layout.resolve(e) for e in exprs]
        assert reference[0] == [tuple(row[i] for i in slots) for row in L_ROWS]


@pytest.mark.parametrize("width", BATCH_SIZES)
@pytest.mark.parametrize("budget", [0, 1, 5, 20, KEYED - 1, KEYED])
def test_max_rows_trips_inside_a_build_side_identically(kernel_env, budget, width):
    """Only build rows with a key are buffered: budgets below their count
    trip mid-build, with the same message and the same buffered_rows as
    row-at-a-time charging."""
    reference = _run_tree(kernel_env, JOINS["inner-single-key"], None, max_rows=budget)
    result = _run_tree(kernel_env, JOINS["inner-single-key"], width, max_rows=budget)
    assert result == reference
    assert (reference[0] is ResourceLimitExceeded) == (budget < KEYED)


@pytest.mark.parametrize("width", BATCH_SIZES)
@pytest.mark.parametrize("keys", [(), ("g",), ("k", "g")], ids=["scalar", "one-key", "two-keys"])
def test_max_rows_trips_inside_a_group_table_identically(kernel_env, keys, width):
    """One charge per group; the scalar aggregate's single group is charged
    when its first row arrives."""
    make = _agg("l", keys, "single")
    groups = len({tuple(row["kgv".index(k)] for k in keys) for row in L_ROWS})
    assert len(_run_tree(kernel_env, make, None)[0]) == groups
    for budget in (groups - 1, groups):
        reference = _run_tree(kernel_env, make, None, max_rows=budget)
        assert _run_tree(kernel_env, make, width, max_rows=budget) == reference
        assert (reference[0] is ResourceLimitExceeded) == (budget < groups)
        assert reference[2] == groups  # buffered_rows stops at the crossing charge
    empty = _agg("empty", keys, "single")
    assert _run_tree(kernel_env, empty, width, max_rows=0)[2] == 0


# -- the rewritten stragglers: NLJoin, Delete, Update -------------------------

NL_EQ = Comparison("=", _col("k", "o"), _col("k", "i"))


def _nl_join(kind, predicate=NL_EQ):
    return lambda tables: NLJoin(
        kind, Scan(tables["l"], "o"), Scan(tables["r"], "i"), predicate
    )


@pytest.mark.parametrize("width", BATCH_SIZES)
@pytest.mark.parametrize("kind", ["inner", "semi"])
def test_nl_join_output_crosses_batch_boundaries(kernel_env, kind, width):
    """NLJoin emits batches of at most the width (asserted for every batch
    in ``_run_tree``); its output is several batches long at width 7."""
    reference = _run_tree(kernel_env, _nl_join(kind), None)
    assert _run_tree(kernel_env, _nl_join(kind), width) == reference
    assert len(reference[0]) > 7 and len(reference[0]) % 7
    cross = _run_tree(kernel_env, _nl_join(kind, None), width)
    assert cross == _run_tree(kernel_env, _nl_join(kind, None), None)
    assert len(cross[0]) == (60 if kind == "semi" else 60 * 40)


@pytest.mark.parametrize("width", BATCH_SIZES)
@pytest.mark.parametrize("kind", ["inner", "semi"])
def test_nl_join_gulp_charge_is_the_same_at_every_width(kernel_env, kind, width):
    """Both inputs are materialized and charged at once: 100 rows, over
    the budget or not, never a partial charge."""
    both = len(L_ROWS) + len(R_ROWS)
    for budget in (both - 1, both):
        reference = _run_tree(kernel_env, _nl_join(kind), None, max_rows=budget)
        assert _run_tree(kernel_env, _nl_join(kind), width, max_rows=budget) == reference
        assert (reference[0] is ResourceLimitExceeded) == (budget < both)
        assert reference[2] == both


def _dml_env(rows):
    catalog = Catalog()
    storage = StorageManager(catalog, 1)
    target = catalog.create_table(
        "t",
        TableSchema.of(("a", t.INT), ("k", t.INT)),
        distribution=DistributionPolicy.hashed("a"),
        partition_scheme=PartitionScheme([uniform_int_level("k", 0, 100, 4)]),
    )
    using = catalog.create_table(
        "u", TableSchema.of(("x", t.INT)), distribution=DistributionPolicy.replicated()
    )
    for table, data in ((target, rows), (using, [(a,) for a, _ in rows[:20]] * 2)):
        storage.register(table)
        storage.store(table.oid).insert_many(data)
    return catalog, storage, target, using


@pytest.mark.parametrize("width", [None, *BATCH_SIZES], ids=["reference", "1", "7", "1024"])
def test_delete_using_duplicate_victims_in_two_batches_delete_once(width):
    """``u`` lists 20 keys twice, 20 rows apart: probing with it emits every
    victim twice, in different child batches at width 7.  Each is deleted
    (and counted) once."""
    rows = [(a, (a * 7) % 100) for a in range(50)]
    catalog, storage, target, using = _dml_env(rows)
    delete = Delete(
        HashJoin(
            "inner", Scan(target, "t"), Scan(using, "u"),
            [_col("a", "t")], [_col("x", "u")],
        ),
        target,
        "t",
    )
    ctx = ExecContext(
        catalog, storage, 1, settings=QuerySettings(batch_size=width or 1)
    )
    if width is None:
        deleted = list(row_reference.build_iterator(delete, 0, ctx))
    else:
        deleted = rows_of(delete, 0, ctx)
    assert deleted == [(20,)]
    assert ctx.metrics.node(delete.children[0]).rows_out == [40]
    assert sorted(storage.store(target.oid).scan_all()) == rows[20:]


@pytest.mark.parametrize("optimizer", ["orca", "planner"])
def test_update_moves_rows_across_partitions_and_segments_in_many_batches(optimizer):
    """50 updated rows reach the Update in eight batches at width 7; every
    one changes its distribution key and its partition key.  The table ends
    up identical at every width, equal to the row reference's, and every
    row sits on the segment and in the leaf its new values route to."""
    from repro.storage.distribution import segment_for

    def placed(width):
        db = Database(num_segments=3)
        table = db.create_table(
            "t",
            TableSchema.of(("a", t.INT), ("k", t.INT)),
            distribution=DistributionPolicy.hashed("a"),
            partition_scheme=PartitionScheme([uniform_int_level("k", 0, 100, 4)]),
        )
        db.insert("t", [(a, a) for a in range(60)])
        sql = "UPDATE t SET a = a + 1000, k = 99 - k WHERE k < 50"
        if width is None:
            rows, _ = _row_reference(db, sql, optimizer)
        else:
            result = db.sql(sql, optimizer=optimizer, batch_size=width, analyze=True)
            rows = result.rows
            gather = result.metrics.nodes[1]
            assert (gather.op, sum(gather.rows_out)) == ("GatherMotion", 50)
        assert rows == [(50,)]
        store = db.storage.store(table.oid)
        where = {}
        for segment in range(3):
            for oid in table.all_leaf_oids():
                for row in store.scan_segment(segment, [oid]):
                    assert segment_for(row[0], 3) == segment
                    assert table.leaf_oid(table.route_row(row)) == oid
                    where[row] = (segment, oid)
        return where

    reference = placed(None)
    assert sorted(reference) == sorted(
        [(a + 1000, 99 - a) for a in range(50)] + [(a, a) for a in range(50, 60)]
    )
    for width in BATCH_SIZES:
        assert placed(width) == reference


# -- the one legal divergence: below a LIMIT that abandons its child ----------


def _limited(count, child):
    return lambda tables: Limit(child(tables), count)


#: shape -> (the Limit's direct child, the tree below the Limit)
ABANDONED = {
    "filter": ("Filter", lambda tables: Filter(
        Scan(tables["l"], "x"), Comparison(">", _col("v", "x"), Literal(0.5))
    )),
    "join": ("HashJoin", JOINS["inner-single-key"]),
    "project-join": ("Project", lambda tables: Project(
        JOINS["inner-single-key"](tables), [(_col("k", "b"), "k")]
    )),
    "nl-join": ("NLJoin", _nl_join("inner")),
}


@pytest.mark.parametrize("width", BATCH_SIZES)
@pytest.mark.parametrize("count", [1, 5, 20])
@pytest.mark.parametrize("shape", sorted(ABANDONED))
def test_limit_contract_below_an_abandoned_child(kernel_env, shape, count, width):
    """docs/observability.md, "Width invariance": the rows are identical;
    width 1 equals the row reference counter for counter; at width ``w`` no
    descendant of the Limit counts fewer rows than at width 1, and the
    Limit's direct child at most ``w - 1`` more."""
    child, below = ABANDONED[shape]
    make = _limited(count, below)
    reference = _run_tree(kernel_env, make, None)
    narrow = _run_tree(kernel_env, make, 1)
    assert narrow == reference
    rows, counters, _ = _run_tree(kernel_env, make, width)
    assert rows == reference[0] and len(rows) == count
    for (op, detail, out, scanned, loops), (_, _, out1, scanned1, loops1) in zip(
        counters, narrow[1]
    ):
        assert loops == loops1
        assert out[0] >= out1[0] and scanned[0] >= scanned1[0]
        if op == "Limit":
            assert out == out1 == [count]
        if op == child:
            assert out[0] <= out1[0] + width - 1


# -- SQL level: the two fixed answers at both optimizers and widths ----------


@pytest.mark.parametrize("batch_size", [1, 1024])
@pytest.mark.parametrize("optimizer", ["orca", "planner"])
def test_not_in_with_a_null_member_returns_no_rows(optimizer, batch_size):
    db = Database(num_segments=4)
    db.create_table(
        "t",
        TableSchema.of(("k", t.INT), ("v", t.INT)),
        distribution=DistributionPolicy.hashed("k"),
        partition_scheme=PartitionScheme([uniform_int_level("v", 0, 40, 4)]),
    )
    db.insert("t", [(k, k % 40) for k in range(200)])
    settings = dict(optimizer=optimizer, batch_size=batch_size)
    assert db.sql("SELECT k FROM t WHERE v NOT IN (10, NULL)", **settings).rows == []
    assert len(db.sql("SELECT k FROM t WHERE v NOT IN (10, 11)", **settings).rows) == 190
    hits = db.sql("SELECT k FROM t WHERE v IN (10, NULL)", **settings)
    assert sorted(hits.rows) == [(k,) for k in range(10, 200, 40)]
    # the NULL member neither widens nor narrows partition selection
    plain = db.sql("SELECT k FROM t WHERE v IN (10)", **settings)
    assert hits.partitions_scanned() == plain.partitions_scanned() == 1
    projected = db.sql("SELECT v IN (10, NULL) FROM t WHERE k = 11", **settings)
    assert projected.rows == [(None,)]  # a miss is unknown, not FALSE


# -- DynamicScan batches span leaves -------------------------------------------

from repro.errors import SegmentFailure  # noqa: E402
from repro.resilience import SCAN_ROW, FaultInjector  # noqa: E402
from repro.storage import table as table_module  # noqa: E402
from repro.workloads.tpch import build_lineitem_database  # noqa: E402

FULL_SCAN = "SELECT * FROM lineitem"


@pytest.fixture(scope="module")
def lineitem_361():
    """Table 2's largest scenario: 6,000 rows over 361 weekly partitions
    and 4 segments, about four rows per (leaf, segment) bucket."""
    return build_lineitem_database(361, row_count=6000, num_segments=4)


def _below_gather(db, sql):
    gather = next(op for op in db.plan(sql).root.walk() if isinstance(op, GatherMotion))
    return gather.children[0]


def _context(db, width, faults=None):
    return ExecContext(
        db.catalog, db.storage, db.num_segments, faults=faults,
        settings=QuerySettings(batch_size=width),
    )


def test_dynamic_scan_emits_full_width_batches(lineitem_361):
    """361 leaves, width 1024: a segment's rows leave its DynamicScan in
    ceil(rows / 1024) batches (one per non-empty leaf, ~360, when batches
    stopped at leaf boundaries), in leaf order, each leaf counted once."""
    db = lineitem_361
    below = _below_gather(db, FULL_SCAN)
    store = db.storage.store_by_name("lineitem")
    leaves = db.catalog.table("lineitem").all_leaf_oids()
    ctx = _context(db, 1024)
    for segment in range(db.num_segments):
        batches = list(build_batches(below, segment, ctx))
        rows = store.segment_row_count(segment)
        assert rows > 1024
        assert len(batches) == math.ceil(rows / 1024)
        assert all(len(batch) == 1024 for batch in batches[:-1])
        assert [row for batch in batches for row in batch] == list(
            store.scan_segment(segment, leaves)
        )
    scan = next(n for n in ctx.metrics.nodes if n.op == "DynamicScan")
    assert scan.partitions == [set(leaves)] * db.num_segments
    assert scan.rows_scanned == [store.segment_row_count(s) for s in range(4)]


def test_io_latency_is_one_sleep_per_opened_leaf(lineitem_361, monkeypatch):
    """The simulated seek is paid per leaf a scan opens, empty ones
    included, however many leaves one batch spans."""
    db = lineitem_361
    slept: list[float] = []
    monkeypatch.setattr(table_module, "time", type("clock", (), {"sleep": slept.append}))
    monkeypatch.setattr(db.storage, "io_latency_s", 0.001)
    result = db.sql(
        "SELECT count(*) FROM lineitem WHERE l_shipdate < '1993-07-01'", analyze=True
    )
    scan = next(n for n in result.metrics.nodes if n.op == "DynamicScan")
    opened = sum(len(leaves) for leaves in scan.partitions)
    assert opened == db.num_segments * result.partitions_scanned("lineitem") > 0
    assert slept == [0.001] * opened


@pytest.mark.parametrize("skip", [0, 3, 250])
def test_scan_row_fault_at_width_1_fires_on_the_same_row(lineitem_361, skip):
    """At width 1 every batch is one row, so an armed ``scan_row`` fault
    fires on the row it fired on when batches stopped at leaf boundaries:
    the row reference's ``skip + 1``-th."""
    db = lineitem_361
    below = _below_gather(db, FULL_SCAN)

    def rows_before_fault(reference):
        faults = FaultInjector()
        faults.arm(SCAN_ROW, segment=2, skip=skip)
        ctx = _context(db, 1, faults)
        if reference:
            rows = row_reference.build_iterator(below, 2, ctx)
        else:
            rows = (row for batch in build_batches(below, 2, ctx) for row in batch)
        seen = []
        with pytest.raises(SegmentFailure):
            for row in rows:
                seen.append(row)
        return seen

    assert rows_before_fault(False) == rows_before_fault(True)
    assert len(rows_before_fault(False)) == skip


@pytest.mark.parametrize("width", BATCH_SIZES)
def test_empty_leaves_after_the_last_row_are_counted(width):
    """Leaves 5-9 of ``t`` hold no rows: a full-width batch ends before
    them, and they are still opened and counted on every segment, as the
    row reference counts them."""
    db = Database(num_segments=3)
    db.create_table(
        "t",
        TableSchema.of(("a", t.INT), ("k", t.INT)),
        distribution=DistributionPolicy.hashed("a"),
        partition_scheme=PartitionScheme([uniform_int_level("k", 0, 100, 10)]),
    )
    db.insert("t", [(a, a % 50) for a in range(200)])
    rows, ctx = _row_reference(db, "SELECT a, k FROM t")
    result = db.sql("SELECT a, k FROM t", batch_size=width)
    assert result.rows == rows
    scans = [
        next(n for n in metrics.nodes if n.op == "DynamicScan")
        for metrics in (result.metrics, ctx.metrics)
    ]
    assert scans[0].partitions == scans[1].partitions == [set(db.catalog.table("t").all_leaf_oids())] * 3
    assert scans[0].rows_scanned == scans[1].rows_scanned
