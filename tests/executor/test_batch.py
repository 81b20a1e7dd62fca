"""Vectorized batch execution: exact equivalence with the row path.

The executor's batch pipeline (``batch_size > 1``) must be externally
indistinguishable from row-at-a-time execution — same rows, same
guardrail firing points (max_rows budget, cooperative cancel, timeout),
same LIMIT semantics — at every batch width.  These tests pin the exact
accounting rules:

* ``tick_rows(n)`` enforces exactly what ``n`` sequential ``tick()``
  calls would (cancel-after-checks thresholds, amortized deadline reads);
* ``charge_rows_batch(n)`` stops at the first crossing charge, so
  ``buffered_rows`` and the typed error message match the row path;
* ``TupleQueue.put_batch`` degrades to per-row puts on bounded queues so
  backpressure errors fire on the same row.
"""

from __future__ import annotations

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
from repro.executor.queues import TupleQueue
from repro.resilience import CancelToken, QueryLimits

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


def test_tick_rows_matches_sequential_ticks_for_cancel():
    # The threshold checkpoint lands mid-batch: the batch call must fire.
    limits = QueryLimits(cancel=CancelToken(cancel_after_checks=10))
    limits.tick_rows(9)
    with pytest.raises(QueryCancelled):
        limits.tick_rows(4)


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


# -- engine level: result equivalence ---------------------------------------


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("sql", QUERIES)
def test_batch_results_match_row_path(orders_db, sql, batch_size):
    reference = orders_db.sql(sql, batch_size=1)
    batched = orders_db.sql(sql, batch_size=batch_size)
    assert sorted(batched.rows, key=repr) == sorted(reference.rows, key=repr)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batch_partition_elimination_is_batch_invariant(orders_db, batch_size):
    sql = JOIN_SQL
    reference = orders_db.sql(sql, analyze=True, batch_size=1)
    batched = orders_db.sql(sql, analyze=True, batch_size=batch_size)
    assert (
        batched.metrics.partitions_scanned()
        == reference.metrics.partitions_scanned()
    )
    assert (
        batched.metrics.total_rows_scanned
        == reference.metrics.total_rows_scanned
    )


def test_metrics_record_the_batch_size(orders_db):
    result = orders_db.sql(
        "SELECT order_id FROM orders", analyze=True, batch_size=64
    )
    assert result.metrics.parallel_stats()["batch_size"] == 64


# -- engine level: guardrails fire identically -------------------------------


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_max_rows_fires_identically_at_any_batch_size(orders_db, batch_size):
    with pytest.raises(ResourceLimitExceeded) as row_err:
        orders_db.sql(JOIN_SQL, max_rows=5, batch_size=1)
    with pytest.raises(ResourceLimitExceeded) as batch_err:
        orders_db.sql(JOIN_SQL, max_rows=5, batch_size=batch_size)
    assert str(batch_err.value) == str(row_err.value)


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
        rows = list(storage.scan_table(segment, root))
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
# reached whatever plan the optimizers prefer: the row pipeline is the
# reference, the batch pipeline runs at widths 1, 7 and 1024, and rows (in
# order), every node's rows_out / rows_scanned and the max_rows firing point
# must be equal.

from repro.catalog import Catalog  # noqa: E402
from repro.errors import ExecutionError  # noqa: E402
from repro.executor.context import ExecContext  # noqa: E402
from repro.executor.iterators import build_batches, build_iterator  # noqa: E402
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
    EmptyScan,
    Filter,
    HashAgg,
    HashJoin,
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
    tree run through the row pipeline (``width=None``) or the batch one."""
    catalog, storage, tables = kernel_env
    limits = QueryLimits(max_rows=max_rows)
    limits.start()
    ctx = ExecContext(
        catalog, storage, 1, params, limits=limits, batch_size=width or 1
    )
    tree = make_tree(tables)
    try:
        if width is None:
            rows = list(build_iterator(tree, 0, ctx))
        else:
            rows = [row for batch in build_batches(tree, 0, ctx) for row in batch]
    except (ResourceLimitExceeded, ExecutionError) as error:
        return type(error), str(error), limits.buffered_rows
    counters = sorted(
        (n.op, n.detail, n.rows_out, n.rows_scanned) for n in ctx.metrics.nodes
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
