"""Section 3.2 lowering: PartitionSelectors realised through the Table 1
built-ins must behave exactly like the native operator (Figure 15)."""


from repro.physical.ops import PartitionSelector
from tests.oracles.lowering import (
    ConstraintsFunctionScan,
    PropagatingProject,
    lower_partition_selectors,
)

from . import row_reference


def _assert_equivalent(db, sql, table_name):
    native_plan = db.plan(sql)
    lowered_plan = lower_partition_selectors(native_plan)
    native = db.execute_plan(native_plan)
    lowered = db.execute_plan(lowered_plan)
    assert sorted(native.rows, key=repr) == sorted(lowered.rows, key=repr)
    assert native.partitions_scanned(table_name) == lowered.partitions_scanned(
        table_name
    )
    # the function-based operators are width-invariant too: rows and every
    # node's counters equal the row reference's at each width
    rows, ctx = row_reference.run_plan(db, lowered_plan)
    counters = [(n.op, n.rows_out, n.loops) for n in ctx.metrics.nodes]
    for width in (1, 7, 1024):
        result = db.execute_plan(lowered_plan, batch_size=width)
        assert result.rows == rows
        assert [(n.op, n.rows_out, n.loops) for n in result.metrics.nodes] == counters
    return native_plan, lowered_plan


def test_static_range_lowering_figure_15b(orders_db):
    sql = (
        "SELECT count(*) FROM orders "
        "WHERE date BETWEEN '10-01-2013' AND '12-31-2013'"
    )
    native, lowered = _assert_equivalent(orders_db, sql, "orders")
    assert any(
        isinstance(op, ConstraintsFunctionScan) for op in lowered.walk()
    )
    projector = next(
        op for op in lowered.walk() if isinstance(op, PropagatingProject)
    )
    assert projector.mode == "oids"
    assert not any(isinstance(op, PartitionSelector) for op in lowered.walk())


def test_full_scan_lowering(orders_db):
    native, lowered = _assert_equivalent(
        orders_db, "SELECT count(*) FROM orders", "orders"
    )
    # Φ predicate: no Filter needed, all constraints propagate
    projector = next(
        op for op in lowered.walk() if isinstance(op, PropagatingProject)
    )
    assert projector.mode == "oids"


def test_equality_join_lowering_figure_15a(orders_db):
    sql = (
        "SELECT count(*) FROM orders_fk o, date_dim d "
        "WHERE o.date_id = d.date_id AND d.year = 2013 AND d.month = 11"
    )
    native, lowered = _assert_equivalent(orders_db, sql, "orders_fk")
    projector = next(
        op for op in lowered.walk() if isinstance(op, PropagatingProject)
    )
    assert projector.mode == "selection"
    assert projector.key_expr is not None


def test_boundary_exactness(rs_db):
    """Half-open partition bounds: the lowered overlap filter must not
    select the neighbouring partition for a boundary predicate."""
    # partitions are [0,1000), [1000,2000), ...; b < 1000 hits only one
    sql = "SELECT count(*) FROM r WHERE b < 1000"
    native_plan = rs_db.plan(sql)
    lowered_plan = lower_partition_selectors(native_plan)
    native = rs_db.execute_plan(native_plan)
    lowered = rs_db.execute_plan(lowered_plan)
    assert native.partitions_scanned("r") == 1
    assert lowered.partitions_scanned("r") == 1
    # >= 1000 must NOT include the first partition
    sql = "SELECT count(*) FROM r WHERE b >= 1000"
    lowered = rs_db.execute_plan(
        lower_partition_selectors(rs_db.plan(sql))
    )
    assert lowered.partitions_scanned("r") == 9


def test_multilevel_selector_not_lowered(multilevel_db):
    """Unsupported shapes fall back to the native PartitionSelector."""
    plan = multilevel_db.plan(
        "SELECT count(*) FROM orders2 WHERE date_id < 50"
    )
    lowered = lower_partition_selectors(plan)
    assert any(isinstance(op, PartitionSelector) for op in lowered.walk())
    native = multilevel_db.execute_plan(plan)
    relowered = multilevel_db.execute_plan(lowered)
    assert native.rows == relowered.rows


def test_lowered_plans_validate(orders_db):
    plan = orders_db.plan("SELECT count(*) FROM orders WHERE date < '01-01-2013'")
    lowered = lower_partition_selectors(plan)
    lowered.validate()
    assert "partition_constraints" in lowered.explain()
