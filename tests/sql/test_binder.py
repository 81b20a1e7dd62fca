"""Binder: name qualification, join-tree shape, semi-join rewrite,
aggregation split, UPDATE binding, error reporting."""

import pytest

from repro import types as t
from repro.catalog import (
    Catalog,
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    uniform_int_level,
)
from repro.errors import BindError
from repro.expr.ast import ColumnRef
from repro.logical.ops import (
    LogicalGet,
    LogicalGroupBy,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalSelect,
    LogicalSort,
    LogicalUpdate,
    partitioned_gets,
)
from repro.sql.binder import Binder
from repro.sql.parser import parse


@pytest.fixture
def binder() -> Binder:
    catalog = Catalog()
    catalog.create_table(
        "sales",
        TableSchema.of(
            ("id", t.INT), ("cust_id", t.INT), ("date_id", t.INT),
            ("amount", t.FLOAT),
        ),
        distribution=DistributionPolicy.hashed("id"),
        partition_scheme=PartitionScheme(
            [uniform_int_level("date_id", 0, 100, 10)]
        ),
    )
    catalog.create_table(
        "dates",
        TableSchema.of(("date_id", t.INT), ("year", t.INT), ("month", t.INT)),
    )
    catalog.create_table(
        "cust",
        TableSchema.of(("cust_id", t.INT), ("state", t.TEXT)),
    )
    return Binder(catalog)


def _bind(binder: Binder, sql: str):
    return binder.bind(parse(sql))


def test_simple_select_shape(binder):
    plan = _bind(binder, "SELECT amount FROM sales WHERE date_id < 5")
    assert isinstance(plan, LogicalProject)
    select = plan.child
    assert isinstance(select, LogicalSelect)
    assert isinstance(select.child, LogicalGet)


def test_columns_get_fully_qualified(binder):
    plan = _bind(binder, "SELECT amount FROM sales WHERE date_id < 5")
    select = plan.child
    refs = [
        ref
        for ref in select.predicate.walk()
        if isinstance(ref, ColumnRef)
    ]
    assert all(ref.qualifier == "sales" for ref in refs)


def test_star_expansion_in_from_order(binder):
    plan = _bind(binder, "SELECT * FROM sales s, dates d WHERE s.date_id = d.date_id")
    names = [name for _, name in plan.output_layout().slots]
    assert names[:4] == ["id", "cust_id", "date_id", "amount"]
    # duplicate column names are uniquified
    assert "date_id_1" in names


def test_join_tree_left_deep_in_from_order(binder):
    plan = _bind(
        binder,
        "SELECT s.amount FROM sales s, dates d, cust c "
        "WHERE d.month = 3 AND c.state = 'CA' "
        "AND d.date_id = s.date_id AND c.cust_id = s.cust_id",
    )
    top_join = plan.child
    assert isinstance(top_join, LogicalJoin)
    inner_join = top_join.left
    assert isinstance(inner_join, LogicalJoin)
    # single-table filters sit directly above their Gets (Figure 8(a))
    right_of_inner = inner_join.right
    assert isinstance(right_of_inner, LogicalSelect)
    assert isinstance(right_of_inner.child, LogicalGet)
    assert right_of_inner.child.alias == "d"


def test_in_subquery_becomes_semi_join(binder):
    plan = _bind(
        binder,
        "SELECT avg(amount) FROM sales WHERE date_id IN "
        "(SELECT date_id FROM dates WHERE year = 2013)",
    )
    # Project(GroupBy(SemiJoin(...)))
    group = plan.child
    assert isinstance(group, LogicalGroupBy)
    semi = group.child
    assert isinstance(semi, LogicalJoin) and semi.kind == "semi"
    # semi-join output hides the subquery side
    names = [name for _, name in semi.output_layout().slots]
    assert "year" not in names


def test_aggregation_split(binder):
    plan = _bind(
        binder,
        "SELECT state, count(*) AS cnt, avg(amount) FROM sales, cust "
        "WHERE sales.cust_id = cust.cust_id GROUP BY state",
    )
    assert isinstance(plan, LogicalProject)
    group = plan.child
    assert isinstance(group, LogicalGroupBy)
    assert len(group.group_keys) == 1
    assert len(group.aggregates) == 2


def test_non_grouped_column_rejected(binder):
    with pytest.raises(BindError):
        _bind(binder, "SELECT state, count(*) FROM cust GROUP BY cust_id")


def test_distinct_becomes_group_by(binder):
    plan = _bind(binder, "SELECT DISTINCT state FROM cust")
    assert isinstance(plan, LogicalGroupBy)
    assert not plan.aggregates


def test_order_and_limit(binder):
    plan = _bind(binder, "SELECT amount FROM sales ORDER BY amount DESC LIMIT 3")
    assert isinstance(plan, LogicalLimit)
    assert isinstance(plan.child, LogicalSort)


def test_order_by_underlying_column(binder):
    plan = _bind(binder, "SELECT * FROM cust ORDER BY cust.state")
    assert isinstance(plan, LogicalSort)


def test_update_binding(binder):
    plan = _bind(
        binder, "UPDATE sales SET amount = amount * 2 WHERE date_id = 1"
    )
    assert isinstance(plan, LogicalUpdate)
    assert plan.target.name == "sales"
    assert plan.assignments[0][0] == "amount"


def test_update_from_join(binder):
    plan = _bind(
        binder,
        "UPDATE sales SET amount = d.year FROM dates d "
        "WHERE sales.date_id = d.date_id",
    )
    assert isinstance(plan, LogicalUpdate)
    assert isinstance(plan.child, LogicalJoin)


def test_update_unknown_column_rejected(binder):
    with pytest.raises(BindError):
        _bind(binder, "UPDATE sales SET nope = 1")


def test_errors(binder):
    with pytest.raises(BindError):
        _bind(binder, "SELECT missing FROM sales")
    with pytest.raises(BindError):
        _bind(binder, "SELECT date_id FROM sales, dates")  # ambiguous
    with pytest.raises(BindError):
        _bind(binder, "SELECT * FROM sales s, dates s")  # dup alias
    with pytest.raises(BindError):
        _bind(binder, "SELECT nope.id FROM sales")
    with pytest.raises(Exception):
        _bind(binder, "SELECT * FROM no_such_table")


def test_multi_column_subquery_rejected(binder):
    with pytest.raises(BindError):
        _bind(
            binder,
            "SELECT * FROM sales WHERE date_id IN "
            "(SELECT date_id, year FROM dates)",
        )


@pytest.mark.parametrize(
    "sql",
    [
        "UPDATE sales SET amount = 1.0 WHERE date_id IN (SELECT date_id FROM dates)",
        "UPDATE sales SET cust_id = date_id IN (SELECT date_id FROM dates)",
        "SELECT date_id IN (SELECT date_id FROM dates) FROM sales",
    ],
)
def test_in_subquery_outside_where_or_on_is_rejected(binder, sql):
    """Only a WHERE or ON conjunct can become a semi-join; anywhere else
    the subquery would be replaced by TRUE for every row."""
    with pytest.raises(BindError, match="IN \\(subquery\\)"):
        _bind(binder, sql)


def test_partitioned_gets_helper(binder):
    plan = _bind(
        binder,
        "SELECT s.amount FROM sales s, dates d WHERE s.date_id = d.date_id",
    )
    gets = partitioned_gets(plan)
    assert len(gets) == 1
    assert gets[0].alias == "s"
