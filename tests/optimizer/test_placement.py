"""Section 2.3 placement algorithms — including a walk-through of the
paper's Figure 8 example."""

import pytest

from repro import types as t
from repro.catalog import (
    Catalog,
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    list_level,
    uniform_int_level,
)
from repro.expr.ast import BoolExpr, ColumnRef, Comparison, Literal
from repro.physical.ops import (
    DynamicScan,
    Filter,
    HashJoin,
    PartitionSelector,
    Scan,
    Sequence,
)
from repro.physical.plan import Plan
from tests.oracles.placement import initial_specs, place_part_selectors


@pytest.fixture(scope="module")
def figure8_tables():
    """Tables of the paper's Figure 6/8: sales_fact partitioned on date_id,
    date_dim partitioned on month, customer_dim unpartitioned."""
    catalog = Catalog()
    sales = catalog.create_table(
        "sales_fact",
        TableSchema.of(
            ("sid", t.INT), ("cust_id", t.INT), ("date_id", t.INT),
            ("amount", t.FLOAT),
        ),
        distribution=DistributionPolicy.hashed("sid"),
        partition_scheme=PartitionScheme(
            [uniform_int_level("date_id", 0, 120, 12)]
        ),
    )
    dates = catalog.create_table(
        "date_dim",
        TableSchema.of(("id", t.INT), ("month", t.INT), ("year", t.INT)),
        distribution=DistributionPolicy.hashed("id"),
        partition_scheme=PartitionScheme(
            [uniform_int_level("month", 1, 13, 12)]
        ),
    )
    cust = catalog.create_table(
        "customer_dim",
        TableSchema.of(("cid", t.INT), ("state", t.TEXT)),
        distribution=DistributionPolicy.hashed("cid"),
    )
    return sales, dates, cust


def _figure8_tree(sales, dates, cust):
    """Figure 8(a): the physical tree before placement.

    HashJoin(cust_id)
      outer: HashJoin(date_id)
        outer: Select(month BETWEEN 10 AND 12) over DynamicScan(1, date_dim)
        inner: DynamicScan(2, sales_fact)
      inner: Select(state='CA') over Scan(customer_dim)
    """
    month = ColumnRef("month", "d")
    month_pred = BoolExpr(
        "AND",
        [
            Comparison(">=", month, Literal(10)),
            Comparison("<=", month, Literal(12)),
        ],
    )
    dates_scan = Filter(DynamicScan(dates, "d", 1), month_pred)
    inner_join = HashJoin(
        "inner",
        dates_scan,
        DynamicScan(sales, "s", 2),
        [ColumnRef("id", "d")],
        [ColumnRef("date_id", "s")],
    )
    cust_scan = Filter(
        Scan(cust, "c"),
        Comparison("=", ColumnRef("state", "c"), Literal("CA")),
    )
    return HashJoin(
        "inner",
        inner_join,
        cust_scan,
        [ColumnRef("cust_id", "s")],
        [ColumnRef("cid", "c")],
    )


def test_initial_specs(figure8_tables):
    sales, dates, cust = figure8_tables
    tree = _figure8_tree(sales, dates, cust)
    specs = initial_specs(tree)
    assert sorted(s.part_scan_id for s in specs) == [1, 2]
    assert all(not s.has_predicates for s in specs)


def test_figure8_placement(figure8_tables):
    """Reproduces Figure 8(b): selector 1 lands in a Sequence at its scan
    with the month predicate; selector 2 lands on the join's outer side
    with the join predicate ``date_id = id``."""
    sales, dates, cust = figure8_tables
    tree = _figure8_tree(sales, dates, cust)
    placed = place_part_selectors(tree)
    Plan(placed).validate()

    selectors = [
        op for op in placed.walk() if isinstance(op, PartitionSelector)
    ]
    by_id = {s.part_scan_id: s for s in selectors}
    assert set(by_id) == {1, 2}

    # Selector 1: static month predicate, under a Sequence with its scan.
    spec1 = by_id[1].spec
    assert spec1.has_predicates
    predicate_text = repr(spec1.part_predicates[0])
    assert "month" in predicate_text
    sequences = [op for op in placed.walk() if isinstance(op, Sequence)]
    assert len(sequences) == 1
    assert isinstance(sequences[0].children[0], PartitionSelector)
    assert isinstance(sequences[0].children[1], DynamicScan)

    # Selector 2: join predicate on date_id, placed as a pass-through on
    # the outer side of the date_id join (paper's "on top" of the Select).
    spec2 = by_id[2].spec
    assert "date_id" in repr(spec2.part_predicates[0])
    assert "id" in repr(spec2.part_predicates[0])
    outer_join = placed.children[0]
    assert isinstance(outer_join, HashJoin)
    assert isinstance(outer_join.children[0], PartitionSelector)
    assert outer_join.children[0].part_scan_id == 2

    # And selector 2 must NOT be on the inner (sales) side.
    inner_side = outer_join.children[1]
    assert not any(
        isinstance(op, PartitionSelector) for op in inner_side.walk()
    )


def test_full_scan_gets_predicate_free_selector(figure8_tables):
    sales, _, _ = figure8_tables
    placed = place_part_selectors(DynamicScan(sales, "s", 2))
    assert isinstance(placed, Sequence)
    selector = placed.children[0]
    assert isinstance(selector, PartitionSelector)
    assert not selector.spec.has_predicates


def test_join_without_key_predicate_keeps_selector_inner(figure8_tables):
    """Algorithm 4's fallback: no partition-filtering join predicate means
    the spec resolves on the inner side at the scan."""
    sales, _, cust = figure8_tables
    tree = HashJoin(
        "inner",
        Scan(cust, "c"),
        DynamicScan(sales, "s", 1),
        [ColumnRef("cid", "c")],
        [ColumnRef("cust_id", "s")],  # join key is NOT the partition key
    )
    placed = place_part_selectors(tree)
    inner = placed.children[1]
    assert isinstance(inner, Sequence)
    assert isinstance(inner.children[0], PartitionSelector)
    assert not inner.children[0].spec.has_predicates


def test_selector_through_default_operator(figure8_tables):
    """Algorithm 2: non-filtering operators push specs toward the scan."""
    from repro.physical.ops import Limit

    sales, _, _ = figure8_tables
    tree = Limit(DynamicScan(sales, "s", 1), 10)
    placed = place_part_selectors(tree)
    assert isinstance(placed, Limit)
    assert isinstance(placed.children[0], Sequence)


def test_multilevel_placement():
    """Section 2.4: one predicate per level in the extended spec."""
    catalog = Catalog()
    table = catalog.create_table(
        "orders",
        TableSchema.of(
            ("oid", t.INT), ("date_id", t.INT), ("region", t.TEXT)
        ),
        partition_scheme=PartitionScheme(
            [
                uniform_int_level("date_id", 0, 100, 10),
                list_level("region", [("r1", ["R1"]), ("r2", ["R2"])]),
            ]
        ),
    )
    predicate = BoolExpr(
        "AND",
        [
            Comparison("=", ColumnRef("date_id", "o"), Literal(5)),
            Comparison("=", ColumnRef("region", "o"), Literal("R1")),
        ],
    )
    tree = Filter(DynamicScan(table, "o", 1), predicate)
    placed = place_part_selectors(tree)
    selector = next(
        op for op in placed.walk() if isinstance(op, PartitionSelector)
    )
    assert len(selector.spec.part_predicates) == 2
    assert all(p is not None for p in selector.spec.part_predicates)


def test_join_form_predicate_dropped_at_scan(figure8_tables):
    """A spec that reaches its own scan with a join-form predicate keeps
    only constant parts — degrading to select-all, never to unsoundness."""
    sales, dates, _ = figure8_tables
    # Selector for scan 1 pushed down carrying a predicate that references
    # the sales side, which is unavailable below the dates scan.
    from repro.physical.properties import PartSelectorSpec

    join_pred = Comparison(
        "=", ColumnRef("month", "d"), ColumnRef("date_id", "s")
    )
    spec = PartSelectorSpec(
        1, dates, [ColumnRef("month", "d")], [join_pred]
    )
    placed = place_part_selectors(DynamicScan(dates, "d", 1), [spec])
    selector = placed.children[0]
    assert isinstance(selector, PartitionSelector)
    assert not selector.spec.has_predicates
