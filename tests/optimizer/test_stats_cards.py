"""Statistics collection and cardinality estimation."""

import pytest

from repro import types as t
from repro.catalog import (
    Catalog,
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    uniform_int_level,
)
from repro.expr.ast import (
    Between,
    BoolExpr,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
)
from repro.optimizer.cards import (
    RelationEstimate,
    group_estimate,
    join_estimate,
    predicate_selectivity,
)
from repro.optimizer.stats import StatsRegistry, collect_stats
from repro.storage import TableStore


@pytest.fixture(scope="module")
def store() -> TableStore:
    catalog = Catalog()
    desc = catalog.create_table(
        "t",
        TableSchema.of(("a", t.INT), ("b", t.INT), ("c", t.TEXT)),
        distribution=DistributionPolicy.hashed("a"),
        partition_scheme=PartitionScheme([uniform_int_level("b", 0, 100, 4)]),
    )
    table_store = TableStore(desc, num_segments=2)
    table_store.write(
        [(i, i % 100, "x" if i % 10 else None) for i in range(200)]
    )
    return table_store


def test_collect_stats(store):
    stats = collect_stats(store)
    assert stats.row_count == 200
    a_stats = stats.column("a")
    assert a_stats.min_value == 0 and a_stats.max_value == 199
    assert a_stats.ndv == 200
    b_stats = stats.column("b")
    assert b_stats.ndv == 100
    c_stats = stats.column("c")
    assert c_stats.null_fraction == pytest.approx(0.1)
    # per-leaf rows cover the whole table
    assert sum(stats.leaf_rows.values()) == 200
    assert len(stats.leaf_rows) == 4


def test_registry_default_for_unanalyzed(store):
    registry = StatsRegistry()
    fallback = registry.get(store.descriptor)
    assert fallback.row_count > 0
    registry.analyze(store)
    assert registry.get(store.descriptor).row_count == 200
    assert registry.has(store.descriptor)


@pytest.fixture(scope="module")
def estimate(store) -> RelationEstimate:
    return RelationEstimate.for_table("t", collect_stats(store))


A = ColumnRef("a", "t")
B = ColumnRef("b", "t")


def test_equality_selectivity_uses_ndv(estimate):
    sel = predicate_selectivity(Comparison("=", B, Literal(5)), estimate)
    assert sel == pytest.approx(1 / 100)


def test_range_selectivity_interpolates(estimate):
    sel = predicate_selectivity(Comparison("<", A, Literal(100)), estimate)
    assert 0.4 < sel < 0.6


def test_between_selectivity(estimate):
    sel = predicate_selectivity(
        Between(A, Literal(0), Literal(19)), estimate
    )
    assert 0.05 < sel < 0.2


def test_conjunction_multiplies(estimate):
    single = predicate_selectivity(Comparison("=", B, Literal(5)), estimate)
    double = predicate_selectivity(
        BoolExpr(
            "AND",
            [Comparison("=", B, Literal(5)), Comparison("=", B, Literal(7))],
        ),
        estimate,
    )
    assert double == pytest.approx(single * single)


def test_disjunction_and_negation(estimate):
    eq = Comparison("=", B, Literal(5))
    or_sel = predicate_selectivity(BoolExpr("OR", [eq, eq]), estimate)
    assert or_sel >= predicate_selectivity(eq, estimate)
    not_sel = predicate_selectivity(BoolExpr("NOT", [eq]), estimate)
    assert not_sel == pytest.approx(1 - 1 / 100)


def test_in_list_selectivity(estimate):
    sel = predicate_selectivity(InList(B, [1, 2, 3]), estimate)
    assert sel == pytest.approx(3 / 100)


def test_is_null_selectivity(estimate):
    c = ColumnRef("c", "t")
    assert predicate_selectivity(IsNull(c), estimate) == pytest.approx(0.1)
    assert predicate_selectivity(
        IsNull(c, negated=True), estimate
    ) == pytest.approx(0.9)


def test_join_estimate_equi(estimate):
    other = RelationEstimate(50.0, {"r.x": estimate.columns["t.b"]})
    predicate = Comparison("=", B, ColumnRef("x", "r"))
    joined = join_estimate(estimate, other, predicate)
    # |L|*|R| / max(ndv) = 200*50/100
    assert joined.rows == pytest.approx(100.0)


def test_semi_join_capped_by_left(estimate):
    other = RelationEstimate(10_000.0, {})
    predicate = Comparison("=", B, ColumnRef("x", "r"))
    joined = join_estimate(estimate, other, predicate, kind="semi")
    assert joined.rows <= estimate.rows


def test_group_estimate(estimate):
    assert group_estimate(estimate, [B]) == pytest.approx(100.0)
    assert group_estimate(estimate, []) == 1.0
    # capped by input size
    assert group_estimate(estimate, [A]) <= estimate.rows


def test_estimates_never_zero(estimate):
    impossible = predicate_selectivity(Literal(False), estimate)
    assert impossible == 0.0
    scaled = estimate.scaled(0.0)
    assert scaled.rows >= 1.0  # floor keeps cost math sane
