"""The paper's Figure 5 scan patterns, built explicitly through the
placement module and executed on the MPP simulator:

(a) full scan                  — Sequence(PartitionSelector(Φ), DynamicScan)
(b) equality partition selection
(c) range partition selection
(d) join partition selection   — selector on the join's opposite side
"""

import pytest

from repro import Database
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    range_level,
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
from tests.oracles.placement import place_part_selectors


@pytest.fixture(scope="module")
def db() -> Database:
    """Table T with partitions T1..T100 holding pk in [(i-1)*10+1, i*10)
    — the paper's running example — plus R(a, b)."""
    database = Database(num_segments=2)
    bounds = [i * 10 + 1 for i in range(100)] + [1001]
    database.create_table(
        "t",
        TableSchema.of(("pk", t.INT), ("payload", t.INT)),
        distribution=DistributionPolicy.hashed("pk"),
        partition_scheme=PartitionScheme([range_level("pk", bounds)]),
    )
    database.insert("t", [(pk, pk * 2) for pk in range(1, 1001)])
    database.create_table(
        "r",
        TableSchema.of(("a", t.INT), ("b", t.INT)),
        distribution=DistributionPolicy.replicated(),
    )
    database.insert("r", [(55, 1), (56, 2), (350, 3)])
    database.analyze()
    return database


def _gather_rows(db, root):
    from repro.physical.ops import GatherMotion

    plan = Plan(GatherMotion(root))
    return db.execute_plan(plan)


def test_figure_5a_full_scan(db):
    table = db.catalog.table("t")
    placed = place_part_selectors(DynamicScan(table, "t", 1))
    assert isinstance(placed, Sequence)
    result = _gather_rows(db, placed)
    assert len(result.rows) == 1000
    assert result.partitions_scanned("t") == 100


def test_figure_5b_equality_selection(db):
    table = db.catalog.table("t")
    pk = ColumnRef("pk", "t")
    tree = Filter(DynamicScan(table, "t", 1), Comparison("=", pk, Literal(46)))
    placed = place_part_selectors(tree)
    result = _gather_rows(db, placed)
    assert result.rows == [(46, 92)]
    assert result.partitions_scanned("t") == 1  # only T5


def test_figure_5c_range_selection(db):
    """pk in [35, 60] spans partitions T4, T5, T6."""
    table = db.catalog.table("t")
    pk = ColumnRef("pk", "t")
    predicate = BoolExpr(
        "AND",
        [
            Comparison(">=", pk, Literal(35)),
            Comparison("<=", pk, Literal(60)),
        ],
    )
    placed = place_part_selectors(Filter(DynamicScan(table, "t", 1), predicate))
    result = _gather_rows(db, placed)
    assert len(result.rows) == 26
    assert result.partitions_scanned("t") == 3


def test_figure_5d_join_selection(db):
    """R.a = T.pk with the selector on the opposite side of the scan —
    only the partitions holding R's three values are opened."""
    table = db.catalog.table("t")
    r = db.catalog.table("r")
    tree = HashJoin(
        "inner",
        Scan(r, "r"),
        DynamicScan(table, "t", 1),
        [ColumnRef("a", "r")],
        [ColumnRef("pk", "t")],
    )
    placed = place_part_selectors(tree)
    # selector sits on the build (R) side
    build = placed.children[0]
    assert isinstance(build, PartitionSelector)
    result = _gather_rows(db, placed)
    assert sorted(row[0] for row in result.rows) == [55, 56, 350]
    # 55 and 56 share T6; 350 is in T35 -> two partitions
    assert result.partitions_scanned("t") == 2
