"""Property-based placement checks: for randomly generated operator trees
over partitioned tables, Algorithm 1 must always produce a *valid* plan
(pairing, Motion rule, execution order) that never prunes unsoundly."""

import random

from hypothesis import given, settings, strategies as st

from repro import Database
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    uniform_int_level,
)
from repro.expr.ast import ColumnRef, Comparison, Literal
from repro.physical.ops import (
    DynamicScan,
    Filter,
    GatherMotion,
    HashJoin,
    Limit,
    NLJoin,
    PartitionSelector,
    Scan,
)
from repro.physical.plan import Plan
from tests.oracles.placement import place_part_selectors


def _build_db() -> Database:
    db = Database(num_segments=2)
    db.create_table(
        "p1",
        TableSchema.of(("k", t.INT), ("v", t.INT)),
        distribution=DistributionPolicy.hashed("k"),
        partition_scheme=PartitionScheme([uniform_int_level("k", 0, 100, 5)]),
    )
    db.create_table(
        "p2",
        TableSchema.of(("k2", t.INT), ("w", t.INT)),
        distribution=DistributionPolicy.hashed("k2"),
        partition_scheme=PartitionScheme([uniform_int_level("k2", 0, 100, 4)]),
    )
    db.create_table(
        "u",
        TableSchema.of(("x", t.INT), ("y", t.INT)),
        distribution=DistributionPolicy.replicated(),
    )
    rng = random.Random(17)
    db.insert("p1", [(rng.randrange(100), rng.randrange(10)) for _ in range(150)])
    db.insert("p2", [(rng.randrange(100), rng.randrange(10)) for _ in range(150)])
    db.insert("u", [(rng.randrange(100), rng.randrange(10)) for _ in range(30)])
    db.analyze()
    return db


DB = _build_db()
P1 = DB.catalog.table("p1")
P2 = DB.catalog.table("p2")
U = DB.catalog.table("u")


@st.composite
def operator_trees(draw, depth=0, allow_limit=True):
    """Random trees mixing scans, filters, joins, and limits.

    Each partitioned table appears at most once (one DynamicScan per id).
    ``allow_limit=False`` excludes Limit — a raw per-segment Limit keeps an
    order-dependent subset, so result-equivalence properties cannot include
    it.
    """
    kinds = ["scan", "filter", "join"] + (["limit"] if allow_limit else [])
    kind = draw(
        st.sampled_from(["scan"] if depth >= 3 else kinds)
    )
    if kind == "scan":
        table = draw(st.sampled_from(["p1", "p2", "u"]))
        return table, None
    if kind == "filter":
        table, tree = draw(
            operator_trees(depth=depth + 1, allow_limit=allow_limit)
        )
        return table, ("filter", tree)
    if kind == "limit":
        table, tree = draw(
            operator_trees(depth=depth + 1, allow_limit=allow_limit)
        )
        return table, ("limit", tree)
    left = draw(operator_trees(depth=depth + 1, allow_limit=allow_limit))
    right = draw(operator_trees(depth=depth + 1, allow_limit=allow_limit))
    join_kind = draw(st.sampled_from(["hash", "nl"]))
    return None, ("join", join_kind, left, right)


_used: dict


def _materialize(shape, used: set) -> "object | None":
    """Turn a tree shape into physical operators; None when a partitioned
    table would repeat."""
    table, tree = shape
    if tree is None:
        # every relation at most once (the binder enforces unique aliases)
        if table in used:
            return None
        used.add(table)
        if table == "u":
            return Scan(U, "u")
        if table == "p1":
            return DynamicScan(P1, "a1", 1)
        return DynamicScan(P2, "a2", 2)
    if tree[0] == "filter":
        child = _materialize((table, tree[1]), used)
        if child is None:
            return None
        layout = child.output_layout()
        column = layout.slots[0][1]
        qualifier = layout.slots[0][0]
        return Filter(
            child,
            Comparison("<", ColumnRef(column, qualifier), Literal(50)),
        )
    if tree[0] == "limit":
        child = _materialize((table, tree[1]), used)
        return None if child is None else Limit(child, 20)
    _, join_kind, left_shape, right_shape = tree
    left = _materialize(left_shape, used)
    right = _materialize(right_shape, used)
    if left is None or right is None:
        return None
    left_col = left.output_layout().slots[0]
    right_col = right.output_layout().slots[0]
    left_ref = ColumnRef(left_col[1], left_col[0])
    right_ref = ColumnRef(right_col[1], right_col[0])
    if join_kind == "hash":
        return HashJoin("inner", left, right, [left_ref], [right_ref])
    return NLJoin(
        "inner", left, right, Comparison("=", left_ref, right_ref)
    )


@settings(max_examples=60, deadline=None)
@given(operator_trees())
def test_placement_always_yields_valid_plans(shape):
    used: set = set()
    root = _materialize(shape, used)
    if root is None or not any(
        isinstance(op, DynamicScan) for op in root.walk()
    ):
        return  # nothing to place
    placed = place_part_selectors(root)
    plan = Plan(GatherMotion(placed))
    plan.validate()  # pairing + Figure 12 + execution order
    selectors = [
        op for op in plan.walk() if isinstance(op, PartitionSelector)
    ]
    scans = [op for op in plan.walk() if isinstance(op, DynamicScan)]
    assert {s.part_scan_id for s in selectors} == {
        s.part_scan_id for s in scans
    }


@settings(max_examples=25, deadline=None)
@given(operator_trees(allow_limit=False))
def test_placed_plans_execute_like_unpruned(shape):
    """Executing a placed plan returns the same rows as the same plan with
    all selector predicates stripped (pruning soundness end to end)."""
    used: set = set()
    root = _materialize(shape, used)
    if root is None or not any(
        isinstance(op, DynamicScan) for op in root.walk()
    ):
        return
    placed = place_part_selectors(root)
    plan = Plan(GatherMotion(placed))
    pruned_rows = sorted(DB.execute_plan(plan).rows)

    def strip(op):
        children = [strip(c) for c in op.children]
        node = op.with_children(children) if op.children else op
        if isinstance(node, PartitionSelector):
            spec = node.spec.with_predicates(
                [None] * len(node.spec.part_keys)
            )
            return PartitionSelector(
                spec, children[0] if children else None
            )
        return node

    unpruned = Plan(strip(plan.root))
    unpruned_rows = sorted(DB.execute_plan(unpruned).rows)
    assert pruned_rows == unpruned_rows
