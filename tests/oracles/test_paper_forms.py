"""Orca's plans against the paper's two other forms of partition selection.

Orca places PartitionSelectors inside the Memo as enforcers (Section 3.1).
The paper's claim is that this yields the selectors the standalone
Algorithms 1-4 (Section 2.3) would place, and that GPDB's lowering onto
the Table 1 functions (Section 3.2, Figure 15) runs them unchanged.  Every
Orca plan of the 33 TPC-DS-like workload queries is checked twice:

(a) lowered by Figure 15, it returns the native plan's rows and opens the
    same partitions of every table;
(b) with its PartitionSelectors and selector-only Sequences stripped and
    re-placed by Algorithms 1-4, it has the same number of selectors per
    ``part_scan_id``, validates, and returns the same rows and partitions.

A disagreement is a finding about Section 3.1, not a tolerance to widen.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.physical.ops import PartitionSelector, PhysicalOp, Sequence
from repro.physical.plan import Plan
from repro.workloads import tpcds
from tests.oracles.lowering import lower_partition_selectors
from tests.oracles.placement import place_part_selectors

QUERIES = tpcds.workload_queries()


@pytest.fixture(scope="module")
def db():
    return tpcds.build_database(fact_rows=2000)


@pytest.fixture(scope="module")
def native(db):
    """query name -> (Orca plan, its result)."""
    runs = {}
    for query in QUERIES:
        plan = db.plan(query.sql)
        runs[query.name] = (plan, db.execute_plan(plan))
    return runs


def _answer(result) -> tuple[list[tuple], dict[str, int]]:
    """Rows in a canonical order, and the leaf mask opened per table."""
    return sorted(result.rows, key=repr), result.metrics.tracker.partitions


def _selectors(plan: Plan) -> Counter:
    return Counter(
        op.part_scan_id for op in plan.root.walk()
        if isinstance(op, PartitionSelector)
    )


def _strip_selectors(op: PhysicalOp) -> PhysicalOp:
    """The plan without PartitionSelectors: a pass-through selector becomes
    its input, a childless one leaves its Sequence, and a Sequence left
    with one child becomes that child."""
    children = [
        _strip_selectors(child)
        for child in op.children
        if not (isinstance(child, PartitionSelector) and not child.children)
    ]
    if isinstance(op, PartitionSelector):
        return children[0]
    if isinstance(op, Sequence) and len(children) == 1:
        return children[0]
    return op.with_children(children) if op.children else op


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_figure15_lowering_answers_like_the_native_selectors(db, native, query):
    plan, result = native[query.name]
    lowered = lower_partition_selectors(plan)
    # every selector of these single-level plans has a Figure 15 form
    assert not _selectors(lowered)
    assert _answer(db.execute_plan(lowered)) == _answer(result)


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_algorithms_1_to_4_replace_orcas_selectors(db, native, query):
    plan, result = native[query.name]
    bare = _strip_selectors(plan.root)
    assert not any(isinstance(op, PartitionSelector) for op in bare.walk())
    placed = Plan(place_part_selectors(bare), plan.parameter_count)
    placed.validate()
    assert _selectors(placed) == _selectors(plan)
    assert _answer(db.execute_plan(placed)) == _answer(result)


def test_the_comparison_is_not_vacuous(db, native):
    """Most workload plans eliminate partitions, so (a) and (b) compare
    non-trivial selections, not full scans."""
    eliminating = [
        name for name, (_, result) in native.items()
        if any(
            mask.bit_count() < db.catalog.table(table).num_leaves
            for table, mask in result.metrics.tracker.partitions.items()
        )
    ]
    assert len(QUERIES) == 33
    assert len(eliminating) >= 26, eliminating
