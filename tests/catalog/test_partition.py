"""Partition model: routing (f_T), selection (f*_T), multi-level schemes —
including the paper's Figure 10 selection table."""

import datetime

import pytest
from hypothesis import given, strategies as st

from repro.catalog.constraints import Interval, IntervalSet
from repro.catalog.partition import (
    PartitionLevel,
    PartitionScheme,
    PartitionSlot,
    list_level,
    monthly_range_level,
    range_level,
    uniform_int_level,
)
from repro.errors import PartitionError


class TestPartitionLevel:
    def test_range_routing(self):
        level = range_level("k", [0, 10, 20, 30])
        assert level.route(0) == 0
        assert level.route(9) == 0
        assert level.route(10) == 1
        assert level.route(29) == 2
        assert level.route(30) is None  # ⊥: outside all ranges
        assert level.route(-1) is None
        assert level.route(None) is None

    def test_list_routing(self):
        level = list_level("k", [("ab", ["a", "b"]), ("c", ["c"])])
        assert level.route("a") == 0
        assert level.route("b") == 0
        assert level.route("c") == 1
        assert level.route("d") is None

    def test_overlapping_slots_rejected(self):
        with pytest.raises(PartitionError):
            PartitionLevel(
                "k",
                [
                    PartitionSlot("p0", IntervalSet.of(Interval(0, 10))),
                    PartitionSlot("p1", IntervalSet.of(Interval(5, 15))),
                ],
            )

    def test_empty_level_rejected(self):
        with pytest.raises(PartitionError):
            PartitionLevel("k", [])

    def test_selection_with_no_predicate_returns_all(self):
        level = range_level("k", [0, 10, 20])
        assert level.select(None) == [0, 1]
        assert level.select(IntervalSet.ALL) == [0, 1]

    def test_selection_with_predicate(self):
        level = range_level("k", [0, 10, 20, 30])
        selected = level.select(IntervalSet.of(Interval(5, 12)))
        assert selected == [0, 1]

    def test_selection_empty_predicate(self):
        level = range_level("k", [0, 10, 20])
        assert level.select(IntervalSet.EMPTY) == []

    def test_gapped_level_routes_through_the_index(self):
        level = PartitionLevel(
            "k",
            [
                PartitionSlot("low", IntervalSet.of(Interval(0, 10))),
                PartitionSlot("high", IntervalSet.of(Interval(20, 30))),
            ],
        )
        assert level.route(5) == 0
        assert level.route(15) is None
        assert level.route(25) == 1


class TestPartitionScheme:
    def test_single_level_shape(self):
        scheme = PartitionScheme([range_level("k", [0, 10, 20])])
        assert scheme.num_levels == 1
        assert scheme.num_leaves == 2
        assert list(scheme.leaf_ids()) == [(0,), (1,)]

    def test_duplicate_keys_rejected(self):
        with pytest.raises(PartitionError):
            PartitionScheme(
                [range_level("k", [0, 10]), range_level("k", [0, 10])]
            )

    def test_monthly_level_matches_figure_1(self):
        """24 monthly partitions; a Q4 predicate selects the last three."""
        scheme = PartitionScheme(
            [monthly_range_level("date", datetime.date(2012, 1, 1), 24)]
        )
        assert scheme.num_leaves == 24
        q4 = IntervalSet.of(
            Interval(
                datetime.date(2013, 10, 1),
                datetime.date(2013, 12, 31),
                True,
                True,
            )
        )
        assert scheme.select({"date": q4}) == [(21,), (22,), (23,)]

    def test_multilevel_shape_matches_figure_9(self):
        """24 months x 2 regions = 48 leaves."""
        scheme = _figure9_scheme()
        assert scheme.num_levels == 2
        assert scheme.num_leaves == 48

    def test_figure_10_selection_table(self):
        """The paper's Figure 10: per-predicate leaf sets."""
        scheme = _figure9_scheme()
        jan_2012 = IntervalSet.of(Interval(0, 10))  # first date slot
        region_1 = IntervalSet.points(["Region 1"])

        # date='Jan-2012' -> all regions of the first month: T1,1 .. T1,n
        selected = scheme.select({"date_id": jan_2012})
        assert selected == [(0, 0), (0, 1)]

        # region='Region 1' -> that region in every month: T1,1 .. T24,1
        selected = scheme.select({"region": region_1})
        assert selected == [(month, 0) for month in range(24)]

        # both predicates -> exactly T1,1
        selected = scheme.select({"date_id": jan_2012, "region": region_1})
        assert selected == [(0, 0)]

        # no predicate -> all leaf OIDs
        assert len(scheme.select({})) == 48

    def test_multilevel_routing(self):
        scheme = _figure9_scheme()
        assert scheme.route({"date_id": 15, "region": "Region 2"}) == (1, 1)
        assert scheme.route({"date_id": 15, "region": "nowhere"}) is None
        assert scheme.route({"date_id": 9999, "region": "Region 1"}) is None

    def test_leaf_names_and_constraints(self):
        scheme = _figure9_scheme()
        name = scheme.leaf_name((0, 1))
        assert "/" in name
        constraints = scheme.leaf_constraints((0, 1))
        assert set(constraints) == {"date_id", "region"}
        assert constraints["region"].contains("Region 2")


class TestUniformIntLevel:
    def test_covers_domain_exactly(self):
        level = uniform_int_level("k", 0, 1000, 7)
        assert len(level) == 7
        assert level.route(0) == 0
        assert level.route(999) == 6
        assert level.route(1000) is None

    def test_rejects_impossible_split(self):
        with pytest.raises(PartitionError):
            uniform_int_level("k", 0, 3, 10)
        with pytest.raises(PartitionError):
            uniform_int_level("k", 10, 10, 1)


def _figure9_scheme() -> PartitionScheme:
    return PartitionScheme(
        [
            uniform_int_level("date_id", 0, 240, 24),
            list_level(
                "region", [("r1", ["Region 1"]), ("r2", ["Region 2"])]
            ),
        ]
    )


# -- property-based invariants -------------------------------------------------


@given(st.integers(min_value=-100, max_value=1100))
def test_routing_is_total_over_domain(value):
    """Every in-domain value maps to exactly one slot whose constraint
    contains it; out-of-domain values map to ⊥."""
    level = uniform_int_level("k", 0, 1000, 13)
    slot = level.route(value)
    containing = [
        i for i, s in enumerate(level.slots) if s.constraint.contains(value)
    ]
    if 0 <= value < 1000:
        assert containing == [slot]
    else:
        assert slot is None
        assert containing == []


@given(
    st.integers(min_value=0, max_value=999),
    st.integers(min_value=1, max_value=999),
)
def test_selection_soundness(lo, width):
    """f*_T soundness: any value satisfying the predicate routes to a
    selected slot (the invariant pruning correctness rests on)."""
    level = uniform_int_level("k", 0, 1000, 13)
    hi = min(lo + width, 1000)
    predicate = IntervalSet.of(Interval(lo, hi))
    selected = set(level.select(predicate))
    for value in range(lo, hi):
        slot = level.route(value)
        assert slot in selected
