"""The sorted slot index behind ``PartitionLevel.route`` / ``select``.

Two contracts.  *Equivalence*: whatever the level looks like (contiguous,
gapped or open-ended ranges, list points, slots made of several intervals,
any declaration order) and whatever the predicate (every bound kind, points
on slot boundaries, values outside the domain, the empty set, the universe),
the indexed answer equals a brute-force reference kept here that tests every
slot.  *Flatness*: the number of slot constraints examined depends on the
slots selected, not on the slots that exist — the paper's Table 2 promise,
asserted as a count rather than a wall clock.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.catalog import (
    Interval,
    IntervalSet,
    PartitionLevel,
    PartitionScheme,
    PartitionSlot,
    list_level,
    range_level,
    uniform_int_level,
)
from repro.errors import PartitionError

from .test_constraints import any_interval_sets

# -- brute-force reference -----------------------------------------------------


def reference_select(level: PartitionLevel, predicate: IntervalSet | None):
    if predicate is None:
        return list(range(len(level.slots)))
    return [
        idx
        for idx, slot in enumerate(level.slots)
        if slot.constraint.overlaps(predicate)
    ]


def reference_route(level: PartitionLevel, value):
    for idx, slot in enumerate(level.slots):
        if slot.constraint.contains(value):
            return idx
    return None


# -- strategies ----------------------------------------------------------------

_bounds = st.integers(min_value=-50, max_value=50)
#: every bound kind: open, closed, point, unbounded (test_constraints.py)
interval_sets = any_interval_sets


@st.composite
def levels(draw, key: str = "k") -> PartitionLevel:
    """Mutually disjoint slots of every shape: each drawn set keeps what
    the earlier slots left over, so bounds of every kind meet, gaps and
    open ends occur, and slots span several intervals in any order."""
    taken = IntervalSet.EMPTY
    slots = []
    for i in range(draw(st.integers(1, 7))):
        free = draw(interval_sets()).difference(taken)
        if free.is_empty:
            continue
        slots.append(PartitionSlot(f"p{i}", free))
        taken = taken.union(free)
    if not slots:
        slots.append(PartitionSlot("p0", IntervalSet.of(Interval(0, 10))))
    return PartitionLevel(key, draw(st.permutations(slots)))


def boundary_values(level: PartitionLevel) -> list[int]:
    return sorted(
        {
            bound
            for slot in level.slots
            for interval in slot.constraint
            for bound in (interval.lo, interval.hi)
            if bound is not None
        }
    )


# -- equivalence ---------------------------------------------------------------


@given(levels(), interval_sets())
def test_select_equals_brute_force(level, predicate):
    assert level.select(predicate) == reference_select(level, predicate)


@given(levels())
def test_select_on_slot_boundaries_and_degenerate_predicates(level):
    for predicate in (None, IntervalSet.ALL, IntervalSet.EMPTY):
        assert level.select(predicate) == reference_select(level, predicate)
    bounds = boundary_values(level)
    for value in bounds:
        for predicate in (
            IntervalSet.of(Interval.point(value)),
            IntervalSet.of(Interval.less_than(value)),
            IntervalSet.of(Interval.at_most(value)),
            IntervalSet.of(Interval.greater_than(value)),
            IntervalSet.of(Interval.at_least(value)),
        ):
            assert level.select(predicate) == reference_select(level, predicate)
    for lo, hi in itertools.combinations(bounds[:6], 2):
        for lo_inc, hi_inc in itertools.product((True, False), repeat=2):
            predicate = IntervalSet.of(Interval(lo, hi, lo_inc, hi_inc))
            assert level.select(predicate) == reference_select(level, predicate)


@given(levels(), st.integers(min_value=-60, max_value=60))
def test_route_equals_brute_force(level, value):
    assert level.route(value) == reference_route(level, value)
    for bound in boundary_values(level):
        assert level.route(bound) == reference_route(level, bound)
    assert level.route(None) is None


@given(levels("a"), levels("b"), interval_sets(), interval_sets(), _bounds, _bounds)
def test_multi_level_scheme_equals_the_product_of_references(
    first, second, pred_a, pred_b, value_a, value_b
):
    scheme = PartitionScheme([first, second])
    expected = [
        (i, j)
        for i in reference_select(first, pred_a)
        for j in reference_select(second, pred_b)
    ]
    assert scheme.select({"a": pred_a, "b": pred_b}) == expected
    assert scheme.select({"a": pred_a}) == [
        (i, j)
        for i in reference_select(first, pred_a)
        for j in range(len(second))
    ]
    routed = scheme.route({"a": value_a, "b": value_b})
    slots = (reference_route(first, value_a), reference_route(second, value_b))
    assert routed == (None if None in slots else slots)


def test_list_and_declaration_order():
    """A list level's points sort differently from its slots' order; the
    answer still comes back in slot order."""
    level = list_level(
        "region", [("west", ["wa", "ca"]), ("east", ["ny", "ma"]), ("mid", ["il"])]
    )
    assert level.route("ny") == 1
    assert level.route("tx") is None
    assert level.select(IntervalSet.points(["il", "ca"])) == [0, 2]
    assert level.select(IntervalSet.of(Interval("m", "o", True, True))) == [1]


def test_values_outside_the_domain():
    level = range_level("k", [0, 10, 20, 30])
    assert level.route(-1) is None and level.route(30) is None
    assert level.select(IntervalSet.of(Interval(-9, -1, True, True))) == []
    assert level.select(IntervalSet.of(Interval(30, 99, True, True))) == []
    assert level.select(IntervalSet.of(Interval.at_least(25))) == [2]


# -- disjointness through the index --------------------------------------------


def test_overlap_error_names_both_partitions():
    with pytest.raises(PartitionError, match=r"'jan'.*'feb'|'feb'.*'jan'"):
        PartitionLevel(
            "k",
            [
                PartitionSlot("jan", IntervalSet.of(Interval(0, 31))),
                PartitionSlot("mar", IntervalSet.of(Interval(60, 90))),
                PartitionSlot("feb", IntervalSet.of(Interval(30, 60))),
            ],
        )


def test_overlapping_list_and_range_mix_rejected():
    with pytest.raises(PartitionError, match="'low'.*'five'|'five'.*'low'"):
        PartitionLevel(
            "k",
            [
                PartitionSlot("low", IntervalSet.of(Interval(0, 10))),
                PartitionSlot("high", IntervalSet.of(Interval(10, 20))),
                PartitionSlot("five", IntervalSet.points([5, 25])),
            ],
        )


def test_touching_bounds_are_disjoint():
    PartitionLevel(
        "k",
        [
            PartitionSlot("a", IntervalSet.of(Interval(0, 5))),
            PartitionSlot("b", IntervalSet.of(Interval.point(5))),
            PartitionSlot("c", IntervalSet.of(Interval(5, 9, False, True))),
        ],
    )


@given(levels(), interval_sets())
def test_any_overlapping_extra_slot_is_rejected(level, extra):
    if extra.is_empty:
        return
    slots = list(level.slots) + [PartitionSlot("extra", extra)]
    if any(slot.constraint.overlaps(extra) for slot in level.slots):
        with pytest.raises(PartitionError, match="'extra'"):
            PartitionLevel("k", slots)
    else:
        PartitionLevel("k", slots)


# -- flatness: examined slots do not grow with the partition count ---------------


def counting_level(parts: int):
    """``parts`` uniform ranges over ``[0, parts * 100)`` whose slot
    constraints count every examination."""
    visits = [0]

    class Counting(IntervalSet):
        __slots__ = ()

        def overlaps(self, other):
            visits[0] += 1
            return super().overlaps(other)

        def contains(self, value):
            visits[0] += 1
            return super().contains(value)

    plain = uniform_int_level("k", 0, parts * 100, parts)
    level = PartitionLevel(
        "k",
        [
            PartitionSlot(slot.name, Counting(slot.constraint.intervals))
            for slot in plain.slots
        ],
    )
    visits[0] = 0
    return level, visits


@pytest.mark.parametrize("parts", [42, 84, 169, 361])
def test_examined_slots_are_flat_in_the_partition_count(parts):
    level, visits = counting_level(parts)
    for value in (0, 100, 150, parts * 50, parts * 100 - 1):
        visits[0] = 0
        selected = level.select(IntervalSet.of(Interval.point(value)))
        assert selected == [value // 100]
        assert visits[0] <= 2
        visits[0] = 0
        assert level.route(value) == value // 100
        assert visits[0] <= 2
    for k in (1, 3, 17):
        lo = 100 * 5 + 50
        visits[0] = 0
        selected = level.select(
            IntervalSet.of(Interval(lo, lo + 100 * (k - 1), True, True))
        )
        assert len(selected) == k
        assert visits[0] <= k + 2
    # off the domain nothing is examined beyond the edge slot
    visits[0] = 0
    assert level.select(IntervalSet.of(Interval.at_least(parts * 100))) == []
    assert visits[0] <= 1
