"""Interval algebra: unit tests plus property-based checks of the set
invariants partition selection relies on."""

import pytest
from hypothesis import given, strategies as st

from repro.catalog.constraints import Interval, IntervalSet
from repro.errors import PartitionError


class TestInterval:
    def test_half_open_contains(self):
        interval = Interval(10, 20)
        assert interval.contains(10)
        assert interval.contains(19)
        assert not interval.contains(20)
        assert not interval.contains(9)

    def test_point_interval(self):
        point = Interval.point(5)
        assert point.contains(5)
        assert not point.contains(4)
        assert not point.contains(6)

    def test_null_never_contained(self):
        assert not Interval.unbounded().contains(None)

    def test_open_ended(self):
        assert Interval.at_least(3).contains(3)
        assert not Interval.greater_than(3).contains(3)
        assert Interval.at_most(3).contains(3)
        assert not Interval.less_than(3).contains(3)
        assert Interval.less_than(3).contains(-(10**9))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(PartitionError):
            Interval(5, 4)
        with pytest.raises(PartitionError):
            Interval(5, 5, True, False)  # degenerate must be closed
        with pytest.raises(PartitionError):
            Interval.point(None)

    def test_overlaps(self):
        assert Interval(0, 10).overlaps(Interval(5, 15))
        assert not Interval(0, 10).overlaps(Interval(10, 20))  # half-open
        assert Interval(0, 10, True, True).overlaps(Interval(10, 20))
        assert Interval.unbounded().overlaps(Interval.point(1234))

    def test_works_with_strings_and_dates(self):
        import datetime

        assert Interval("a", "m").contains("hello")
        day = datetime.date(2013, 6, 1)
        assert Interval(
            datetime.date(2013, 1, 1), datetime.date(2014, 1, 1)
        ).contains(day)


class TestIntervalSet:
    def test_normalization_merges_adjacent(self):
        merged = IntervalSet.of(Interval(0, 5), Interval(5, 10))
        assert len(merged) == 1
        assert merged.contains(0) and merged.contains(9)

    def test_normalization_keeps_gaps(self):
        gappy = IntervalSet.of(Interval(0, 5), Interval(6, 10))
        assert len(gappy) == 2
        assert not gappy.contains(5)

    def test_points(self):
        points = IntervalSet.points([3, 1, 2])
        assert all(points.contains(v) for v in (1, 2, 3))
        assert not points.contains(4)
        assert len(points) == 3

    def test_adjacent_points_merge(self):
        # [1,1] and (1,2] style merging: exact duplicates collapse
        points = IntervalSet.points([1, 1, 1])
        assert len(points) == 1

    def test_intersect(self):
        a = IntervalSet.of(Interval(0, 10))
        b = IntervalSet.of(Interval(5, 15))
        both = a.intersect(b)
        assert both.contains(5) and both.contains(9)
        assert not both.contains(4)
        assert not both.contains(10)

    def test_union(self):
        a = IntervalSet.of(Interval(0, 5))
        b = IntervalSet.of(Interval(10, 15))
        merged = a.union(b)
        assert len(merged) == 2
        assert merged.contains(0) and merged.contains(12)

    def test_complement_roundtrip(self):
        original = IntervalSet.of(Interval(0, 5), Interval(10, 15))
        assert original.complement().complement() == original

    def test_complement_of_empty_is_all(self):
        assert IntervalSet.EMPTY.complement() == IntervalSet.ALL
        assert IntervalSet.ALL.complement() == IntervalSet.EMPTY

    def test_covers(self):
        big = IntervalSet.of(Interval(0, 100))
        small = IntervalSet.of(Interval(10, 20), Interval(30, 40))
        assert big.covers(small)
        assert not small.covers(big)

    def test_difference(self):
        a = IntervalSet.of(Interval(0, 10))
        b = IntervalSet.of(Interval(3, 5))
        diff = a.difference(b)
        assert diff.contains(2) and diff.contains(5)
        assert not diff.contains(3) and not diff.contains(4)

    def test_is_universe(self):
        assert IntervalSet.ALL.is_universe
        assert not IntervalSet.of(Interval(None, 5)).is_universe


# -- property-based tests ----------------------------------------------------

_bounds = st.integers(min_value=-50, max_value=50)


@st.composite
def interval_sets(draw) -> IntervalSet:
    intervals = []
    for _ in range(draw(st.integers(0, 4))):
        lo = draw(_bounds)
        width = draw(st.integers(0, 20))
        if width == 0:
            intervals.append(Interval.point(lo))
        else:
            intervals.append(
                Interval(
                    lo,
                    lo + width,
                    draw(st.booleans()),
                    draw(st.booleans()),
                )
            )
    return IntervalSet(intervals)


probe_values = st.integers(min_value=-60, max_value=80)


@given(interval_sets(), interval_sets(), probe_values)
def test_intersection_is_conjunction(a, b, value):
    assert a.intersect(b).contains(value) == (
        a.contains(value) and b.contains(value)
    )


@given(interval_sets(), interval_sets(), probe_values)
def test_union_is_disjunction(a, b, value):
    assert a.union(b).contains(value) == (
        a.contains(value) or b.contains(value)
    )


@given(interval_sets(), probe_values)
def test_complement_is_negation(a, value):
    assert a.complement().contains(value) == (not a.contains(value))


@given(interval_sets())
def test_normalized_intervals_are_sorted_and_disjoint(a):
    for prev, nxt in zip(a.intervals, a.intervals[1:]):
        assert not prev.overlaps(nxt)
        assert prev.lo is None or nxt.lo is None or prev.lo <= nxt.lo


@given(interval_sets(), interval_sets())
def test_covers_matches_difference(a, b):
    assert a.covers(b) == b.difference(a).is_empty


@st.composite
def any_interval_sets(draw) -> IntervalSet:
    """Interval sets with every bound kind: complementing reaches the
    unbounded ends and flips open and closed."""
    drawn = draw(interval_sets())
    return drawn.complement() if draw(st.booleans()) else drawn


@given(any_interval_sets(), any_interval_sets())
def test_overlaps_is_nonempty_intersection(a, b):
    """The allocation-free overlap test keeps the truth table of the
    intersection it no longer builds."""
    assert a.overlaps(b) == (not a.intersect(b).is_empty)
    assert b.overlaps(a) == a.overlaps(b)
    for x in a:
        for y in b:
            assert x.overlaps(y) == (x._intersect(y) is not None)
