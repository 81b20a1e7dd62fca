"""Interval algebra for partition constraints and partition selection.

Section 3.2 of the paper observes that every partition's check constraint can
be written in the form ``pk ∈ ∪_i (a_i1, a_ik)`` where each ``(a_i1, a_ik)``
is an open, closed, or half-open interval, possibly open-ended; categorical
partitioning is the degenerate case where an interval's start and end
coincide.  This module implements exactly that representation:

* :class:`Interval` — a single interval with optional open ends.
* :class:`IntervalSet` — a normalized union of disjoint, sorted intervals.

The partition selection function ``f*_T`` (Section 2.1) is realised by
deriving an :class:`IntervalSet` from a predicate on the partitioning key
(see :mod:`repro.expr.analysis`) and intersecting it with each partition's
constraint: a partition may contain satisfying tuples iff the intersection
is non-empty.

Values inside one interval set must be mutually comparable (same column
type); the algebra itself is type-agnostic.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from ..errors import PartitionError

_NEG_INF = object()
_POS_INF = object()


def lo_key(interval: "Interval") -> tuple:
    """Sort key placing unbounded-low intervals first and, for equal lows,
    inclusive bounds before exclusive ones."""
    if interval.lo is None:
        return (0, 0, 0)
    return (1, _Orderable(interval.lo), 0 if interval.lo_inclusive else 1)


class _Orderable:
    """Wrapper making heterogeneous-but-comparable values sortable."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Orderable") -> bool:
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Orderable) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)


class Interval:
    """A single interval over an ordered domain.

    ``lo is None`` means unbounded below, ``hi is None`` unbounded above.
    A point value ``v`` is ``Interval.point(v)`` — closed on both sides.
    Empty intervals cannot be constructed; use :data:`IntervalSet.EMPTY`.
    """

    __slots__ = ("lo", "hi", "lo_inclusive", "hi_inclusive")

    def __init__(
        self,
        lo: Any,
        hi: Any,
        lo_inclusive: bool = True,
        hi_inclusive: bool = False,
    ):
        if lo is not None and hi is not None:
            if hi < lo:
                raise PartitionError(f"interval bounds out of order: [{lo}, {hi}]")
            if hi == lo and not (lo_inclusive and hi_inclusive):
                raise PartitionError(
                    f"degenerate interval at {lo!r} must be closed on both sides"
                )
        self.lo = lo
        self.hi = hi
        self.lo_inclusive = lo_inclusive if lo is not None else False
        self.hi_inclusive = hi_inclusive if hi is not None else False

    # -- constructors -----------------------------------------------------

    @staticmethod
    def point(value: Any) -> "Interval":
        """The single-value interval ``[value, value]`` (categorical case)."""
        if value is None:
            raise PartitionError("NULL cannot be an interval bound")
        return Interval(value, value, True, True)

    @staticmethod
    def at_least(value: Any) -> "Interval":
        return Interval(value, None, True, False)

    @staticmethod
    def greater_than(value: Any) -> "Interval":
        return Interval(value, None, False, False)

    @staticmethod
    def at_most(value: Any) -> "Interval":
        return Interval(None, value, False, True)

    @staticmethod
    def less_than(value: Any) -> "Interval":
        return Interval(None, value, False, False)

    @staticmethod
    def unbounded() -> "Interval":
        return Interval(None, None)

    # -- predicates --------------------------------------------------------

    def contains(self, value: Any) -> bool:
        """Whether ``value`` lies inside this interval.  NULL never matches."""
        if value is None:
            return False
        if self.lo is not None:
            if value < self.lo:
                return False
            if value == self.lo and not self.lo_inclusive:
                return False
        if self.hi is not None:
            if value > self.hi:
                return False
            if value == self.hi and not self.hi_inclusive:
                return False
        return True

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two intervals share at least one point: neither ends
        before the other starts.  A pure bound comparison (nothing is
        built); two ends meeting at one value share it only when both are
        closed there."""
        return not (self._ends_before(other) or other._ends_before(self))

    def _ends_before(self, other: "Interval") -> bool:
        """Whether every point of ``self`` lies below every point of
        ``other``."""
        if self.hi is None or other.lo is None:
            return False
        if self.hi == other.lo:
            return not (self.hi_inclusive and other.lo_inclusive)
        return self.hi < other.lo

    def _intersect(self, other: "Interval") -> "Interval | None":
        lo, lo_inc = self.lo, self.lo_inclusive
        if other.lo is not None and (lo is None or other.lo > lo):
            lo, lo_inc = other.lo, other.lo_inclusive
        elif other.lo is not None and other.lo == lo:
            lo_inc = lo_inc and other.lo_inclusive

        hi, hi_inc = self.hi, self.hi_inclusive
        if other.hi is not None and (hi is None or other.hi < hi):
            hi, hi_inc = other.hi, other.hi_inclusive
        elif other.hi is not None and other.hi == hi:
            hi_inc = hi_inc and other.hi_inclusive

        if lo is not None and hi is not None:
            if hi < lo:
                return None
            if hi == lo and not (lo_inc and hi_inc):
                return None
        return Interval(lo, hi, lo_inc, hi_inc)

    def _touches_or_overlaps(self, other: "Interval") -> bool:
        """Whether the union of the two intervals is a single interval.

        True when they overlap or are adjacent (e.g. ``[1,5)`` and ``[5,9)``).
        Assumes ``self`` sorts before ``other`` by low bound.
        """
        if self.hi is None:
            return True
        if other.lo is None:
            return True
        if other.lo < self.hi:
            return True
        if other.lo == self.hi:
            return self.hi_inclusive or other.lo_inclusive
        return False

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return (
            self.lo == other.lo
            and self.hi == other.hi
            and self.lo_inclusive == other.lo_inclusive
            and self.hi_inclusive == other.hi_inclusive
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.lo_inclusive, self.hi_inclusive))

    def __repr__(self) -> str:
        lo = "(-inf" if self.lo is None else ("[" if self.lo_inclusive else "(") + repr(self.lo)
        hi = "+inf)" if self.hi is None else repr(self.hi) + ("]" if self.hi_inclusive else ")")
        return f"{lo}, {hi}"


class IntervalSet:
    """A normalized (sorted, disjoint, non-adjacent) union of intervals.

    This is the canonical representation both of a partition's check
    constraint and of the value set admitted by a predicate on the
    partitioning key.  All set operations return new, normalized sets.
    """

    __slots__ = ("intervals",)

    EMPTY: "IntervalSet"
    ALL: "IntervalSet"

    def __init__(self, intervals: Sequence[Interval] = ()):
        self.intervals: tuple[Interval, ...] = self._normalize(intervals)

    @staticmethod
    def _normalize(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
        items = sorted(intervals, key=lo_key)
        merged: list[Interval] = []
        for interval in items:
            if merged and merged[-1]._touches_or_overlaps(interval):
                prev = merged[-1]
                hi, hi_inc = prev.hi, prev.hi_inclusive
                if prev.hi is not None and (
                    interval.hi is None or interval.hi > prev.hi
                ):
                    hi, hi_inc = interval.hi, interval.hi_inclusive
                elif interval.hi == prev.hi:
                    hi_inc = hi_inc or interval.hi_inclusive
                merged[-1] = Interval(prev.lo, hi, prev.lo_inclusive, hi_inc)
            else:
                merged.append(interval)
        return tuple(merged)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def of(*intervals: Interval) -> "IntervalSet":
        return IntervalSet(intervals)

    @staticmethod
    def points(values: Iterable[Any]) -> "IntervalSet":
        """The set {v1, v2, ...} — used for categorical (list) partitions
        and ``IN`` predicates."""
        return IntervalSet([Interval.point(v) for v in values])

    # -- predicates ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def is_universe(self) -> bool:
        return len(self.intervals) == 1 and self.intervals[0] == Interval.unbounded()

    def contains(self, value: Any) -> bool:
        return any(iv.contains(value) for iv in self.intervals)

    def overlaps(self, other: "IntervalSet") -> bool:
        """Whether the two sets share at least one point.

        This is the heart of partition selection: a partition with
        constraint ``C`` may hold tuples satisfying predicate set ``P``
        iff ``C.overlaps(P)``.  One merge pass over the two sorted tuples
        that stops at the first shared point; nothing is allocated.
        """
        ours, theirs = self.intervals, other.intervals
        i = j = 0
        while i < len(ours) and j < len(theirs):
            if ours[i]._ends_before(theirs[j]):
                i += 1
            elif theirs[j]._ends_before(ours[i]):
                j += 1
            else:
                return True
        return False

    # -- algebra --------------------------------------------------------------

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        result: list[Interval] = []
        for a in self.intervals:
            for b in other.intervals:
                got = a._intersect(b)
                if got is not None:
                    result.append(got)
        return IntervalSet(result)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(list(self.intervals) + list(other.intervals))

    def complement(self) -> "IntervalSet":
        """The complement of this set within the unbounded domain."""
        if self.is_empty:
            return IntervalSet.ALL
        gaps: list[Interval] = []
        first = self.intervals[0]
        if first.lo is not None:
            gaps.append(Interval(None, first.lo, False, not first.lo_inclusive))
        for prev, nxt in zip(self.intervals, self.intervals[1:]):
            gaps.append(
                Interval(
                    prev.hi,
                    nxt.lo,
                    not prev.hi_inclusive,
                    not nxt.lo_inclusive,
                )
            )
        last = self.intervals[-1]
        if last.hi is not None:
            gaps.append(Interval(last.hi, None, not last.hi_inclusive, False))
        return IntervalSet(gaps)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other.complement())

    def covers(self, other: "IntervalSet") -> bool:
        """Whether ``other`` is a subset of this set (constraint subsumption)."""
        return other.difference(self).is_empty

    # -- misc -------------------------------------------------------------------

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        if self.is_empty:
            return "{}"
        return " ∪ ".join(repr(iv) for iv in self.intervals)


IntervalSet.EMPTY = IntervalSet()
IntervalSet.ALL = IntervalSet([Interval.unbounded()])
