"""Partitioning model: the functions ``f_T`` and ``f*_T`` of Section 2.1.

A table is *logically* partitioned on one key per level.  Each level is a
:class:`PartitionLevel`: a key column plus a list of named, mutually
disjoint :class:`IntervalSet` constraints (range partitioning produces
half-open intervals, categorical/list partitioning produces point sets —
both are the ``pk ∈ ∪(a, b)`` form of Section 3.2).

Multi-level (hierarchical) partitioning (Section 2.4) composes levels
uniformly, exactly like the paper's Figure 9: a 24-month × 2-region scheme
yields 48 leaves.  Leaves are identified by a *leaf id* — the tuple of
per-level slot indices — and the catalog assigns each leaf an OID.

Two functions define the model:

* ``route`` is ``f_T``: maps a tuple's partition-key values to the leaf
  that must store it, or ``None`` (the invalid partition ⊥).
* ``select`` is ``f*_T``: maps per-level predicates (as IntervalSets) to
  the set of leaf ids that *may* contain satisfying tuples.  Levels with no
  predicate keep all slots, so ``select`` degrades gracefully to "all
  leaves" — the trivially correct answer the paper notes always exists.
"""

from __future__ import annotations

import bisect
import datetime
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..errors import PartitionError
from ..types import add_months
from .constraints import Interval, IntervalSet, lo_key

LeafId = tuple[int, ...]


class PartitionSlot:
    """One named partition at one level, with its check constraint."""

    __slots__ = ("name", "constraint")

    def __init__(self, name: str, constraint: IntervalSet):
        if constraint.is_empty:
            raise PartitionError(f"partition {name!r} has an empty constraint")
        self.name = name
        self.constraint = constraint

    def __repr__(self) -> str:
        return f"PartitionSlot({self.name}: {self.constraint})"


class PartitionLevel:
    """One level of a (possibly hierarchical) partitioning scheme."""

    def __init__(self, key: str, slots: Sequence[PartitionSlot]):
        if not slots:
            raise PartitionError(f"partition level on {key!r} has no partitions")
        self.key = key
        self.slots: tuple[PartitionSlot, ...] = tuple(slots)
        # One sorted index over every interval of every slot.  Slots are
        # mutually disjoint, so their intervals order totally: by low bound
        # and by high bound at once.  ``route``, ``select`` and the
        # disjointness check all work on these parallel lists.
        entries = sorted(
            (
                (interval, idx)
                for idx, slot in enumerate(self.slots)
                for interval in slot.constraint
            ),
            key=lambda entry: lo_key(entry[0]),
        )
        self._entry_slot = [idx for _, idx in entries]
        self._intervals = [interval for interval, _ in entries]
        self._check_disjoint()
        self._lows = [interval.lo for interval in self._intervals]
        self._highs = [interval.hi for interval in self._intervals]
        # Only the first entry can be unbounded below and only the last
        # unbounded above; value bisects skip those two positions.
        self._first_bounded = 1 if self._lows[0] is None else 0
        self._last_bounded = len(entries) - (self._highs[-1] is None)

    def _check_disjoint(self) -> None:
        """Two slots overlap iff two entries adjacent in the index do, so
        one pass over neighbours replaces the all-pairs comparison."""
        intervals = self._intervals
        for pos in range(len(intervals) - 1):
            a, b = self._entry_slot[pos], self._entry_slot[pos + 1]
            if a != b and intervals[pos].overlaps(intervals[pos + 1]):
                raise PartitionError(
                    f"partitions {self.slots[a].name!r} and "
                    f"{self.slots[b].name!r} on key {self.key!r} have "
                    f"overlapping constraints"
                )

    def _candidates(self, wanted: Interval) -> list[int]:
        """Slot indices, in index order, of the entries that share a point
        with ``wanted``: entries ending below its low bound or starting
        above its high bound are bisected away, and an entry that only
        touches an end is kept when both ends are closed there.  The caller
        still confirms each candidate through the slot's own constraint:
        the interval algebra stays the judge, the index only decides which
        slots it is asked about."""
        entries = self._intervals
        start = 0
        if wanted.lo is not None:
            highs, last = self._highs, self._last_bounded
            start = bisect.bisect_left(highs, wanted.lo, 0, last)
            while (
                start < last
                and highs[start] == wanted.lo
                and not (wanted.lo_inclusive and entries[start].hi_inclusive)
            ):
                start += 1
        stop = len(entries)
        if wanted.hi is not None:
            lows, first = self._lows, self._first_bounded
            stop = bisect.bisect_right(lows, wanted.hi, first)
            while (
                stop > first
                and lows[stop - 1] == wanted.hi
                and not (wanted.hi_inclusive and entries[stop - 1].lo_inclusive)
            ):
                stop -= 1
        return self._entry_slot[start:stop]

    def route(self, value: Any) -> int | None:
        """``f_T`` restricted to this level: slot index for ``value``, or
        ``None`` when the value maps to the invalid partition ⊥."""
        if value is None:
            return None
        # Only the last entry starting at or below the value can hold it;
        # an entry *open* at exactly the value defers to the one before.
        # A slot's intervals are disjoint and non-adjacent, so no other
        # interval of the entry's slot can hold the value either.
        # (A point lookup on the per-row insert path: one bisect, no list.)
        lows = self._lows
        pos = bisect.bisect_right(lows, value, self._first_bounded)
        while pos > 0:
            pos -= 1
            if self._intervals[pos].contains(value):
                return self._entry_slot[pos]
            if lows[pos] != value:
                break
        return None

    def select(self, predicate: IntervalSet | None) -> list[int]:
        """``f*_T`` restricted to this level: indices of slots whose
        constraint overlaps ``predicate`` (all slots when no predicate).
        Work is proportional to the slots selected, not to the slots that
        exist (the paper's Table 2 promise)."""
        if predicate is None or predicate.is_universe:
            return list(range(len(self.slots)))
        candidates: set[int] = set()
        for interval in predicate:
            candidates.update(self._candidates(interval))
        return [
            idx
            for idx in sorted(candidates)
            if self.slots[idx].constraint.overlaps(predicate)
        ]

    def __len__(self) -> int:
        return len(self.slots)

    def same_slots(self, other: "PartitionLevel") -> bool:
        """Whether both levels split the domain identically (constraint-wise,
        ignoring names and key columns) — the compatibility requirement for
        partition-wise joins."""
        if len(self.slots) != len(other.slots):
            return False
        return all(
            a.constraint == b.constraint
            for a, b in zip(self.slots, other.slots)
        )

    def __repr__(self) -> str:
        return f"PartitionLevel(key={self.key!r}, {len(self.slots)} parts)"


class PartitionScheme:
    """A complete (multi-level) partitioning scheme for one table."""

    def __init__(self, levels: Sequence[PartitionLevel]):
        if not levels:
            raise PartitionError("partition scheme needs at least one level")
        keys = [lvl.key for lvl in levels]
        if len(set(keys)) != len(keys):
            raise PartitionError("partition levels must use distinct keys")
        self.levels: tuple[PartitionLevel, ...] = tuple(levels)

    # -- shape ----------------------------------------------------------------

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(lvl.key for lvl in self.levels)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def num_leaves(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl)
        return n

    def leaf_ids(self) -> Iterator[LeafId]:
        """All leaf ids in lexicographic order."""

        def expand(prefix: LeafId, depth: int) -> Iterator[LeafId]:
            if depth == len(self.levels):
                yield prefix
                return
            for idx in range(len(self.levels[depth])):
                yield from expand(prefix + (idx,), depth + 1)

        return expand((), 0)

    def leaf_name(self, leaf: LeafId) -> str:
        return "/".join(
            self.levels[d].slots[idx].name for d, idx in enumerate(leaf)
        )

    def leaf_constraints(self, leaf: LeafId) -> dict[str, IntervalSet]:
        """The conjunction of per-level constraints identifying this leaf."""
        return {
            self.levels[d].key: self.levels[d].slots[idx].constraint
            for d, idx in enumerate(leaf)
        }

    # -- f_T and f*_T ----------------------------------------------------------

    def route(self, key_values: Mapping[str, Any]) -> LeafId | None:
        """``f_T``: the leaf a tuple with the given partition-key values
        belongs to, or ``None`` for the invalid partition ⊥."""
        leaf: list[int] = []
        for lvl in self.levels:
            idx = lvl.route(key_values.get(lvl.key))
            if idx is None:
                return None
            leaf.append(idx)
        return tuple(leaf)

    def select(
        self, predicates: Mapping[str, IntervalSet] | None = None
    ) -> list[LeafId]:
        """``f*_T``: all leaf ids that may contain tuples satisfying the
        given per-key predicates.  Missing keys mean "no restriction"."""
        predicates = predicates or {}
        per_level = [lvl.select(predicates.get(lvl.key)) for lvl in self.levels]
        leaves: list[LeafId] = [()]
        for indices in per_level:
            leaves = [leaf + (idx,) for leaf in leaves for idx in indices]
        return leaves

    def slots_mask(self, slots_per_level: Sequence[Sequence[int]]) -> int:
        """The leaf mask (bit *i*: leaf *i* of :meth:`leaf_ids`) of the
        leaves whose slot at each level is in that level's list: a leaf's
        ordinal is its slot indices read as a mixed-radix number."""
        mask, width = 1, 1
        for level, slots in zip(reversed(self.levels), reversed(slots_per_level)):
            mask = sum(mask << (slot * width) for slot in slots)  # distinct slots
            width *= len(level)
        return mask

    def compatible_with(self, other: "PartitionScheme") -> bool:
        """Whether two schemes partition identically level by level
        (constraint-equal slots) — tables so partitioned can be joined
        partition-wise on their keys."""
        if self.num_levels != other.num_levels:
            return False
        return all(
            a.same_slots(b) for a, b in zip(self.levels, other.levels)
        )

    def __repr__(self) -> str:
        shape = " x ".join(f"{lvl.key}[{len(lvl)}]" for lvl in self.levels)
        return f"PartitionScheme({shape})"


# -- convenience constructors for common schemes -------------------------------


def range_level(
    key: str,
    bounds: Sequence[Any],
    names: Sequence[str] | None = None,
) -> PartitionLevel:
    """A range level with half-open slots ``[bounds[i], bounds[i+1])``.

    ``bounds`` must be strictly increasing and have at least two entries.
    """
    if len(bounds) < 2:
        raise PartitionError("range_level needs at least two bounds")
    slots = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if not lo < hi:
            raise PartitionError(f"range bounds not increasing at index {i}")
        name = names[i] if names else f"{key}_{i}"
        slots.append(PartitionSlot(name, IntervalSet.of(Interval(lo, hi))))
    return PartitionLevel(key, slots)


def list_level(
    key: str,
    groups: Sequence[tuple[str, Iterable[Any]]],
) -> PartitionLevel:
    """A categorical level: each ``(name, values)`` group is one partition."""
    slots = [
        PartitionSlot(name, IntervalSet.points(values)) for name, values in groups
    ]
    return PartitionLevel(key, slots)


def monthly_range_level(
    key: str, start: datetime.date, months: int
) -> PartitionLevel:
    """Monthly date partitions starting at the first of ``start``'s month —
    the paper's Figure 1 scheme (e.g. 24 monthly partitions of ``orders``)."""
    first = start.replace(day=1)
    bounds = [add_months(first, i) for i in range(months + 1)]
    names = [b.strftime("%b%Y").lower() for b in bounds[:-1]]
    return range_level(key, bounds, names)


def uniform_int_level(
    key: str, lo: int, hi: int, parts: int
) -> PartitionLevel:
    """``parts`` equal-width integer ranges covering ``[lo, hi)``.

    Used by the synthetic R/S workloads of Section 4.4.2; the last slot
    absorbs any remainder so the level always covers the full range.
    """
    if parts <= 0 or hi <= lo:
        raise PartitionError("uniform_int_level needs parts > 0 and hi > lo")
    width = max(1, (hi - lo) // parts)
    bounds = [lo + i * width for i in range(parts)]
    bounds.append(hi)
    if len(bounds) != parts + 1 or any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise PartitionError(
            f"cannot split [{lo}, {hi}) into {parts} non-empty ranges"
        )
    return range_level(key, bounds)
