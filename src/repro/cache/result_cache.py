"""Whole-result caching with partition-scoped DML invalidation.

A :class:`ResultEntry` stores the rows and column names one SELECT
produced, plus the **footprint** that makes invalidation sound: for every
table the plan referenced, the leaf mask (:mod:`repro.catalog.catalog`)
of the partitions the execution actually opened — or ``None`` meaning the
whole table (unpartitioned scans, or any case where per-partition
attribution is not available).  DML touching the leaf mask ``P`` of table
``T`` drops exactly the entries whose footprint for ``T`` is ``None`` or
shares a bit with ``P``; DML on a table outside the footprint leaves the
entry alone.

The footprint over-approximates sensitivity in one direction only (an
empty-but-selected partition is *in* the footprint, because the
DynamicScan opened it), so a cached result is never served after a write
that could have changed it.  Rows are stored as an immutable tuple of
tuples; readers receive fresh list copies.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .keys import StatementKey
from .lru import LruCache

_ENTRY_OVERHEAD = 256


def _rows_bytes(rows: Sequence[tuple]) -> int:
    """Same cheap estimate the Motion byte counters use."""
    return sum(
        sum(len(repr(value)) for value in row) + 8 * len(row)
        for row in rows
    )


class ResultEntry:
    """One cached result set and its invalidation footprint."""

    __slots__ = ("key", "rows", "column_names", "footprint", "size_bytes")

    def __init__(
        self,
        key: StatementKey,
        rows: Sequence[tuple],
        column_names: Sequence[str],
        footprint: Mapping[int, int | None],
    ):
        self.key = key
        self.rows: tuple[tuple, ...] = tuple(tuple(row) for row in rows)
        self.column_names = tuple(column_names)
        #: root OID -> leaf mask opened, or None = whole-table sensitivity
        self.footprint: dict[int, int | None] = dict(footprint)
        self.size_bytes = _ENTRY_OVERHEAD + _rows_bytes(self.rows)

    def stale_after(self, root_oid: int, leaves: int | None) -> bool:
        if root_oid not in self.footprint:
            return False
        scoped = self.footprint[root_oid]
        if scoped is None or leaves is None:
            return True
        return bool(scoped & leaves)

    def __repr__(self) -> str:
        return (
            f"ResultEntry({self.key.describe()}, {len(self.rows)} rows, "
            f"{self.size_bytes} B)"
        )


class ResultCache(LruCache[ResultEntry]):
    """StatementKey -> :class:`ResultEntry`, LRU + byte bounded."""

    @staticmethod
    def entry_bytes(entry: ResultEntry) -> int:
        return entry.size_bytes

    def store(self, entry: ResultEntry) -> None:
        self.put(entry.key, entry)

    def invalidate(self, root_oid: int, leaves: int | None) -> int:
        return self.invalidate_where(
            lambda entry: entry.stale_after(root_oid, leaves)
        )
