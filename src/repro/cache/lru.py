"""Bounded, thread-safe LRU store under the result cache.

The cache is a map from :class:`~repro.cache.keys.StatementKey` to an
immutable entry, bounded two ways: a maximum entry count and a maximum
byte budget (entries carry their own size estimate).  Eviction is least-recently-*used*: a ``get`` hit
refreshes recency, a ``put`` inserts at the young end and evicts from the
old end until both bounds hold.

Invalidation walks every entry with a caller-supplied predicate.  That is
O(entries), which the bounds keep small by construction — the point of
this cache is a handful of hot fingerprints, not an unbounded statement
history.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Iterator, TypeVar

from .keys import StatementKey

E = TypeVar("E")


class CacheStats:
    """Monotonic counters one cache exposes (snapshot via :meth:`to_dict`)."""

    __slots__ = ("hits", "misses", "invalidations", "evictions", "stores")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.stores = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "stores": self.stores,
        }


class LruCache(Generic[E]):
    """StatementKey -> entry, LRU-bounded by entries and bytes."""

    def __init__(self, max_entries: int, max_bytes: int):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[StatementKey, E] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # Subclass hook: the byte size of one entry.
    @staticmethod
    def entry_bytes(entry: E) -> int:  # pragma: no cover - overridden
        return 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def get(self, key: StatementKey) -> E | None:
        """Counted lookup: refreshes recency on hit."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def peek(self, key: StatementKey) -> E | None:
        """Uncounted lookup (no recency change) — for tests and views."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: StatementKey, entry: E) -> None:
        size = self.entry_bytes(entry)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= self.entry_bytes(old)
            self._entries[key] = entry
            self._bytes += size
            self.stats.stores += 1
            while self._entries and (
                len(self._entries) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                victim_key, victim = self._entries.popitem(last=False)
                self._bytes -= self.entry_bytes(victim)
                self.stats.evictions += 1
                if victim_key == key:
                    break  # the new entry itself exceeded the byte budget

    def invalidate_where(self, predicate: Callable[[E], bool]) -> int:
        """Drop every entry the predicate matches; returns the count."""
        with self._lock:
            victims = [
                key
                for key, entry in self._entries.items()
                if predicate(entry)
            ]
            for key in victims:
                entry = self._entries.pop(key)
                self._bytes -= self.entry_bytes(entry)
            self.stats.invalidations += len(victims)
            return len(victims)

    def clear(self) -> int:
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            self.stats.invalidations += count
            return count

    def items(self) -> Iterator[tuple[StatementKey, E]]:
        """Snapshot of (key, entry) pairs, oldest first."""
        with self._lock:
            return iter(list(self._entries.items()))

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                **self.stats.to_dict(),
            }
