"""Fingerprint-keyed result caching.

The paper prunes partitions at run time, from parameters or streamed
tuples, through one mechanism; selection is an indexed lookup plus one
kernel call per batch, so there is nothing left worth replaying.  What a
repeat statement can still skip is execution itself: :class:`ResultCache`
serves whole result sets of repeat SELECTs (``cache='results'``), with
DML-driven, partition-scoped invalidation.

Entries are keyed by :class:`StatementKey` — fingerprint **plus**
normalized literal and parameter vectors plus plan-shaping options — so a
cached result is never reused across different constants (see keys.py for
the contract).  :class:`CacheManager` owns the cache, listens to storage
mutations and guards in-flight executions with a mutation epoch.  Design
notes: ``docs/caching.md``.
"""

from ..settings import CACHE_MODES
from .keys import StatementKey, normalized_literals, statement_key
from .lru import CacheStats, LruCache
from .manager import CacheManager, CacheSession, result_footprint
from .result_cache import ResultCache, ResultEntry

__all__ = [
    "CACHE_MODES",
    "CacheManager",
    "CacheSession",
    "CacheStats",
    "LruCache",
    "ResultCache",
    "ResultEntry",
    "StatementKey",
    "normalized_literals",
    "result_footprint",
    "statement_key",
]
