"""Fingerprint-keyed partition-selection and result caching.

The paper's core win is pruning partitions at plan/run time; for heavy
repeated traffic the next lever is not re-deriving that pruning on every
call.  This package joins the two halves the engine already has — the
statement fingerprints of :mod:`repro.obs.stats_store` and the partition
OID sets the executor computes per DynamicScan — into two caches with
DML-driven, partition-scoped invalidation:

* :class:`PartitionSelectionCache` — replays selector OID sets, skipping
  selector-program evaluation on repeat statements (``cache='partitions'``).
* :class:`ResultCache` — whole result sets for repeat SELECTs
  (``cache='results'``).

Both are keyed by :class:`StatementKey` — fingerprint **plus** normalized
literal and parameter vectors plus plan-shaping options — so a cached OID
set is never reused across different constants (see keys.py for the
contract).  :class:`CacheManager` owns both, listens to storage mutations
and guards in-flight executions with a mutation epoch.  Design notes and
knobs: ``docs/caching.md``.
"""

from ..settings import CACHE_MODES
from .keys import StatementKey, normalized_literals, statement_key
from .lru import CacheStats, LruCache
from .manager import (
    CacheConfig,
    CacheManager,
    CacheSession,
    classify_plan,
    result_footprint,
)
from .partition_cache import PartitionSelectionCache, SelectionEntry
from .result_cache import ResultCache, ResultEntry

__all__ = [
    "CACHE_MODES",
    "CacheConfig",
    "CacheManager",
    "CacheSession",
    "CacheStats",
    "LruCache",
    "PartitionSelectionCache",
    "ResultCache",
    "ResultEntry",
    "SelectionEntry",
    "StatementKey",
    "classify_plan",
    "normalized_literals",
    "result_footprint",
    "statement_key",
]
