"""The cache manager: one per Database, owning the statement cache.

The manager ties the pieces together:

* It owns the :class:`~repro.cache.result_cache.ResultCache`, bounded by
  :data:`RESULT_MAX_ENTRIES` and :data:`RESULT_MAX_BYTES`.
* It subscribes to storage mutations
  (:meth:`~repro.storage.StorageManager.add_mutation_listener`): every
  INSERT/UPDATE/DELETE event carries the target root OID and the
  leaf mask of the touched partitions, bumps the global **mutation
  epoch**, and drops exactly the entries the event stales (the
  partition-intersection rule).
* Each statement runs against a :class:`CacheSession` that captures the
  epoch at statement start.  A result is committed only if the epoch is
  unchanged — a DML racing the execution silently turns the store into a
  no-op, so the cache can never hold results derived from a half-mutated
  table.  DML statements bump the epoch through their own writes, which
  also keeps them from poisoning their own session.  The engine commits
  only after the executor returned, so a failed run (timeout, cancel,
  segment death) never reaches the store.

The mode is a statement setting (``settings.cache``), not manager state:

* ``off`` — no lookups, no stores.
* ``results`` — whole result sets of SELECT statements; a hit skips
  execution entirely.  A statement run with ``analyze`` or ``trace``
  reports an execution, so it skips the lookup (it may still store).

The counters export as :meth:`CacheManager.stats_dict`; the
``repro_cache_*`` Prometheus families (:data:`repro.obs.prom.FAMILIES`,
``\\cache prometheus``) read that dict.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

from ..physical import ops as phys
from .keys import StatementKey
from .result_cache import ResultCache, ResultEntry

#: result-cache bounds: entries, and estimated bytes of cached rows
RESULT_MAX_ENTRIES = 128
RESULT_MAX_BYTES = 32 * 1024 * 1024


class CacheManager:
    """The result cache plus the mutation epoch that keeps it sound."""

    def __init__(self):
        self.results = ResultCache(RESULT_MAX_ENTRIES, RESULT_MAX_BYTES)
        #: bumped by every storage mutation; commit-time guard for sessions
        self._epoch = 0
        self._lock = threading.Lock()

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    # -- mutation path -------------------------------------------------------

    def on_mutation(self, root_oid: int, leaves: int | None) -> None:
        """One DML event: ``leaves`` is the leaf mask of the touched
        partitions, ``None`` means the whole table (drop, unpartitioned
        target).  Bumps the epoch *first* so in-flight
        sessions refuse to commit, then drops stale entries."""
        with self._lock:
            self._epoch += 1
        self.results.invalidate(root_oid, leaves)

    def clear(self) -> int:
        """Drop everything (``\\cache clear``); returns entries dropped."""
        with self._lock:
            self._epoch += 1
        return self.results.clear()

    # -- query path ----------------------------------------------------------

    def begin(self, key: StatementKey, mode: str) -> "CacheSession":
        """Open the session one statement runs against in ``mode`` (the
        statement's ``settings.cache``)."""
        return CacheSession(self, key, mode)

    def lookup_result(self, key: StatementKey) -> ResultEntry | None:
        return self.results.get(key)

    def commit_result(
        self, session: "CacheSession", entry: ResultEntry
    ) -> bool:
        """Store a freshly computed entry unless a mutation landed since
        the session began (the TOCTOU guard)."""
        with self._lock:
            if session.epoch != self._epoch:
                return False
        self.results.store(entry)
        return True

    # -- exports -------------------------------------------------------------

    def stats_dict(self) -> dict:
        return {"epoch": self.epoch, "results": self.results.to_dict()}

    def render(self) -> str:
        """The ``\\cache`` table: counters plus cached keys."""
        snapshot = self.results.to_dict()
        lines = [
            f"cache: epoch={self.epoch}",
            f"{'entries':>8}{'bytes':>10}{'hits':>7}"
            f"{'misses':>8}{'hit%':>7}{'inval':>7}{'evict':>7}",
            f"{snapshot['entries']:>8}{snapshot['bytes']:>10}"
            f"{snapshot['hits']:>7}{snapshot['misses']:>8}"
            f"{snapshot['hit_rate'] * 100:>6.1f}%"
            f"{snapshot['invalidations']:>7}{snapshot['evictions']:>7}",
        ]
        keys = [key for key, _ in self.results.items()]
        if keys:
            lines.append("cached statements (oldest first):")
            lines.extend(f"  {key.describe()}" for key in keys)
        return "\n".join(lines)


class CacheSession:
    """One statement's view of the cache: the epoch it started at, and the
    outcome the metrics ``"cache"`` section reports.  Created by
    :meth:`CacheManager.begin` and used by the engine's thread only."""

    def __init__(self, manager: CacheManager, key: StatementKey, mode: str):
        self.manager = manager
        self.key = key
        self.mode = mode
        self.epoch = manager.epoch
        #: 'hit' | 'miss', or None when the statement did not look up
        self.result_outcome: str | None = None
        self.stored = False

    def commit_result(
        self,
        rows: Sequence[tuple],
        column_names: Sequence[str],
        footprint: Mapping[int, int | None],
    ) -> bool:
        entry = ResultEntry(self.key, rows, column_names, footprint)
        self.stored = self.manager.commit_result(self, entry)
        return self.stored

    def summary(self) -> dict:
        """The metrics ``"cache"`` section for this statement: its outcome
        plus the cache's cumulative totals."""
        totals = self.manager.results.to_dict()
        return {
            "mode": self.mode,
            "result": self.result_outcome,
            "stored": self.stored,
            "hits": totals["hits"],
            "misses": totals["misses"],
            "invalidations": totals["invalidations"],
            "bytes": totals["bytes"],
        }


def result_footprint(
    plan_root: phys.PhysicalOp,
    scanned_leaves: Mapping[str, int],
) -> dict[int, int | None] | None:
    """The invalidation footprint of one executed SELECT: every table the
    plan references, mapped to the leaf mask actually opened (from the
    scan tracker, keyed by table name) or ``None`` for whole-table
    sensitivity (unpartitioned scans).  Returns ``None`` — do not cache —
    for DML plans."""
    footprint: dict[int, int | None] = {}
    for op in plan_root.walk():
        if isinstance(op, (phys.Delete, phys.Update)):
            return None
        if isinstance(op, phys.Scan):
            footprint[op.table.oid] = None
        elif isinstance(
            op, (phys.DynamicScan, phys.LeafScan, phys.EmptyScan)
        ):
            # a Scan of the same table (self-join) keeps it whole-table
            footprint.setdefault(op.table.oid, scanned_leaves.get(op.table.name, 0))
    return footprint
