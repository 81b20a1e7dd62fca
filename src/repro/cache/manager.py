"""The cache manager: one per Database, owning both caches.

The manager ties the pieces together:

* It owns the :class:`~repro.cache.partition_cache.PartitionSelectionCache`
  and :class:`~repro.cache.result_cache.ResultCache` and their shared
  configuration (:class:`CacheConfig`).
* It subscribes to storage mutations
  (:meth:`~repro.storage.StorageManager.add_mutation_listener`): every
  INSERT/UPDATE/DELETE/TRUNCATE event carries the target root OID and the
  touched leaf OIDs, bumps the global **mutation epoch**, and drops exactly
  the entries the event stales (the partition-intersection rule).
* Each query execution runs against a :class:`CacheSession` that captures
  the epoch at statement start.  A freshly computed entry is committed only
  if the epoch is unchanged — a DML racing the execution silently turns the
  store into a no-op, so a cache can never hold results derived from a
  half-mutated table.  DML statements bump the epoch through their own
  writes, which also keeps them from poisoning their own session.

Cache modes (per query, defaulting to the Database-level setting):

* ``off`` — no lookups, no stores.
* ``partitions`` — cache partition-selector OID sets only: a hit skips
  building and evaluating the selector programs (the dominant cost for
  wide IN-lists over many partitions) but re-runs the scans, so answers
  always reflect current table contents.
* ``results`` — additionally cache whole result sets; a hit skips
  execution entirely.  Only SELECT statements are ever cached.

Invalidation classification (details in partition_cache.py): tables whose
selectors *target* them are ``scoped`` (invalidated only by DML whose leaf
set intersects the cached OID set — selection is data-independent of the
target's own rows); every other table read by the plan is ``volatile``
(its rows drive selection, so any DML on it drops the entry).
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

from ..physical import ops as phys
from ..settings import check_cache_mode
from .keys import StatementKey
from .partition_cache import PartitionSelectionCache, SelectionEntry
from .result_cache import ResultCache, ResultEntry


class CacheConfig:
    """Bounds and the Database-level default mode."""

    __slots__ = (
        "mode",
        "max_entries",
        "max_bytes",
        "result_max_entries",
        "result_max_bytes",
    )

    def __init__(
        self,
        mode: str = "off",
        max_entries: int = 256,
        max_bytes: int = 8 * 1024 * 1024,
        result_max_entries: int = 128,
        result_max_bytes: int = 32 * 1024 * 1024,
    ):
        check_cache_mode(mode)
        self.mode = mode
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.result_max_entries = result_max_entries
        self.result_max_bytes = result_max_bytes


class CacheManager:
    """Both caches plus the mutation epoch that keeps them sound."""

    def __init__(self, config: CacheConfig | None = None):
        self.config = config if config is not None else CacheConfig()
        self.partitions = PartitionSelectionCache(
            self.config.max_entries, self.config.max_bytes
        )
        self.results = ResultCache(
            self.config.result_max_entries, self.config.result_max_bytes
        )
        #: bumped by every storage mutation; commit-time guard for sessions
        self._epoch = 0
        self._lock = threading.Lock()

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    # -- mutation path -------------------------------------------------------

    def on_mutation(
        self, root_oid: int, leaf_oids: frozenset[int] | None
    ) -> None:
        """One DML/TRUNCATE event: ``leaf_oids`` are the touched leaf
        partitions, ``None`` means the whole table (truncate, drop,
        unpartitioned target).  Bumps the epoch *first* so in-flight
        sessions refuse to commit, then drops stale entries."""
        with self._lock:
            self._epoch += 1
        self.partitions.invalidate(root_oid, leaf_oids)
        self.results.invalidate(root_oid, leaf_oids)

    def clear(self) -> int:
        """Drop everything (``\\cache clear``); returns entries dropped."""
        with self._lock:
            self._epoch += 1
        return self.partitions.clear() + self.results.clear()

    # -- query path ----------------------------------------------------------

    def begin(
        self, key: StatementKey, mode: str, lookup: bool = True
    ) -> "CacheSession":
        """Open the session one statement execution runs against in
        ``mode`` (the statement's ``settings.cache``).  ``lookup=False``
        skips the selection-cache probe (the result-hit path, which never
        executes selectors)."""
        return CacheSession(self, key, mode, lookup)

    def lookup_result(self, key: StatementKey) -> ResultEntry | None:
        return self.results.get(key)

    def commit_selection(
        self, session: "CacheSession", entry: SelectionEntry
    ) -> bool:
        """Store a freshly computed selection entry unless a mutation
        landed since the session began (the TOCTOU guard)."""
        with self._lock:
            if session.epoch != self._epoch:
                return False
        self.partitions.store(entry)
        return True

    def commit_result(
        self, session: "CacheSession", entry: ResultEntry
    ) -> bool:
        with self._lock:
            if session.epoch != self._epoch:
                return False
        self.results.store(entry)
        return True

    # -- exports -------------------------------------------------------------

    def stats_dict(self) -> dict:
        partitions = self.partitions.to_dict()
        results = self.results.to_dict()
        return {
            "mode": self.config.mode,
            "epoch": self.epoch,
            "hits": partitions["hits"] + results["hits"],
            "misses": partitions["misses"] + results["misses"],
            "invalidations": (
                partitions["invalidations"] + results["invalidations"]
            ),
            "bytes": partitions["bytes"] + results["bytes"],
            "partitions": partitions,
            "results": results,
        }

    def prom_families(self) -> list:
        """The ``repro_cache_*`` families, one ``cache``-labelled sample
        per store, for the shared exporter (:mod:`repro.obs.prom`)."""
        from ..obs.prom import MetricFamily

        stores = [
            ("partitions", self.partitions.to_dict()),
            ("results", self.results.to_dict()),
        ]
        metrics = [
            ("repro_cache_hits_total", "counter", "Cache lookup hits",
             "hits"),
            ("repro_cache_misses_total", "counter", "Cache lookup misses",
             "misses"),
            ("repro_cache_invalidations_total", "counter",
             "Entries dropped by DML invalidation", "invalidations"),
            ("repro_cache_evictions_total", "counter",
             "Entries evicted by LRU bounds", "evictions"),
            ("repro_cache_stores_total", "counter",
             "Entries stored", "stores"),
            ("repro_cache_entries", "gauge", "Entries currently cached",
             "entries"),
            ("repro_cache_bytes", "gauge", "Estimated bytes cached",
             "bytes"),
        ]
        families = []
        for name, kind, help_text, field in metrics:
            family = MetricFamily(name, kind, help_text)
            for label, snapshot in stores:
                family.add(snapshot[field], cache=label)
            families.append(family)
        return families

    def to_prometheus(self) -> str:
        """Prometheus text exposition for the cache, one ``cache`` label
        per store (matches the stats-store exporter's format)."""
        from ..obs.prom import render

        return render(self.prom_families())

    def render(self) -> str:
        """The ``\\cache`` table: per-store counters plus cached keys."""
        stats = self.stats_dict()
        lines = [
            f"cache: mode={stats['mode']} epoch={stats['epoch']}",
            f"{'store':<12}{'entries':>8}{'bytes':>10}{'hits':>7}"
            f"{'misses':>8}{'hit%':>7}{'inval':>7}{'evict':>7}",
        ]
        for label, snapshot in (
            ("partitions", stats["partitions"]),
            ("results", stats["results"]),
        ):
            lines.append(
                f"{label:<12}{snapshot['entries']:>8}{snapshot['bytes']:>10}"
                f"{snapshot['hits']:>7}{snapshot['misses']:>8}"
                f"{snapshot['hit_rate'] * 100:>6.1f}%"
                f"{snapshot['invalidations']:>7}{snapshot['evictions']:>7}"
            )
        entries = [
            ("partitions", key) for key, _ in self.partitions.items()
        ] + [("results", key) for key, _ in self.results.items()]
        if entries:
            lines.append("cached statements (oldest first):")
            for label, key in entries:
                lines.append(f"  [{label}] {key.describe()}")
        return "\n".join(lines)


class CacheSession:
    """One statement execution's view of the cache.

    Created per statement by :meth:`CacheManager.begin`; carried on the
    :class:`~repro.executor.context.ExecContext` so
    ``_partition_selector_iter`` can ask :meth:`cached_oids` for a replay
    set, and consulted again post-execution by :meth:`harvest` to build and
    commit a new entry on a miss.  Counter updates take the session lock —
    they fire per selector instance, not per row."""

    def __init__(
        self,
        manager: CacheManager,
        key: StatementKey,
        mode: str,
        lookup: bool = True,
    ):
        self.manager = manager
        self.key = key
        self.mode = mode
        self.epoch = manager.epoch
        #: selection-cache lookup happens once, at session start
        self.entry: SelectionEntry | None = (
            manager.partitions.get(key)
            if lookup and self.selection_active
            else None
        )
        self._lock = threading.Lock()
        #: selector instances served from / missed by the cached entry
        self.selectors_served = 0
        self.selectors_evaluated = 0
        #: filled by the engine on the result-cache path
        self.result_outcome: str | None = None
        self.stored = False
        #: set when the execution failed (timeout, cancel, segment death);
        #: an aborted session refuses every store — partial channel
        #: contents must never become a cache entry
        self.aborted = False

    @property
    def selection_active(self) -> bool:
        return self.mode in ("partitions", "results")

    @property
    def results_active(self) -> bool:
        return self.mode == "results"

    # -- executor-facing -----------------------------------------------------

    def cached_oids(
        self, part_scan_id: int, segment: int
    ) -> tuple[int, ...] | None:
        """The replay OID set for one selector instance, or None to
        evaluate normally.  Counts served/evaluated selector instances."""
        if self.entry is None:
            if self.selection_active:
                with self._lock:
                    self.selectors_evaluated += 1
            return None
        oids = self.entry.oids(part_scan_id, segment)
        with self._lock:
            if oids is None:
                self.selectors_evaluated += 1
            else:
                self.selectors_served += 1
        return oids

    def abort(self) -> None:
        """Poison the session after a failed execution.  The executor
        calls this on *any* error escaping a run (QueryTimeout,
        QueryCancelled, SegmentFailure past its retries, ...): whatever
        channel state the run left behind — closed-but-incomplete, open,
        or missing whole slices — is unsafe to cache, so every later
        :meth:`harvest` / :meth:`commit_result` becomes a no-op."""
        with self._lock:
            self.aborted = True

    def harvest(self, plan_root: phys.PhysicalOp, channels) -> bool:
        """After a successful cache-miss execution: snapshot every closed
        partition-OID channel into a :class:`SelectionEntry`, classify the
        plan's tables, and commit (epoch-guarded).  Returns True when an
        entry was stored."""
        if self.aborted:
            return False
        if not self.selection_active or self.entry is not None:
            return False
        if self.key.lowered:
            # Lowered plans (Section 3.2) have no PartitionSelector left to
            # short-circuit — a stored entry could never be replayed.
            return False
        scan_tables, volatile, cacheable = classify_plan(plan_root)
        if not cacheable:
            return False
        selections: dict[int, dict[int, tuple[int, ...]]] = {}
        scoped_leaves: dict[int, set[int]] = {}
        for channel in channels:
            if not channel.closed:
                return False  # incomplete run state; never cache it
            root_oid = scan_tables.get(channel.part_scan_id)
            if root_oid is None:
                return False  # unmappable channel; refuse rather than guess
            oids = tuple(channel.peek())
            selections.setdefault(channel.part_scan_id, {})[
                channel.segment
            ] = oids
            scoped_leaves.setdefault(root_oid, set()).update(oids)
        if not selections:
            return False  # nothing to short-circuit next time
        entry = SelectionEntry(
            self.key,
            selections,
            scoped={
                oid: frozenset(leaves)
                for oid, leaves in scoped_leaves.items()
            },
            volatile=frozenset(volatile),
        )
        stored = self.manager.commit_selection(self, entry)
        if stored:
            with self._lock:
                self.stored = True
        return stored

    # -- engine-facing -------------------------------------------------------

    def commit_result(
        self,
        rows: Sequence[tuple],
        column_names: Sequence[str],
        footprint: Mapping[int, frozenset[int] | None],
    ) -> bool:
        if self.aborted:
            return False
        entry = ResultEntry(self.key, rows, column_names, footprint)
        stored = self.manager.commit_result(self, entry)
        if stored:
            with self._lock:
                self.stored = True
        return stored

    def summary(self) -> dict:
        """The metrics schema-v5 ``"cache"`` section for this query:
        per-query selector/result outcomes plus manager-wide totals."""
        totals = self.manager.stats_dict()
        with self._lock:
            return {
                "mode": self.mode,
                "selection": "hit" if self.entry is not None else "miss",
                "selectors_served": self.selectors_served,
                "selectors_evaluated": self.selectors_evaluated,
                "result": self.result_outcome,
                "stored": self.stored,
                "hits": totals["hits"],
                "misses": totals["misses"],
                "invalidations": totals["invalidations"],
                "bytes": totals["bytes"],
            }


def classify_plan(
    plan_root: phys.PhysicalOp,
) -> tuple[dict[int, int], set[int], bool]:
    """Walk a physical plan and classify its tables for invalidation.

    Returns ``(scan_tables, volatile, cacheable)`` where ``scan_tables``
    maps every partition-selection scan id (selector targets, dynamic
    scans, leaf-scan guards) to the target table's root OID, ``volatile``
    holds root OIDs whose *rows* feed the plan through ordinary scans, and
    ``cacheable`` is False for DML plans (never cached)."""
    scan_tables: dict[int, int] = {}
    volatile: set[int] = set()
    cacheable = True
    for op in plan_root.walk():
        if isinstance(op, phys.PartitionSelector):
            scan_tables[op.part_scan_id] = op.spec.table.oid
        elif isinstance(op, phys.DynamicScan):
            scan_tables[op.part_scan_id] = op.table.oid
        elif isinstance(op, phys.LeafScan):
            # Planner-style plans: the leaf list is plan-time state, so
            # treat the whole table as row-driven (conservative).
            volatile.add(op.table.oid)
            if op.guard_scan_id is not None:
                scan_tables.setdefault(op.guard_scan_id, op.table.oid)
        elif isinstance(op, phys.Scan):
            volatile.add(op.table.oid)
        elif isinstance(op, (phys.Delete, phys.Update)):
            cacheable = False
    return scan_tables, volatile, cacheable


def result_footprint(
    plan_root: phys.PhysicalOp,
    scanned_leaves: Mapping[str, set[int]],
) -> dict[int, frozenset[int] | None] | None:
    """The invalidation footprint of one executed SELECT: every table the
    plan references, mapped to the leaf OIDs actually opened (from the
    scan tracker, keyed by table name) or ``None`` for whole-table
    sensitivity (unpartitioned scans).  Returns ``None`` — do not cache —
    for DML plans."""
    footprint: dict[int, frozenset[int] | None] = {}
    for op in plan_root.walk():
        if isinstance(op, (phys.Delete, phys.Update)):
            return None
        if isinstance(op, phys.Scan):
            footprint[op.table.oid] = None
        elif isinstance(
            op, (phys.DynamicScan, phys.LeafScan, phys.EmptyScan)
        ):
            oid = op.table.oid
            if oid in footprint and footprint[oid] is None:
                continue  # already whole-table sensitive (self-join w/ Scan)
            opened = frozenset(scanned_leaves.get(op.table.name, ()))
            footprint[oid] = frozenset(footprint.get(oid) or ()) | opened
    return footprint
