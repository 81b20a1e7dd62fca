"""The per-query metrics collector.

One :class:`MetricsCollector` lives for one query execution.  It is
deliberately decoupled from the physical operator classes: the executor
registers the plan tree up front (capturing names, details and estimates),
and the iterators report into it through a handful of typed recording
methods.  All counters are scoped per (node, segment); slice wall times
are scoped per slice.  Aggregates are computed on demand.

Row counting is always on (one generator frame and one integer increment
per row per node); per-node wall-clock timing is collected only when the
query runs with ``analyze=True``, because it costs two ``perf_counter``
calls per row per node.

The JSON export (:meth:`MetricsCollector.to_dict` /
:meth:`MetricsCollector.to_json`) is the stable interface consumed by the
CLI, the benchmarks and the tests; its schema is documented in
``docs/architecture.md`` ("Observability").
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any

from ..types import DEFAULT_BATCH_SIZE

#: bump when the shape of :meth:`MetricsCollector.to_dict` changes
#: v2: added the top-level "resilience" section (retries, failovers,
#: fault-injection hit counters, segment health); every v1 field is
#: unchanged.
#: v3: additive "trace" and "optimizer" sections (null unless the query
#: ran with tracing — see docs/observability.md); scan nodes and table
#: entries gain sorted "partition_oids" lists; table keys are sorted so
#: the export is byte-stable across runs.
#: v4: additive "parallel" section (worker count, mode, per-(slice,
#: segment) instance wall times and the overlap ratio across them — see
#: docs/parallelism.md); every v3 field is unchanged.
#: v5: additive "cache" section (null unless the query ran with a cache
#: session): mode, per-query selector/result outcomes, and cumulative
#: hits/misses/invalidations/bytes — see docs/caching.md; every v4 field
#: is unchanged.
#: v6: additive "serving" section (null unless the query ran through a
#: serving session): session name, queue wait, requested vs. effective
#: (possibly degraded) worker width, and an admission-counter snapshot —
#: see docs/serving.md; every v5 field is unchanged.
#: v7: additive "live" section (null unless the statement registered with
#: the live activity registry — every Database.sql() call does): query
#: id, session, queue wait, elapsed time and the lifecycle phase log —
#: see docs/observability.md; every v6 field is unchanged.
#: v8: additive "durability" section ({"enabled": false} on a volatile
#: instance): WAL record/byte/fsync counters, checkpoint count/duration/
#: size, restart-recovery and resync replay counters, and the live
#: resyncing-segment list — see docs/durability.md; every v7 field is
#: unchanged.
#: v9: the "parallel" section gains "batch_size" (the vectorized batch
#: width the executor ran with; 1 = row-at-a-time) — see
#: docs/parallelism.md; every v8 field is unchanged.
#: v10: direct dispatch — every "slices" entry gains
#: "segments_dispatched" (the segments the slice ran instances on) and
#: "totals" gains "segments_dispatched" (distinct segments the sending
#: slices ran on; ``num_segments`` unless a distribution-key predicate
#: pinned them) — see docs/architecture.md ("Runtime"); every v9 field is
#: unchanged.
#: v11: the "cache" section drops "selection", "selectors_served" and
#: "selectors_evaluated" (the selection-replay tier is gone; the result
#: cache is the one statement cache) — see docs/caching.md; every other
#: v10 field is unchanged.
METRICS_SCHEMA_VERSION = 11


class ScanTracker:
    """Aggregate per-query record of partitions and rows touched by scans.

    Kept as the backward-compatible summary view (``result.tracker``); the
    per-node detail lives in :class:`NodeMetrics`.
    """

    def __init__(self) -> None:
        #: table name -> set of leaf OIDs actually scanned
        self.partitions: dict[str, set[int]] = {}
        self.rows_scanned = 0

    def record(self, table_name: str, leaf_oids, rows: int) -> None:
        if leaf_oids:
            self.partitions.setdefault(table_name, set()).update(leaf_oids)
        self.rows_scanned += rows

    def merge(self, other: "ScanTracker") -> None:
        for table_name, leaf_oids in other.partitions.items():
            self.record(table_name, leaf_oids, 0)
        self.rows_scanned += other.rows_scanned

    def partitions_scanned(self, table_name: str) -> int:
        return len(self.partitions.get(table_name, ()))

    def total_partitions_scanned(self) -> int:
        return sum(len(oids) for oids in self.partitions.values())


class NodeMetrics:
    """Actuals for one physical plan node, scoped per segment."""

    __slots__ = (
        "node_id",
        "op",
        "detail",
        "parent",
        "depth",
        "estimated_rows",
        "distribution",
        "rows_out",
        "loops",
        "time_s",
        "table_name",
        "partitions",
        "partitions_total",
        "rows_scanned",
        "motion_kind",
        "rows_by_target",
        "bytes_moved",
        "part_scan_id",
    )

    def __init__(
        self,
        node_id: int,
        op: str,
        num_segments: int,
        detail: str = "",
        parent: int | None = None,
        depth: int = 0,
        estimated_rows: float | None = None,
        distribution: str | None = None,
    ):
        self.node_id = node_id
        self.op = op
        self.detail = detail
        self.parent = parent
        self.depth = depth
        self.estimated_rows = estimated_rows
        self.distribution = distribution
        #: rows produced by this node, per segment
        self.rows_out = [0] * num_segments
        #: iterator instantiations, per segment
        self.loops = [0] * num_segments
        #: inclusive wall time (self + children), per segment; only filled
        #: when timing collection is enabled
        self.time_s = [0.0] * num_segments
        # scan-specific
        self.table_name: str | None = None
        #: leaf OIDs scanned, per segment
        self.partitions: list[set[int]] = [set() for _ in range(num_segments)]
        self.partitions_total: int | None = None
        self.rows_scanned = [0] * num_segments
        # motion-specific
        self.motion_kind: str | None = None
        self.rows_by_target = [0] * num_segments
        self.bytes_moved = 0
        # selector / dynamic-scan linkage
        self.part_scan_id: int | None = None

    # -- aggregates ---------------------------------------------------------

    @property
    def actual_rows(self) -> int:
        return sum(self.rows_out)

    @property
    def total_loops(self) -> int:
        return sum(self.loops)

    @property
    def total_time_s(self) -> float:
        return sum(self.time_s)

    @property
    def partitions_scanned(self) -> int:
        return len(set().union(*self.partitions)) if self.partitions else 0

    @property
    def total_rows_scanned(self) -> int:
        return sum(self.rows_scanned)

    @property
    def rows_moved(self) -> int:
        return sum(self.rows_by_target)

    @property
    def is_scan(self) -> bool:
        return self.table_name is not None

    @property
    def is_motion(self) -> bool:
        return self.motion_kind is not None

    def to_dict(self, timing: bool = False) -> dict:
        node: dict[str, Any] = {
            "id": self.node_id,
            "op": self.op,
            "detail": self.detail,
            "parent": self.parent,
            "depth": self.depth,
            "estimated_rows": self.estimated_rows,
            "actual_rows": self.actual_rows,
            "rows_by_segment": list(self.rows_out),
            "loops": self.total_loops,
        }
        node["time_ms"] = self.total_time_s * 1000.0 if timing else None
        if self.is_scan:
            node["scan"] = {
                "table": self.table_name,
                "partitions_scanned": self.partitions_scanned,
                "partitions_total": self.partitions_total,
                # sorted so golden-file comparisons are stable (v3)
                "partition_oids": sorted(set().union(*self.partitions))
                if self.partitions
                else [],
                "rows_scanned": self.total_rows_scanned,
            }
        if self.is_motion:
            node["motion"] = {
                "kind": self.motion_kind,
                "rows_moved": self.rows_moved,
                "rows_by_target": list(self.rows_by_target),
                "bytes_moved": self.bytes_moved,
            }
        if self.part_scan_id is not None:
            node["part_scan_id"] = self.part_scan_id
        return node


class MetricsCollector:
    """All measurements of one query execution.

    The executor registers the plan (:meth:`register_plan`), wraps every
    iterator through :meth:`instrument_batches`, and the scan / selector /
    motion recording methods fill in the operator-specific counters.
    """

    def __init__(self, num_segments: int, timing: bool = False):
        self.num_segments = num_segments
        self.timing = timing
        self.tracker = ScanTracker()
        self.nodes: list[NodeMetrics] = []
        self.elapsed_seconds = 0.0
        #: guards shared-structure mutation from worker threads (node and
        #: selector creation, retry/failover/instance logs, worker merges);
        #: per-(node, segment) counter slots are touched by exactly one
        #: (slice, segment) instance at a time and stay lock-free
        self._lock = threading.RLock()
        # parallel execution (schema v4)
        #: worker-pool size the query ran with (1 = serial)
        self.workers = 1
        #: batch width the query ran with (schema v9; 1 = row-at-a-time)
        self.batch_size = DEFAULT_BATCH_SIZE
        #: one entry per (slice, segment) instance: wall seconds on its worker
        self.instances: list[dict] = []
        #: part_scan_id -> {"mode", "total", "selected" per-segment sets}
        self.selectors: dict[int, dict] = {}
        #: one entry per slice: {"id", "label", "seconds",
        #: "segments_dispatched"}
        self.slices: list[dict] = []
        #: segments that ran an instance of any sending slice (schema v10)
        self._dispatched_segments: set[int] = set()
        #: table name -> total leaf count (for k/N reporting)
        self._table_totals: dict[str, int] = {}
        self._by_op: dict[int, NodeMetrics] = {}
        self._plan = None  # pinned so id(op) keys stay unique
        # resilience (schema v2)
        #: one entry per slice retry: {"slice_id", "attempt", "segment", "point"}
        self.retries: list[dict] = []
        #: one entry per primary->mirror failover: {"segment", "reason"}
        self.failovers: list[dict] = []
        #: injection point -> {"hits", "fired"} snapshot at query end
        self.fault_points: dict[str, dict] = {}
        #: SegmentHealth.status() snapshot at query end
        self.segment_health: dict | None = None
        # tracing (schema v3) — populated only when the query was traced
        #: Tracer.to_dict() snapshot: lifecycle phases + span list
        self.trace_summary: dict | None = None
        #: OptimizerEventLog.summary() snapshot: search statistics
        self.optimizer_summary: dict | None = None
        # caching (schema v5) — populated only when a cache session ran
        #: CacheSession.summary() snapshot: mode, outcomes, totals
        self.cache_summary: dict | None = None
        # serving (schema v6) — populated only for serving-session queries
        #: QueryServer submit summary: queue wait, degraded worker width
        self.serving_summary: dict | None = None
        # live telemetry (schema v7) — populated by the activity registry
        #: LiveTelemetry.complete() summary: query id, phase log, timings
        self.live_summary: dict | None = None
        # durability (schema v8) — WAL/checkpoint/recovery counters at
        #: query end ({"enabled": false} on a volatile instance)
        self.durability_summary: dict | None = None

    # -- plan registration --------------------------------------------------

    def register_plan(self, plan) -> None:
        """Pre-order walk capturing the tree shape, names and estimates."""
        self._plan = plan

        def visit(op, parent: int | None, depth: int) -> None:
            node = NodeMetrics(
                len(self.nodes),
                op.name,
                self.num_segments,
                detail=op.describe(),
                parent=parent,
                depth=depth,
                estimated_rows=op.estimated_rows,
                distribution=(
                    repr(op.distribution)
                    if op.distribution is not None
                    else None
                ),
            )
            self.nodes.append(node)
            self._by_op[id(op)] = node
            for child in op.children:
                visit(child, node.node_id, depth + 1)

        visit(plan.root, None, 0)

    def node(self, op) -> NodeMetrics:
        """The metrics record for a plan operator (auto-registers ops that
        were not part of the registered tree, e.g. hand-built subtrees)."""
        found = self._by_op.get(id(op))
        if found is None:
            with self._lock:
                found = self._by_op.get(id(op))
                if found is None:
                    found = NodeMetrics(
                        len(self.nodes),
                        getattr(op, "name", type(op).__name__),
                        self.num_segments,
                        detail=(
                            op.describe() if hasattr(op, "describe") else ""
                        ),
                    )
                    self.nodes.append(found)
                    self._by_op[id(op)] = found
        return found

    # -- generic per-node instrumentation -----------------------------------

    def instrument_batches(self, op, segment: int, inner):
        """Wrap one node's batch iterator with row counting (and timing
        when enabled; inclusive of children, like EXPLAIN ANALYZE): each
        batch charges ``len(batch)`` to ``rows_out`` in one increment."""
        node = self.node(op)
        node.loops[segment] += 1
        if self.timing:
            return _timed_batch_iter(node, segment, inner)
        return _counted_batch_iter(node, segment, inner)

    # -- scans --------------------------------------------------------------

    def record_scan(self, op, table, segment: int, leaf_oids, rows: int) -> None:
        """One batch a (Dynamic/Leaf)Scan emitted: its ``rows`` and the
        leaf OIDs opened to fill it, empty leaves included (``rows=0``:
        empty leaves opened after the last batch)."""
        _count_scan(self, self.tracker, op, table, segment, leaf_oids, rows)

    # -- partition selection ------------------------------------------------

    def record_selector(
        self, part_scan_id: int, mode: str, total: int
    ) -> None:
        """Declare a producer's elimination mode: 'static' (computed once,
        before any tuple flows) or 'dynamic' (from the streamed tuples)."""
        entry = self._selector(part_scan_id)
        entry["mode"] = mode
        entry["total"] = total

    def record_propagation(
        self, part_scan_id: int, segment: int, oids, pairs: int
    ) -> None:
        """OIDs pushed through one ``partition_propagation`` call (Table
        1), standing for ``pairs`` (row, OID) selections."""
        entry = self._selector(part_scan_id)
        entry["selected"][segment].update(oids)
        entry["pushed"] += pairs

    def _selector(self, part_scan_id: int) -> dict:
        entry = self.selectors.get(part_scan_id)
        if entry is None:
            with self._lock:
                entry = self.selectors.get(part_scan_id)
                if entry is None:
                    entry = {
                        "mode": None,
                        "total": None,
                        "selected": [
                            set() for _ in range(self.num_segments)
                        ],
                        "pushed": 0,
                    }
                    self.selectors[part_scan_id] = entry
        return entry

    def selector_summary(self, part_scan_id: int) -> dict | None:
        entry = self.selectors.get(part_scan_id)
        if entry is None:
            return None
        selected: set[int] = set().union(*entry["selected"])
        return {
            "part_scan_id": part_scan_id,
            "mode": entry["mode"],
            "partitions_selected": len(selected),
            "partitions_total": entry["total"],
            "oids_pushed": entry["pushed"],
        }

    # -- motions ------------------------------------------------------------

    def record_motion_batch(
        self, op, kind: str, target_segment: int, rows: int, nbytes: int
    ) -> None:
        """``rows`` rows routed by a Motion to ``target_segment``, sized
        ``nbytes`` by the Motion byte measure (docs/observability.md):
        ``rows`` times the bytes of one row of the Motion's layout."""
        _count_motion(self.node(op), kind, target_segment, rows, nbytes)

    # -- slices -------------------------------------------------------------

    def record_slice(
        self, slice_id: int, label: str, seconds: float, segments
    ) -> None:
        """One finished slice; ``segments`` are the ones it ran on (all of
        them, or the direct-dispatch targets of a sending slice)."""
        with self._lock:
            self.slices.append(
                {
                    "id": slice_id,
                    "label": label,
                    "seconds": seconds,
                    "segments_dispatched": len(segments),
                }
            )
            if slice_id != 0:
                self._dispatched_segments.update(segments)

    def finish(self, elapsed_seconds: float) -> None:
        self.elapsed_seconds = elapsed_seconds

    # -- parallel execution (schema v4) ---------------------------------------

    def record_settings(self, settings) -> None:
        """The worker-pool size (1 = serial) and the batch width (schema
        v9; 1 = one row per batch) the query ran with."""
        self.workers = settings.workers
        self.batch_size = settings.batch_size

    def record_instance(
        self, slice_id: int, segment: int, seconds: float
    ) -> None:
        """Wall time of one (slice, segment) instance on its worker."""
        with self._lock:
            self.instances.append(
                {"slice_id": slice_id, "segment": segment, "seconds": seconds}
            )

    def worker(self, segment: int) -> "WorkerMetrics":
        """A per-worker recording view for one (slice, segment) instance.

        Contended counters accumulate locally in the view and fold back in
        one :meth:`WorkerMetrics.merge` call under the collector lock, so
        the per-row recording path never takes a lock."""
        return WorkerMetrics(self, segment)

    def parallel_stats(self) -> dict:
        """The schema-v4 "parallel" section: worker count, per-instance
        wall times, and how much segment work overlapped.

        ``overlap`` is Σ instance wall seconds / query elapsed seconds —
        1.0 means no concurrency benefit, values approaching the worker
        count mean the instances genuinely ran side by side.  Reported
        only for parallel runs with a measured elapsed time."""
        instances = sorted(
            self.instances,
            key=lambda e: (e["slice_id"], e["segment"]),
        )
        busy = sum(entry["seconds"] for entry in instances)
        overlap = None
        if self.workers > 1 and self.elapsed_seconds > 0:
            overlap = busy / self.elapsed_seconds
        return {
            "workers": self.workers,
            "mode": "parallel" if self.workers > 1 else "serial",
            "batch_size": self.batch_size,
            "instances": instances,
            "instance_busy_seconds": busy,
            "overlap": overlap,
        }

    # -- resilience (schema v2) ----------------------------------------------

    def record_retry(
        self,
        slice_id: int,
        attempt: int,
        segment: int | None,
        point: str | None,
    ) -> None:
        """One slice re-run after a :class:`SegmentFailure`.

        Note that node row counters are cumulative across attempts, so
        ``rows_out``/``loops`` over-count when retries occurred; the retry
        log here is what lets a reader normalise.
        """
        with self._lock:
            self.retries.append(
                {
                    "slice_id": slice_id,
                    "attempt": attempt,
                    "segment": segment,
                    "point": point,
                }
            )

    def record_failover(self, segment: int, reason: str) -> None:
        """One primary marked down with its mirror taking over."""
        with self._lock:
            self.failovers.append({"segment": segment, "reason": reason})

    def record_fault_points(self, snapshot: dict[str, dict]) -> None:
        """Final per-injection-point hit/fired counters for the query."""
        self.fault_points = dict(snapshot)

    def record_segment_health(self, status: dict) -> None:
        """Final :meth:`SegmentHealth.status` snapshot for the query."""
        self.segment_health = status

    # -- tracing (schema v3) ---------------------------------------------------

    def record_trace(self, summary: dict) -> None:
        """Attach a traced run's span summary (:meth:`Tracer.to_dict`)."""
        self.trace_summary = summary

    def record_optimizer(self, summary: dict) -> None:
        """Attach the optimizer search summary
        (:meth:`OptimizerEventLog.summary`)."""
        self.optimizer_summary = summary

    # -- caching (schema v5) ---------------------------------------------------

    def record_cache(self, summary: dict) -> None:
        """Attach the statement's cache-session summary
        (:meth:`~repro.cache.CacheSession.summary`), recorded by the
        engine once the statement's outcome is final."""
        self.cache_summary = summary

    # -- serving (schema v6) ---------------------------------------------------

    def record_serving(self, summary: dict) -> None:
        """Attach the grant summary of a serving-session execution
        (session name, queue wait, requested vs. effective workers, and
        the admission counters at completion)."""
        self.serving_summary = summary

    # -- live telemetry (schema v7) --------------------------------------------

    def record_live(self, summary: dict) -> None:
        """Attach the statement's live-activity summary
        (:meth:`~repro.obs.live.LiveTelemetry.complete`): query id,
        session, queue wait, elapsed time and the lifecycle phase log."""
        self.live_summary = summary

    # -- durability (schema v8) ------------------------------------------------

    def record_durability(self, summary: dict) -> None:
        """Attach the instance's durability counters at query end
        (:meth:`~repro.durability.DurabilityManager.stats_dict` plus the
        live resync state; ``{"enabled": False}`` when volatile)."""
        self.durability_summary = summary

    @property
    def retry_count(self) -> int:
        return len(self.retries)

    @property
    def failover_count(self) -> int:
        return len(self.failovers)

    def resilience_stats(self) -> dict:
        return {
            "retries": list(self.retries),
            "retry_count": self.retry_count,
            "failovers": list(self.failovers),
            "failover_count": self.failover_count,
            "fault_points": {
                point: dict(counters)
                for point, counters in sorted(self.fault_points.items())
            },
            "segment_health": self.segment_health,
        }

    # -- aggregate views -----------------------------------------------------

    @property
    def total_rows_scanned(self) -> int:
        return self.tracker.rows_scanned

    @property
    def segments_dispatched(self) -> int:
        """Distinct segments the statement's sending slices (the ones
        below a Motion) ran on: ``num_segments`` unless direct dispatch
        pinned them.  The root slice is the coordinator's and not
        counted."""
        return len(self._dispatched_segments)

    def partitions_scanned(self, table_name: str | None = None) -> int:
        if table_name is not None:
            return self.tracker.partitions_scanned(table_name)
        return self.tracker.total_partitions_scanned()

    def table_stats(self) -> dict[str, dict]:
        """Per-table scan summary: partitions scanned / total, sorted OID
        list, rows read.  Keys are sorted by table name so the export is
        stable across runs (v3)."""
        stats: dict[str, dict] = {}
        for name, oids in self.tracker.partitions.items():
            stats[name] = {
                "partitions_scanned": len(oids),
                "partitions_total": self._table_totals.get(name),
                "partition_oids": sorted(oids),
                "rows_scanned": 0,
            }
        for node in self.nodes:
            if node.table_name is None:
                continue
            entry = stats.setdefault(
                node.table_name,
                {
                    "partitions_scanned": 0,
                    "partitions_total": self._table_totals.get(
                        node.table_name
                    ),
                    "partition_oids": [],
                    "rows_scanned": 0,
                },
            )
            entry["rows_scanned"] += node.total_rows_scanned
        return dict(sorted(stats.items()))

    def motion_stats(self) -> dict:
        """Aggregate Motion traffic, total and per kind."""
        by_kind: dict[str, dict] = {}
        for node in self.nodes:
            if not node.is_motion:
                continue
            entry = by_kind.setdefault(
                node.motion_kind, {"rows_moved": 0, "bytes_moved": 0}
            )
            entry["rows_moved"] += node.rows_moved
            entry["bytes_moved"] += node.bytes_moved
        return {
            "rows_moved": sum(e["rows_moved"] for e in by_kind.values()),
            "bytes_moved": sum(e["bytes_moved"] for e in by_kind.values()),
            "by_kind": by_kind,
        }

    # -- export -------------------------------------------------------------

    def to_dict(self) -> dict:
        motion = self.motion_stats()
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "elapsed_seconds": self.elapsed_seconds,
            "num_segments": self.num_segments,
            "timing_collected": self.timing,
            "nodes": [node.to_dict(self.timing) for node in self.nodes],
            "partition_selectors": {
                str(scan_id): self.selector_summary(scan_id)
                for scan_id in sorted(self.selectors)
            },
            "slices": list(self.slices),
            "tables": self.table_stats(),
            "totals": {
                "rows_scanned": self.total_rows_scanned,
                "partitions_scanned": self.partitions_scanned(),
                "segments_dispatched": self.segments_dispatched,
                "motion_rows": motion["rows_moved"],
                "motion_bytes": motion["bytes_moved"],
            },
            "resilience": self.resilience_stats(),
            "trace": self.trace_summary,
            "optimizer": self.optimizer_summary,
            "parallel": self.parallel_stats(),
            "cache": self.cache_summary,
            "serving": self.serving_summary,
            "live": self.live_summary,
            "durability": self.durability_summary,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)


class WorkerMetrics:
    """Per-worker recording view of one (slice, segment) instance.

    The parallel scheduler hands each instance this thin facade instead of
    the shared :class:`MetricsCollector`.  Counters that are slotted per
    segment (``rows_out``, ``loops``, ``time_s``, per-segment partition
    sets) are touched by exactly one instance per slice, so those calls
    delegate straight to the collector, lock-free.  The counters that
    *would* be contended across workers — ``ScanTracker`` totals, Motion
    ``rows_by_target``/``bytes_moved`` (many producers, one target), and
    selector ``pushed`` counts — accumulate locally and fold back in a
    single :meth:`merge` under the collector lock when the instance ends.

    ``merge`` runs on success *and* failure (before an instance retry), so
    parallel counters stay cumulative across attempts exactly like the
    serial executor's.
    """

    def __init__(self, base: MetricsCollector, segment: int):
        self._base = base
        self.segment = segment
        #: this instance's share of the aggregate ScanTracker
        self._scans = ScanTracker()
        #: part_scan_id -> OIDs pushed by this instance
        self._pushed: dict[int, int] = {}
        #: id(op) -> (op, this instance's Motion counters for it)
        self._motions: dict[int, tuple[Any, NodeMetrics]] = {}

    def __getattr__(self, name: str):
        # everything not intercepted (instrument_batches, node,
        # record_slice, ...) behaves exactly as on the shared collector
        return getattr(self._base, name)

    # -- intercepted recorders (contended counters buffered locally) ---------

    def record_scan(self, op, table, segment: int, leaf_oids, rows: int) -> None:
        _count_scan(self._base, self._scans, op, table, segment, leaf_oids, rows)

    def record_propagation(
        self, part_scan_id: int, segment: int, oids, pairs: int
    ) -> None:
        entry = self._base._selector(part_scan_id)
        entry["selected"][segment].update(oids)
        self._pushed[part_scan_id] = self._pushed.get(part_scan_id, 0) + pairs

    def record_motion_batch(
        self, op, kind: str, target_segment: int, rows: int, nbytes: int
    ) -> None:
        entry = self._motions.get(id(op))
        if entry is None:
            tally = NodeMetrics(-1, "", self._base.num_segments)
            entry = self._motions[id(op)] = (op, tally)
        _count_motion(entry[1], kind, target_segment, rows, nbytes)

    # -- fold-back -----------------------------------------------------------

    def merge(self) -> None:
        """Fold the local accumulators into the shared collector (one lock
        acquisition per instance, not per row) and reset them."""
        base = self._base
        with base._lock:
            base.tracker.merge(self._scans)
            for part_scan_id, count in self._pushed.items():
                base._selector(part_scan_id)["pushed"] += count
            for op, tally in self._motions.values():
                node = base.node(op)
                for target, rows in enumerate(tally.rows_by_target):
                    _count_motion(node, tally.motion_kind, target, rows, 0)
                node.bytes_moved += tally.bytes_moved
        self._scans = ScanTracker()
        self._pushed = {}
        self._motions = {}


def _count_scan(
    base: MetricsCollector, tracker: ScanTracker, op, table, segment: int, leaf_oids, rows: int
) -> None:
    """One scan batch, into ``tracker`` (the collector's, or a worker's to
    merge later) and the node's per-segment slots, which only this
    instance writes.  An unpartitioned table's root OID is no leaf."""
    leaves = leaf_oids if table.is_partitioned else ()
    tracker.record(table.name, leaves, rows)
    node = base.node(op)
    node.table_name = table.name
    node.rows_scanned[segment] += rows
    if leaves:
        if node.partitions_total is None:
            node.partitions_total = table.num_leaves
            base._table_totals[table.name] = table.num_leaves
        node.partitions[segment].update(leaves)


def _count_motion(
    node: NodeMetrics, kind: str, target_segment: int, rows: int, nbytes: int
) -> None:
    node.motion_kind = kind
    node.rows_by_target[target_segment] += rows
    node.bytes_moved += nbytes


def _counted_batch_iter(node: NodeMetrics, segment: int, inner):
    rows_out = node.rows_out
    for batch in inner:
        rows_out[segment] += len(batch)
        yield batch


def _timed_batch_iter(node: NodeMetrics, segment: int, inner):
    rows_out = node.rows_out
    time_s = node.time_s
    perf = time.perf_counter
    while True:
        start = perf()
        try:
            batch = next(inner)
        except StopIteration:
            time_s[segment] += perf() - start
            return
        time_s[segment] += perf() - start
        rows_out[segment] += len(batch)
        yield batch
