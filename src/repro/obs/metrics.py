"""The per-query metrics collector.

One :class:`MetricsCollector` lives for one query execution.  It is
deliberately decoupled from the physical operator classes: the executor
registers the plan tree up front (capturing names, details and estimates),
and the iterators report into it through a handful of typed recording
methods.  Slice wall times are scoped per slice.

Every counter slot belongs to one (slice, segment) instance: rows out,
loops, wall time, leaves opened and rows scanned per (node, segment);
Motion rows per (node, producer, target) and Motion bytes per (node,
producer); selector pushes per (selector, segment).  A statement runs on
one thread, so every slot has one writer and is written lock-free, and
nothing is merged.  Totals are sums over slots, computed on read; the
per-table scan summary (:class:`ScanTracker`) is derived from the scan
nodes once, when the statement finishes.

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
import time
from functools import reduce
from operator import or_
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
#: v12: the "durability" section drops "wal_truncations" (a checkpoint
#: always truncates the WAL) and the resync replay counter (a stale copy
#: is rebuilt from its survivor, not replayed from the WAL) — see
#: docs/durability.md; every other v11 field is unchanged.
#: v13: intra-query threads are gone — the "parallel" section drops
#: "workers", "mode" and "overlap", and the "serving" section drops
#: "requested_workers", "effective_workers" and "degraded" — see
#: docs/parallelism.md; every other v12 field is unchanged.
METRICS_SCHEMA_VERSION = 13


class ScanTracker:
    """The statement's per-table scan summary, derived from the scan nodes'
    per-segment slots (see :attr:`MetricsCollector.tracker`).  Read-only:
    scans record into their node only.

    ``tables`` maps every scanned table's name to its descriptor, ``rows``
    to the rows read from it, and ``partitions`` to the leaf mask of the
    leaves opened (0 for an unpartitioned table).
    """

    def __init__(self, nodes) -> None:
        self.tables: dict[str, Any] = {}
        self.partitions: dict[str, int] = {}
        self.rows: dict[str, int] = {}
        # C-level reads only (sum, reduce), so a read racing the
        # statement's own scans sees each slot whole
        for node in nodes:
            table = node.table
            if table is None:
                continue
            name = table.name
            self.tables[name] = table
            self.rows[name] = self.rows.get(name, 0) + sum(node.rows_scanned)
            self.partitions[name] = self.partitions.get(name, 0) | node.opened
        self.rows_scanned = sum(self.rows.values())
        #: leaves of the scanned tables (an unpartitioned one has none):
        #: what the scans would open without elimination
        self.partitions_eligible = sum(table.num_leaves for table in self.tables.values())

    def partitions_scanned(self, table_name: str) -> int:
        return self.partitions.get(table_name, 0).bit_count()

    def total_partitions_scanned(self) -> int:
        return sum(mask.bit_count() for mask in self.partitions.values())


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
        "table",
        "partitions",
        "rows_scanned",
        "motion_kind",
        "rows_sent",
        "bytes_sent",
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
        self.table = None
        #: leaf mask of the leaves scanned (:mod:`repro.catalog.catalog`),
        #: per segment
        self.partitions = [0] * num_segments
        self.rows_scanned = [0] * num_segments
        # motion-specific
        self.motion_kind: str | None = None
        #: rows routed, per (producer, target): ``producer * n + target``
        self.rows_sent = [0] * (num_segments * num_segments)
        #: bytes sent, per producer
        self.bytes_sent = [0] * num_segments
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
    def table_name(self) -> str | None:
        return None if self.table is None else self.table.name

    @property
    def opened(self) -> int:
        """The leaf mask of the leaves scanned on any segment."""
        return reduce(or_, self.partitions)

    @property
    def partitions_scanned(self) -> int:
        return self.opened.bit_count()

    @property
    def partitions_total(self) -> int | None:
        table = self.table
        return table.num_leaves if table is not None and table.is_partitioned else None

    @property
    def total_rows_scanned(self) -> int:
        return sum(self.rows_scanned)

    @property
    def rows_moved(self) -> int:
        return sum(self.rows_sent)

    @property
    def rows_by_target(self) -> list[int]:
        n = len(self.bytes_sent)
        return [sum(self.rows_sent[target::n]) for target in range(n)]

    @property
    def bytes_moved(self) -> int:
        return sum(self.bytes_sent)

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
                "partition_oids": self.table.leaf_oids(self.opened),
                "rows_scanned": self.total_rows_scanned,
            }
        if self.is_motion:
            node["motion"] = {
                "kind": self.motion_kind,
                "rows_moved": self.rows_moved,
                "rows_by_target": self.rows_by_target,
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
        self.nodes: list[NodeMetrics] = []
        self.elapsed_seconds = 0.0
        # No lock: a statement runs on one thread, which owns every
        # node, selector entry and log below
        # segment instances (schema v4)
        #: batch width the query ran with (schema v9; 1 = row-at-a-time)
        self.batch_size = DEFAULT_BATCH_SIZE
        #: one entry per (slice, segment) instance: its wall seconds
        self.instances: list[dict] = []
        #: part_scan_id -> {"mode", "total", "selected" per-segment leaf
        #: masks, "pushed" per-segment pair counts}
        self.selectors: dict[int, dict] = {}
        #: one entry per slice: {"id", "label", "seconds",
        #: "segments_dispatched"}
        self.slices: list[dict] = []
        #: segments that ran an instance of any sending slice (schema v10)
        self._dispatched_segments: set[int] = set()
        #: the per-table scan summary, derived once by :meth:`finish`
        self._scans: ScanTracker | None = None
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
        #: QueryServer submit summary: queue wait, admission counters
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
            found = self._by_op[id(op)] = NodeMetrics(
                len(self.nodes),
                getattr(op, "name", type(op).__name__),
                self.num_segments,
                detail=op.describe() if hasattr(op, "describe") else "",
            )
            self.nodes.append(found)
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

    def record_scan(self, op, table, segment: int, opened: int, rows: int) -> None:
        """One batch a (Dynamic/Leaf)Scan emitted: its ``rows`` and the
        leaf mask of leaves opened so far, empty leaves included
        (``rows=0``: empty leaves opened after the last batch).  An
        unpartitioned table opens no leaf (mask 0)."""
        node = self.node(op)
        node.table = table
        node.rows_scanned[segment] += rows
        node.partitions[segment] |= opened

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
        self, part_scan_id: int, segment: int, mask: int, pairs: int
    ) -> None:
        """The leaf mask pushed through one ``partition_propagation`` call
        (Table 1), standing for ``pairs`` (row, leaf) selections."""
        entry = self._selector(part_scan_id)
        entry["selected"][segment] |= mask
        entry["pushed"][segment] += pairs

    def _selector(self, part_scan_id: int) -> dict:
        entry = self.selectors.get(part_scan_id)
        if entry is None:
            entry = self.selectors[part_scan_id] = {
                "mode": None,
                "total": None,
                "selected": [0] * self.num_segments,
                "pushed": [0] * self.num_segments,
            }
        return entry

    def selector_summary(self, part_scan_id: int) -> dict | None:
        entry = self.selectors.get(part_scan_id)
        if entry is None:
            return None
        return {
            "part_scan_id": part_scan_id,
            "mode": entry["mode"],
            "partitions_selected": reduce(or_, entry["selected"]).bit_count(),
            "partitions_total": entry["total"],
            "oids_pushed": sum(entry["pushed"]),
        }

    # -- motions ------------------------------------------------------------

    def record_motion_batch(
        self, op, kind: str, segment: int, target: int, rows: int, nbytes: int
    ) -> None:
        """``rows`` rows the producer on ``segment`` routed by a Motion to
        segment ``target``, sized ``nbytes`` by the Motion byte measure
        (docs/observability.md): ``rows`` times the bytes of one row of
        the Motion's layout."""
        node = self.node(op)
        node.motion_kind = kind
        node.rows_sent[segment * self.num_segments + target] += rows
        node.bytes_sent[segment] += nbytes

    # -- slices -------------------------------------------------------------

    def record_slice(
        self, slice_id: int, label: str, seconds: float, segments
    ) -> None:
        """One finished slice; ``segments`` are the ones it ran on (all of
        them, or the direct-dispatch targets of a sending slice)."""
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
        """The statement ran to the end: derive its per-table scan
        summary, once."""
        self.elapsed_seconds = elapsed_seconds
        self._scans = ScanTracker(self.nodes)

    # -- segment instances (schema v4) ----------------------------------------

    def record_settings(self, settings) -> None:
        """The batch width (schema v9; 1 = one row per batch) the query
        ran with."""
        self.batch_size = settings.batch_size

    def record_instance(
        self, slice_id: int, segment: int, seconds: float
    ) -> None:
        """Wall time of one (slice, segment) instance."""
        self.instances.append(
            {"slice_id": slice_id, "segment": segment, "seconds": seconds}
        )

    def parallel_stats(self) -> dict:
        """The "parallel" section: the batch width and the wall time of
        each (slice, segment) instance, which run one after another in
        segment order."""
        instances = sorted(
            self.instances,
            key=lambda e: (e["slice_id"], e["segment"]),
        )
        return {
            "batch_size": self.batch_size,
            "instances": instances,
            "instance_busy_seconds": sum(e["seconds"] for e in instances),
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
        self.failovers.append({"segment": segment, "reason": reason})

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
    def tracker(self) -> ScanTracker:
        """The per-table scan summary: derived once by :meth:`finish`, and
        on each read before that (an in-flight ``/activity`` read)."""
        scans = self._scans
        return scans if scans is not None else ScanTracker(self.nodes)

    @property
    def total_rows_scanned(self) -> int:
        return self.tracker.rows_scanned

    @property
    def partitions_eligible(self) -> int:
        """Leaves of the partitioned tables the statement opened any of:
        what its scans would open without elimination."""
        return self.tracker.partitions_eligible

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
        scans = self.tracker
        stats: dict[str, dict] = {}
        for name, rows in sorted(scans.rows.items()):
            table, mask = scans.tables[name], scans.partitions[name]
            stats[name] = {
                "partitions_scanned": mask.bit_count(),
                "partitions_total": table.num_leaves if table.is_partitioned else None,
                "partition_oids": table.leaf_oids(mask),
                "rows_scanned": rows,
            }
        return stats

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
