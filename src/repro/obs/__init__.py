"""Observability: metrics, query-lifecycle tracing and cumulative stats.

The paper's whole evaluation (Section 4) is built on runtime observables —
partitions scanned per DynamicScan, rows moved per Motion, per-slice wall
time.  This package makes those observables first class:

* :class:`MetricsCollector` — per-query collector threaded through
  :class:`~repro.executor.context.ExecContext`; every plan node gets
  per-segment row/loop/time counters, scans get partition counters,
  Motions get rows/bytes-moved counters, and each PartitionSelector
  records its elimination mode (static vs dynamic) and selectivity.
* :func:`render_explain_analyze` — the physical plan annotated with
  actuals next to the optimizer's estimates (``EXPLAIN ANALYZE``).
* :mod:`repro.obs.trace` — span-based query-lifecycle tracing
  (parse → bind → optimize → place_partition_selectors → execute, with
  per-slice child spans), off by default and free when off.
* :mod:`repro.obs.opt_events` — typed Cascades search events (groups,
  rule firings, enforcer decisions, costed winners) emitted by the
  optimizer into the active trace; rendered by ``EXPLAIN (TRACE)``.
* :class:`QueryStatsStore` — process-lifetime cumulative per-fingerprint
  query statistics with JSON and Prometheus-text exports (``db.stats()``
  and the CLI's ``\\stats``).
* :mod:`repro.obs.live` — the live operations hub (``db.live``): the
  in-flight query activity registry (``pg_stat_activity``-style, with
  cancel-by-id), bounded latency/queue-wait/scan-ratio histograms,
  ticker-sampled gauge series and the structured slow-query log
  (:mod:`repro.obs.slowlog`).
* :mod:`repro.obs.prom` — the one shared Prometheus text-exposition
  exporter every subsystem's families render through
  (``\\stats prometheus`` and ``GET /metrics``).
* ``MetricsCollector.to_json()`` — a stable JSON export consumed by the
  CLI, the benchmarks and external tooling (schema documented in
  ``docs/observability.md``).
"""

from .live import ActivityRegistry, GaugeSeries, Histogram, LiveTelemetry
from .metrics import MetricsCollector, NodeMetrics, ScanTracker
from .opt_events import OptimizerEventLog
from .prom import MetricFamily, export_prometheus
from .render import render_explain_analyze, render_explain_trace
from .slowlog import SlowQueryLog
from .stats_store import QueryStatsStore, fingerprint
from .trace import Span, Tracer, activate, feed_phases

__all__ = [
    "ActivityRegistry",
    "GaugeSeries",
    "Histogram",
    "LiveTelemetry",
    "MetricFamily",
    "MetricsCollector",
    "NodeMetrics",
    "OptimizerEventLog",
    "QueryStatsStore",
    "ScanTracker",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "activate",
    "export_prometheus",
    "feed_phases",
    "fingerprint",
    "render_explain_analyze",
    "render_explain_trace",
]
