"""Live operations telemetry: what the engine is doing *right now* and
how it has behaved *over time*.

The per-query collectors (:mod:`repro.obs.metrics`) and the cumulative
store (:mod:`repro.obs.stats_store`) answer "what did that statement
do?"; this module answers the two operational questions they cannot:

* **Right now** — :class:`ActivityRegistry`, a ``pg_stat_activity``-style
  table of in-flight queries.  Every statement the engine runs registers
  a :class:`QueryActivity` record whose *current phase* is fed from the
  existing lifecycle span names (via :func:`repro.obs.trace.feed_phases`
  — per phase/slice, never per row) and whose rows/partitions-so-far are
  *pulled* from the query's own :class:`~repro.obs.metrics
  .MetricsCollector` at read time, so the running query pays nothing for
  being observable.  Records carry the query's
  :class:`~repro.resilience.CancelToken` when it has one, so
  ``cancel(query_id)`` terminates exactly that query.
* **Over time** — fixed-log-bucket :class:`Histogram` families (query
  latency, admission queue wait, partition scanned-vs-eligible ratio)
  and bounded ring-buffer :class:`GaugeSeries` (queue depth, in-flight,
  resyncing segments, cache hit rate, ...) sampled by a background
  ticker thread.  All state is O(buckets + ring capacity): the hub's
  memory never grows with query count.

:class:`LiveTelemetry` ties both together and owns the
:class:`~repro.obs.slowlog.SlowQueryLog`.  :meth:`LiveTelemetry.complete`
is where a statement ends: it fixes the finished :class:`QueryActivity`
once (elapsed time, error, rows, partitions scanned and eligible), and
the histograms, the slow log, the cumulative stats store and the metrics
export's ``live`` section all read those values.  Everything exports as
:meth:`LiveTelemetry.to_dict` — the ``/activity`` JSON body, which the
``repro_live_*`` Prometheus families (:data:`repro.obs.prom.FAMILIES`)
read.  One hub lives on each :class:`~repro.engine.Database`
(``db.live``).
"""

from __future__ import annotations

import datetime
import itertools
import json
import math
import threading
import time
from collections import deque
from typing import Callable

from ..resilience.guardrails import CancelToken
from .slowlog import SlowQueryLog
from .stats_store import COUNTERS, fingerprint

__all__ = [
    "ActivityRegistry",
    "GaugeSeries",
    "Histogram",
    "LiveTelemetry",
    "QueryActivity",
    "linear_buckets",
    "log_buckets",
]

#: per-record cap on the phase log (a query visits one phase per
#: lifecycle stage plus one per slice; deep plans stay bounded)
_MAX_PHASE_LOG = 256
#: query text kept in snapshots (full text stays in the record)
_SNAPSHOT_QUERY_CHARS = 200


def log_buckets(
    start: float = 0.001, factor: float = 2.0, count: int = 20
) -> list[float]:
    """Geometric bucket upper bounds: ``start * factor**i``.

    The defaults span 1 ms .. ~524 s — wider than any simulated query —
    in 20 buckets, the classic Prometheus latency layout."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    return [start * factor**i for i in range(count)]


def linear_buckets(start: float, width: float, count: int) -> list[float]:
    """Arithmetic bucket upper bounds: ``start + width*i``."""
    if width <= 0 or count < 1:
        raise ValueError("need width > 0, count >= 1")
    return [start + width * i for i in range(count)]


class Histogram:
    """Fixed-bucket histogram with O(1) observe and bounded memory.

    ``bounds`` are ascending upper bounds; observations above the last
    bound land in an implicit overflow bucket.  Quantiles are
    nearest-rank over the bucket counts — the answer is the upper bound
    of the bucket holding the target rank (the overflow bucket answers
    with the maximum observed value), which is exactly the resolution
    Prometheus consumers get from ``histogram_quantile``.
    """

    def __init__(self, bounds: list[float]):
        if not bounds or sorted(bounds) != list(bounds):
            raise ValueError("bounds must be non-empty and ascending")
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            index = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    index = i
                    break
            self._counts[index] += 1
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def bucket_counts(self) -> list[int]:
        """Non-cumulative per-bucket counts (overflow bucket last)."""
        with self._lock:
            return list(self._counts)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile (see class docs); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = max(1, math.ceil(q * self.count))
            cumulative = 0
            for bound, bucket in zip(self.bounds, self._counts):
                cumulative += bucket
                if cumulative >= rank:
                    return bound
            return self.max if self.max is not None else self.bounds[-1]

    def percentiles(self) -> dict:
        return {
            "p50_s": self.quantile(0.50),
            "p95_s": self.quantile(0.95),
            "p99_s": self.quantile(0.99),
        }

    def to_dict(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            count, total = self.count, self.sum
        summary = {
            "bounds": list(self.bounds),
            "counts": counts,
            "count": count,
            "sum": total,
            "min": self.min,
            "max": self.max,
        }
        summary.update(self.percentiles())
        return summary


class GaugeSeries:
    """A bounded time series of one sampled gauge.

    Samples are ``(offset_s, value)`` pairs relative to the series'
    creation, in a ring buffer — memory is fixed whatever the uptime.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._origin = time.monotonic()
        self._samples: deque[tuple[float, float]] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def sample(self, value: float) -> None:
        with self._lock:
            self._samples.append(
                (time.monotonic() - self._origin, float(value))
            )

    @property
    def last(self) -> float | None:
        with self._lock:
            return self._samples[-1][1] if self._samples else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def to_dict(self, limit: int | None = None) -> dict:
        with self._lock:
            samples = list(self._samples)
        if limit is not None:
            samples = samples[-limit:]
        return {
            "capacity": self.capacity,
            "samples": [
                {"offset_s": round(offset, 3), "value": value}
                for offset, value in samples
            ],
            "last": samples[-1][1] if samples else None,
        }


class QueryActivity:
    """One in-flight query's live record (a ``pg_stat_activity`` row).

    The record itself is nearly write-free while the query runs: the
    lifecycle span hook updates ``phase`` once per phase/slice, the
    executor attaches its :class:`~repro.obs.metrics.MetricsCollector`
    once, and everything else — rows produced, partitions opened,
    elapsed time — is computed from those at :meth:`snapshot` time.
    :meth:`finish` fixes those values once the statement ends, and the
    finished record is what every completion consumer reads.
    """

    __slots__ = (
        "query_id",
        "query",
        "session",
        "phase",
        "phase_log",
        "queued_seconds",
        "cancel_token",
        "metrics",
        "started",
        "started_at",
        "error",
        *COUNTERS,
        "_elapsed",
        "_fingerprint",
    )

    def __init__(
        self,
        query_id: int,
        query: str,
        session: str | None = None,
        cancel: CancelToken | None = None,
    ):
        self.query_id = query_id
        self.query = query
        self.session = session
        self.phase = "submitted"
        #: (offset_s, phase) transitions, bounded; feeds slow-log timings
        self.phase_log: list[tuple[float, str]] = []
        self.queued_seconds: float | None = None
        self.cancel_token = cancel
        #: the execution's MetricsCollector once the executor starts
        self.metrics = None
        self.started = time.perf_counter()
        self.started_at = datetime.datetime.now(datetime.timezone.utc)
        self.error: str | None = None
        #: the outcome (``rows`` = rows returned), fixed by :meth:`finish`
        for name in COUNTERS:
            setattr(self, name, 0)
        self._elapsed: float | None = None
        self._fingerprint: str | None = None

    # -- hooks (engine / executor / serving) ----------------------------------

    def enter_phase(self, name: str) -> None:
        """Fed by :func:`repro.obs.trace.feed_phases` — one call per
        lifecycle span, never per row."""
        self.phase = name
        if len(self.phase_log) < _MAX_PHASE_LOG:
            self.phase_log.append(
                (time.perf_counter() - self.started, name)
            )

    def adopt_cancel(self, token: CancelToken | None) -> None:
        if token is not None:
            self.cancel_token = token

    def finish(
        self, error: BaseException | str | None, rows: int | None
    ) -> None:
        """Fix the finished record once: elapsed time, error and the
        progress counters as they ended (``rows`` = rows returned, when
        the statement produced a result)."""
        elapsed = time.perf_counter() - self.started
        for name, value in self._progress().items():
            setattr(self, name, value)
        if rows is not None:
            self.rows = rows
        self._elapsed = elapsed
        self.error = (
            error
            if isinstance(error, str) or error is None
            else type(error).__name__
        )
        self.phase = "failed" if error is not None else "done"

    # -- reads ----------------------------------------------------------------

    @property
    def elapsed_seconds(self) -> float:
        """Wall time so far; fixed once the record is finished."""
        if self._elapsed is not None:
            return self._elapsed
        return time.perf_counter() - self.started

    def _progress(self) -> dict[str, int]:
        """The :data:`~repro.obs.stats_store.COUNTERS` so far (``rows`` =
        rows produced): fixed once finished, else pulled from the running
        query's collector."""
        metrics = self.metrics
        if self._elapsed is not None or metrics is None:
            return {name: getattr(self, name) for name in COUNTERS}
        scans = metrics.tracker
        return {
            "rows": metrics.nodes[0].actual_rows if metrics.nodes else 0,
            "rows_scanned": scans.rows_scanned,
            "partitions_scanned": scans.total_partitions_scanned(),
            "partitions_eligible": scans.partitions_eligible,
            "retries": metrics.retry_count,
            "failovers": metrics.failover_count,
        }

    @property
    def fingerprint(self) -> str:
        """Computed lazily (a lexer pass) so registration stays cheap."""
        if self._fingerprint is None:
            self._fingerprint = fingerprint(self.query)
        return self._fingerprint

    def phase_timings(self) -> list[dict]:
        """Per-phase wall times derived from the transition log (the last
        phase is open-ended and measured to now)."""
        timings: list[dict] = []
        for i, (offset, name) in enumerate(self.phase_log):
            end = (
                self.phase_log[i + 1][0]
                if i + 1 < len(self.phase_log)
                else self.elapsed_seconds
            )
            timings.append(
                {"phase": name, "seconds": round(max(0.0, end - offset), 6)}
            )
        return timings

    def snapshot(self) -> dict:
        """The ``/activity`` row: identity, phase, progress-so-far."""
        progress = self._progress()
        query = self.query
        if len(query) > _SNAPSHOT_QUERY_CHARS:
            query = query[: _SNAPSHOT_QUERY_CHARS - 3] + "..."
        return {
            "query_id": self.query_id,
            "session": self.session,
            "query": query,
            "fingerprint": self.fingerprint,
            "phase": self.phase,
            "elapsed_s": round(self.elapsed_seconds, 6),
            "queued_s": (
                round(self.queued_seconds, 6)
                if self.queued_seconds is not None
                else None
            ),
            "rows_produced": progress["rows"],
            "rows_scanned": progress["rows_scanned"],
            "partitions_scanned": progress["partitions_scanned"],
            "partitions_eligible": progress["partitions_eligible"],
            "started_at": self.started_at.isoformat(),
            "cancellable": self.cancel_token is not None,
        }

    def __repr__(self) -> str:
        return (
            f"QueryActivity(#{self.query_id}, {self.phase!r}, "
            f"{self.elapsed_seconds * 1000:.1f} ms)"
        )


class ActivityRegistry:
    """Thread-safe query_id -> :class:`QueryActivity` (in-flight only)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[int, QueryActivity] = {}
        self._ids = itertools.count(1)

    def register(
        self,
        query: str,
        session: str | None = None,
        cancel: CancelToken | None = None,
    ) -> QueryActivity:
        activity = QueryActivity(
            next(self._ids), query, session=session, cancel=cancel
        )
        with self._lock:
            self._entries[activity.query_id] = activity
        return activity

    def finish(self, activity: QueryActivity) -> None:
        with self._lock:
            self._entries.pop(activity.query_id, None)

    def get(self, query_id: int) -> QueryActivity | None:
        with self._lock:
            return self._entries.get(query_id)

    def cancel(self, query_id: int) -> bool:
        """Signal one in-flight query's cancel token; returns whether a
        cancellable query with that id was found.  The query raises
        :class:`~repro.errors.QueryCancelled` at its next guardrail
        checkpoint."""
        activity = self.get(query_id)
        if activity is None or activity.cancel_token is None:
            return False
        activity.cancel_token.cancel()
        return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> list[dict]:
        """All in-flight rows, oldest first (stable JSON order)."""
        with self._lock:
            entries = sorted(self._entries)
            records = [self._entries[qid] for qid in entries]
        return [record.snapshot() for record in records]

    def render(self) -> str:
        """The ``\\activity`` table."""
        rows = self.snapshot()
        if not rows:
            return "activity: no queries in flight"
        header = (
            f"{'id':>5}  {'session':<14} {'phase':<12} {'elapsed':>9}  "
            f"{'rows':>8}  {'parts k/N':>10}  query"
        )
        lines = [f"activity ({len(rows)} in flight):", header,
                 "-" * len(header)]
        for row in rows:
            parts = (
                f"{row['partitions_scanned']}/{row['partitions_eligible']}"
            )
            query = row["query"]
            if len(query) > 48:
                query = query[:45] + "..."
            lines.append(
                f"{row['query_id']:>5}  {(row['session'] or '-'):<14} "
                f"{row['phase'][:12]:<12} "
                f"{row['elapsed_s'] * 1000:>7.1f}ms  "
                f"{row['rows_produced']:>8}  {parts:>10}  {query}"
            )
        return "\n".join(lines)


class LiveTelemetry:
    """The hub: in-flight registry + time-series + slow log (see module
    docs).  One per :class:`~repro.engine.Database` (``db.live``)."""

    #: default ticker cadence
    TICK_INTERVAL_S = 0.5

    def __init__(self, slow_log: SlowQueryLog | None = None):
        self.activity = ActivityRegistry()
        #: end-to-end statement latency (queue wait included for serving
        #: queries)
        self.query_seconds = Histogram(log_buckets(0.0005, 2.0, 22))
        #: admission queue wait (serving queries only)
        self.queue_seconds = Histogram(log_buckets(0.0005, 2.0, 22))
        #: per-query partitions scanned / eligible (the paper's
        #: elimination effectiveness, as a distribution)
        self.scan_ratio = Histogram(linear_buckets(0.1, 0.1, 10))
        #: sampled gauge series, keyed by source name
        self.series: dict[str, GaugeSeries] = {}
        self._sources: dict[str, Callable[[], float | None]] = {}
        self.slow_log = slow_log if slow_log is not None else SlowQueryLog()
        self._lock = threading.Lock()
        self._ticker: threading.Thread | None = None
        self._ticker_stop = threading.Event()
        self.tick_interval_s = self.TICK_INTERVAL_S
        self.ticks = 0
        self.completed = 0
        self.failed = 0

    # -- query lifecycle -------------------------------------------------------

    def begin(
        self,
        query: str,
        session: str | None = None,
        cancel: CancelToken | None = None,
    ) -> QueryActivity:
        """Register one statement; returns its live record."""
        return self.activity.register(query, session=session, cancel=cancel)

    def complete(
        self,
        activity: QueryActivity,
        error: BaseException | str | None = None,
        rows: int | None = None,
    ) -> dict:
        """End a statement: unregister it, fix its finished record
        (:meth:`QueryActivity.finish`; ``rows`` = rows returned), and fold
        that record into the histograms and (maybe) the slow log; returns
        the metrics-export ``live`` section for the statement."""
        activity.finish(error, rows)
        self.activity.finish(activity)
        elapsed = activity.elapsed_seconds
        queued = activity.queued_seconds
        self.query_seconds.observe(elapsed)
        if queued is not None:
            self.queue_seconds.observe(queued)
        if activity.partitions_eligible:
            self.scan_ratio.observe(
                activity.partitions_scanned / activity.partitions_eligible
            )
        with self._lock:
            if error is not None:
                self.failed += 1
            else:
                self.completed += 1
        if self.slow_log.enabled:
            record = activity.snapshot()
            record["error"] = activity.error
            record["phase_timings"] = activity.phase_timings()
            self.slow_log.maybe_record(elapsed, record)
        return {
            "query_id": activity.query_id,
            "session": activity.session,
            "queued_seconds": None if queued is None else round(queued, 6),
            "elapsed_seconds": round(elapsed, 6),
            "phases": [name for _, name in activity.phase_log],
        }

    # -- sampled gauges --------------------------------------------------------

    def add_source(
        self,
        name: str,
        read: Callable[[], float | None],
        capacity: int = 512,
    ) -> None:
        """Register one gauge source; the ticker (and
        :meth:`sample_now`) polls it into a bounded series.  A source
        returning None is skipped for that tick (e.g. no server open)."""
        with self._lock:
            self._sources[name] = read
            self.series.setdefault(name, GaugeSeries(capacity))

    def sample_now(self) -> dict[str, float | None]:
        """Poll every source once (the ticker body; also callable
        directly for deterministic tests and scrape-time freshness)."""
        with self._lock:
            sources = list(self._sources.items())
        values: dict[str, float | None] = {}
        for name, read in sources:
            try:
                value = read()
            except Exception:  # noqa: BLE001 - a source must never kill the tick
                value = None
            values[name] = value
            if value is not None:
                self.series[name].sample(value)
        with self._lock:
            self.ticks += 1
        return values

    def start_ticker(self, interval_s: float | None = None) -> None:
        """Start (idempotently) the background sampling thread."""
        with self._lock:
            if interval_s is not None:
                self.tick_interval_s = interval_s
            if self._ticker is not None and self._ticker.is_alive():
                return
            self._ticker_stop = threading.Event()
            self._ticker = threading.Thread(
                target=self._tick_loop, name="repro-live-ticker", daemon=True
            )
            self._ticker.start()

    def stop_ticker(self) -> None:
        with self._lock:
            ticker, self._ticker = self._ticker, None
            self._ticker_stop.set()
        if ticker is not None and ticker.is_alive():
            ticker.join(timeout=2.0)

    @property
    def ticker_running(self) -> bool:
        ticker = self._ticker
        return ticker is not None and ticker.is_alive()

    def _tick_loop(self) -> None:
        stop = self._ticker_stop
        while not stop.wait(self.tick_interval_s):
            self.sample_now()

    # -- exports ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """The ``db.activity()`` / ``/activity`` body plus the
        time-series state."""
        with self._lock:
            completed, failed, ticks = self.completed, self.failed, self.ticks
            series_names = sorted(self.series)
        return {
            "in_flight": self.activity.snapshot(),
            "completed": completed,
            "failed": failed,
            "ticks": ticks,
            "histograms": {
                "query_seconds": self.query_seconds.to_dict(),
                "queue_seconds": self.queue_seconds.to_dict(),
                "partition_scan_ratio": self.scan_ratio.to_dict(),
            },
            "series": {
                name: self.series[name].to_dict(limit=64)
                for name in series_names
            },
            "slow_log": self.slow_log.to_dict(),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)
