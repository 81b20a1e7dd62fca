"""The concurrent serving front end: sessions -> admission -> shared pool.

:class:`QueryServer` ties the serving tier together.  A submit runs:

1. ``span("queue")`` — :meth:`AdmissionController.acquire` blocks in the
   bounded fair-share queue (or sheds with
   :class:`~repro.errors.ServerOverloaded`);
2. ``span("admit")`` — the query executes via
   :meth:`~repro.engine.Database.sql` with the *session's* isolated
   defaults, fault injector and a per-query
   :class:`~repro.resilience.CancelToken`, its segment instances
   multiplexed onto the shared :class:`QueryScheduler` pool at the
   slot's (possibly degraded) worker width;
3. the slot is released (dispatching queued work) and the query's
   serving summary is recorded into its metrics export (schema v6
   ``serving`` section) plus the server-wide :class:`ServingStats`.

Everything the tier does is observable: ``stats_dict()`` for one
structured snapshot, ``to_prometheus()`` for ``repro_serving_*``
families (admission counters, queue/inflight gauges, per-session p50/p99
latency).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque

from ..errors import ReproError, ServerOverloaded
from ..obs import trace as obs_trace
from ..resilience.guardrails import CancelToken
from ..settings import QuerySettings, resolve
from .admission import AdmissionController, ServingConfig
from .scheduler import QueryScheduler
from .session import Session

__all__ = ["QueryServer", "ServingStats"]

#: per-session latency reservoir size (newest samples win)
_RESERVOIR = 1024


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(fraction * (len(sorted_values) - 1)))))
    return sorted_values[rank]


class ServingStats:
    """Per-session latency/throughput accounting for the server."""

    def __init__(self):
        self._lock = threading.Lock()
        self._latencies: dict[str, deque[float]] = {}
        self._queries: dict[str, int] = {}

    def record(self, session_name: str, latency_s: float) -> None:
        with self._lock:
            reservoir = self._latencies.get(session_name)
            if reservoir is None:
                reservoir = deque(maxlen=_RESERVOIR)
                self._latencies[session_name] = reservoir
            reservoir.append(latency_s)
            self._queries[session_name] = (
                self._queries.get(session_name, 0) + 1
            )

    def session_summary(self, session_name: str) -> dict:
        with self._lock:
            sample = sorted(self._latencies.get(session_name, ()))
            count = self._queries.get(session_name, 0)
        return {
            "queries": count,
            "p50_s": round(_percentile(sample, 0.50), 6),
            "p99_s": round(_percentile(sample, 0.99), 6),
        }

    def to_dict(self) -> dict:
        with self._lock:
            names = list(self._queries)
        return {name: self.session_summary(name) for name in sorted(names)}


class QueryServer:
    """Admission-controlled, fair-share concurrent query front end."""

    def __init__(self, db, config: ServingConfig | None = None):
        self.db = db
        self.config = config if config is not None else ServingConfig()
        self.admission = AdmissionController(self.config)
        self.scheduler = QueryScheduler(self.config.pool_workers)
        self.stats = ServingStats()
        self._lock = threading.Lock()
        self._sessions: dict[int, Session] = {}
        self._next_id = 1
        self._closed = False

    # -- sessions -------------------------------------------------------------

    def session(self, **settings) -> Session:
        """Open one isolated :class:`~repro.serving.Session`."""
        with self._lock:
            if self._closed:
                raise ReproError("server is closed")
            session = Session(self, self._next_id, **settings)
            self._next_id += 1
            self._sessions[session.session_id] = session
            return session

    def sessions(self) -> list[Session]:
        with self._lock:
            return list(self._sessions.values())

    def _discard(self, session: Session) -> None:
        with self._lock:
            self._sessions.pop(session.session_id, None)

    # -- the submit path ------------------------------------------------------

    def submit(
        self,
        session: Session,
        query: str,
        params=None,
        settings: QuerySettings | None = None,
        cancel: CancelToken | None = None,
        **overrides,
    ):
        """Run one statement for ``session`` through admission control,
        as the session's settings say (``settings`` / keyword
        ``overrides`` apply to this call only).

        Raises :class:`~repro.errors.ServerOverloaded` when shed; any
        executor/guardrail error propagates unchanged (typed).  On
        success the result's metrics carry a ``serving`` section with
        the grant's queue wait and (possibly degraded) worker width.
        """
        if self._closed:
            raise ReproError("server is closed")
        if session.closed:
            raise ReproError(f"session {session.name!r} is closed")
        settings = resolve(session.settings, settings, overrides)
        session.submitted += 1
        requested = settings.workers
        started = time.perf_counter()
        # Register with the live activity registry BEFORE admission, so a
        # statement waiting in the run queue is already visible (phase
        # "queue") in \activity; db.sql() completes the record, except on
        # the shed/pre-admission paths where it is never reached.
        token = cancel if cancel is not None else CancelToken()
        activity = self.db.live.begin(
            query, session=session.name, workers=requested, cancel=token
        )
        try:
            with obs_trace.feed_phases(activity.enter_phase):
                try:
                    with obs_trace.span(
                        "queue", session=session.name, workers=requested
                    ):
                        slot = self.admission.acquire(
                            session.session_id, requested
                        )
                except ServerOverloaded:
                    session.rejected += 1
                    raise
                activity.queued_seconds = slot.queued_seconds
                activity.workers = slot.effective_workers
                session._register(token)
                if slot.degraded:
                    settings = dataclasses.replace(
                        settings, workers=slot.effective_workers
                    )
                segment_scheduler = self.scheduler.segment_scheduler(
                    slot.effective_workers
                )
                try:
                    with obs_trace.span(
                        "admit",
                        session=session.name,
                        workers=slot.effective_workers,
                        degraded=slot.degraded,
                    ):
                        result = self.db.sql(
                            query,
                            params=params,
                            settings=settings,
                            cancel=token,
                            faults=session.faults,
                            scheduler=segment_scheduler,
                            activity=activity,
                        )
                finally:
                    segment_scheduler.close()
                    session._unregister(token)
                    self.admission.release(slot)
        except BaseException as error:
            # db.sql() completes the activity for every error it saw; the
            # shed / pre-admission failures never reach it.
            if self.db.live.activity.get(activity.query_id) is not None:
                self.db.live.complete(activity, error=error)
            raise
        latency = time.perf_counter() - started
        session.admitted += 1
        self.stats.record(session.name, latency)
        snapshot = self.admission.stats()
        result.metrics.record_serving(
            {
                "session": session.name,
                "queued_seconds": round(slot.queued_seconds, 6),
                "requested_workers": slot.requested_workers,
                "effective_workers": slot.effective_workers,
                "degraded": slot.degraded,
                "queue_depth": snapshot["queue_depth"],
                "inflight": snapshot["inflight"],
                "admitted_total": snapshot["admitted"],
                "rejected_total": sum(snapshot["rejected"].values()),
            }
        )
        return result

    # -- observability --------------------------------------------------------

    def stats_dict(self) -> dict:
        """One structured snapshot of the whole serving tier."""
        snapshot = self.admission.stats()
        with self._lock:
            open_sessions = {
                s.name: {
                    "submitted": s.submitted,
                    "admitted": s.admitted,
                    "rejected": s.rejected,
                    "inflight": s.inflight,
                }
                for s in self._sessions.values()
            }
        return {
            "config": self.config.to_dict(),
            "admission": snapshot,
            "open_sessions": open_sessions,
            "latency": self.stats.to_dict(),
            "pool_workers": self.scheduler.pool_workers,
            "closed": self._closed,
        }

    def prom_families(self) -> list:
        """The ``repro_serving_*`` families for the shared exporter
        (:mod:`repro.obs.prom`)."""
        from ..obs.prom import MetricFamily

        snapshot = self.admission.stats()
        rejected = MetricFamily(
            "repro_serving_rejected_total",
            "counter",
            "Queries shed by admission control",
        )
        for reason in sorted(snapshot["rejected"]):
            rejected.add(snapshot["rejected"][reason], reason=reason)
        with self._lock:
            sessions = list(self._sessions.values())
        session_inflight = MetricFamily(
            "repro_serving_session_inflight",
            "gauge",
            "Queries in flight per session",
        )
        for session in sorted(sessions, key=lambda s: s.name):
            session_inflight.add(session.inflight, session=session.name)
        latency = MetricFamily(
            "repro_serving_session_latency_seconds",
            "gauge",
            "Per-session query latency quantiles",
        )
        for name, summary in self.stats.to_dict().items():
            for quantile, key in (("0.5", "p50_s"), ("0.99", "p99_s")):
                latency.add(summary[key], session=name, quantile=quantile)
        return [
            MetricFamily(
                "repro_serving_admitted_total",
                "counter",
                "Queries admitted past admission control",
            ).add(snapshot["admitted"]),
            rejected,
            MetricFamily(
                "repro_serving_degraded_total",
                "counter",
                "Grants clamped below their requested worker width",
            ).add(snapshot["degraded_grants"]),
            MetricFamily(
                "repro_serving_queued_seconds_total",
                "counter",
                "Total time admitted queries waited in the run queue",
            ).add(round(snapshot["queued_seconds_total"], 6)),
            MetricFamily(
                "repro_serving_queue_depth",
                "gauge",
                "Queries currently waiting in the run queue",
            ).add(snapshot["queue_depth"]),
            MetricFamily(
                "repro_serving_inflight",
                "gauge",
                "Queries currently executing",
            ).add(snapshot["inflight"]),
            MetricFamily(
                "repro_serving_pool_workers",
                "gauge",
                "Width of the shared segment-worker pool",
            ).add(self.scheduler.pool_workers),
            MetricFamily(
                "repro_serving_sessions_open",
                "gauge",
                "Serving sessions currently open",
            ).add(len(sessions)),
            session_inflight,
            latency,
        ]

    def to_prometheus(self) -> str:
        """``repro_serving_*`` families (same text-exposition style as
        the stats-store and cache exporters)."""
        from ..obs.prom import render

        return render(self.prom_families())

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shed queued work, cancel in-flight queries, drain the pool."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions.values())
        self.admission.close()
        for session in sessions:
            session.closed = True
            session.cancel()
        self.scheduler.close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"QueryServer({len(self._sessions)} sessions, "
            f"{self.config!r}, {state})"
        )
