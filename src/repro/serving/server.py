"""The concurrent serving front end: sessions -> admission -> execution.

:class:`QueryServer` ties the serving tier together.  A submit runs:

1. ``span("queue")`` — :meth:`AdmissionController.acquire` blocks in the
   bounded fair-share queue (or sheds with
   :class:`~repro.errors.ServerOverloaded`);
2. ``span("admit")`` — the query executes via
   :meth:`~repro.engine.Database.sql` with the *session's* isolated
   defaults, fault injector and a per-query
   :class:`~repro.resilience.CancelToken`, on the submitting thread (each
   session or connection brings its own, so statements overlap; a
   statement's segment instances run in segment order on it);
3. the slot is released (dispatching queued work) and the query's
   serving summary is recorded into its metrics export (schema v6
   ``serving`` section) plus the server-wide :class:`ServingStats`.

Everything the tier does is observable through ``stats_dict()``, one
structured snapshot: admission counters, queue/inflight gauges,
per-session counters and p50/p99 latency.  The ``repro_serving_*``
Prometheus families (:data:`repro.obs.prom.FAMILIES`) read that dict.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..errors import ReproError, ServerOverloaded
from ..obs import trace as obs_trace
from ..resilience.guardrails import CancelToken
from ..settings import QuerySettings, resolve
from .admission import AdmissionController, ServingConfig
from .session import Session

__all__ = ["QueryServer", "ServingStats"]

#: per-session latency reservoir size (newest samples win)
_RESERVOIR = 1024
#: the per-session counters ``stats_dict()["open_sessions"]`` sums by name
_SESSION_COUNTERS = ("submitted", "admitted", "rejected", "inflight")


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
        the grant's queue wait and an admission-counter snapshot.
        """
        if self._closed:
            raise ReproError("server is closed")
        if session.closed:
            raise ReproError(f"session {session.name!r} is closed")
        settings = resolve(session.settings, settings, overrides)
        session.submitted += 1
        started = time.perf_counter()
        # Register with the live activity registry BEFORE admission, so a
        # statement waiting in the run queue is already visible (phase
        # "queue") in \activity; db.sql() completes the record, except on
        # the shed/pre-admission paths where it is never reached.
        token = cancel if cancel is not None else CancelToken()
        activity = self.db.live.begin(
            query, session=session.name, cancel=token
        )
        try:
            with obs_trace.feed_phases(activity.enter_phase):
                try:
                    with obs_trace.span("queue", session=session.name):
                        slot = self.admission.acquire(session.session_id)
                except ServerOverloaded:
                    session.rejected += 1
                    raise
                activity.queued_seconds = slot.queued_seconds
                session._register(token)
                try:
                    with obs_trace.span("admit", session=session.name):
                        result = self.db.sql(
                            query,
                            params=params,
                            settings=settings,
                            cancel=token,
                            faults=session.faults,
                            activity=activity,
                        )
                finally:
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
        result.metrics.serving_summary = {
            "session": session.name,
            "queued_seconds": round(slot.queued_seconds, 6),
            "queue_depth": snapshot["queue_depth"],
            "inflight": snapshot["inflight"],
            "admitted_total": snapshot["admitted"],
            "rejected_total": sum(snapshot["rejected"].values()),
        }
        return result

    # -- observability --------------------------------------------------------

    def stats_dict(self) -> dict:
        """One structured snapshot of the whole serving tier.  Open
        sessions' counters are summed per session name, the key the
        per-session latency uses; ``sessions_open`` counts sessions."""
        snapshot = self.admission.stats()
        with self._lock:
            sessions = list(self._sessions.values())
        open_sessions: dict[str, dict] = {}
        for session in sessions:
            counters = open_sessions.setdefault(
                session.name, dict.fromkeys(_SESSION_COUNTERS, 0)
            )
            for field in _SESSION_COUNTERS:
                counters[field] += getattr(session, field)
        return {
            "config": self.config.to_dict(),
            "admission": snapshot,
            "open_sessions": open_sessions,
            "sessions_open": len(sessions),
            "latency": self.stats.to_dict(),
            "closed": self._closed,
        }

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shed queued work and cancel in-flight queries."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions.values())
        self.admission.close()
        for session in sessions:
            session.closed = True
            session.cancel()

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
