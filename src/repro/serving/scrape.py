"""The HTTP scrape sidecar: ``/metrics``, ``/healthz``, ``/activity``.

The :class:`~repro.serving.netserver.NetServer` speaks the repro REPL's
line protocol; monitoring systems speak HTTP.  :class:`ScrapeServer` is
the bridge — a tiny stdlib :class:`~http.server.ThreadingHTTPServer`
bound next to the query listener, serving exactly three read-only
endpoints:

* ``GET /metrics`` — every Prometheus family the engine exports, from
  the one consolidated exporter (:func:`repro.obs.prom
  .export_prometheus`); each scrape first polls the live gauge sources
  (:meth:`~repro.obs.live.LiveTelemetry.sample_now`), so the series stay
  fresh even between ticker firings.
* ``GET /healthz`` — segment/mirror health from
  :class:`~repro.resilience.SegmentHealth` as JSON; the status code is
  the contract — 200 while every segment can serve reads (mirrors
  count), 503 once any segment is double-faulted.  A segment whose
  primary is down **or resyncing** (being rebuilt from its survivor before
  rejoining — see docs/durability.md) reports ``"degraded"``: reads
  still work off the mirror, but redundancy is reduced.
* ``GET /activity`` — the live registry
  (``pg_stat_activity``-style) as JSON: one row per in-flight query with
  phase, elapsed/queued time and rows/partitions so far.

The handler only reads; queries and cancellation stay on the query
protocols.  Start one with ``--serve --metrics-port N`` or
``db.serve_scrape(port)``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..obs.prom import export_prometheus

__all__ = ["ScrapeServer"]

#: the content type Prometheus expects for text exposition 0.0.4
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _ScrapeHandler(BaseHTTPRequestHandler):
    """One GET-only handler over the owning server's Database."""

    server_version = "repro-scrape"
    #: set per bound class by ScrapeServer
    db = None

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            self.db.live.sample_now()
            self._respond(200, export_prometheus(self.db), PROM_CONTENT_TYPE)
        elif path == "/healthz":
            status = self.db.health.status()
            # Every segment can serve reads while its primary OR mirror is
            # up; a double fault means data is unreachable -> 503.
            double_faults = [
                segment
                for segment, (primary, mirror) in enumerate(
                    zip(status["primaries"], status["mirrors"])
                )
                if primary != "up" and mirror != "up"
            ]
            # down_segments includes resyncing primaries: a copy that is
            # still being rebuilt is not yet serving reads,
            # so the instance reports degraded until the resync completes
            body = {
                "status": "unhealthy" if double_faults else (
                    "degraded" if status["down_segments"] else "ok"
                ),
                "double_faults": double_faults,
                **status,
            }
            self._respond_json(503 if double_faults else 200, body)
        elif path == "/activity":
            live = self.db.live
            self._respond_json(
                200,
                {
                    "in_flight": live.activity.snapshot(),
                    "completed": live.completed,
                    "failed": live.failed,
                    "slow_log": live.slow_log.to_dict(),
                },
            )
        else:
            self._respond_json(
                404,
                {"error": f"unknown path {path!r}",
                 "paths": ["/metrics", "/healthz", "/activity"]},
            )

    def _respond_json(self, code: int, body: dict) -> None:
        self._respond(
            code,
            json.dumps(body, sort_keys=True, default=str) + "\n",
            "application/json; charset=utf-8",
        )

    def _respond(self, code: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args) -> None:
        """Silence per-request stderr logging (scrapes are periodic)."""


class ScrapeServer:
    """The HTTP sidecar serving ``/metrics``, ``/healthz``, ``/activity``.

    Binding starts the listener thread and the database's live-telemetry
    ticker; :meth:`close` stops both (the ticker only if this server
    started it).
    """

    def __init__(self, db, host: str = "127.0.0.1", port: int = 0):
        self.db = db
        # a per-instance handler class so concurrent ScrapeServers (tests)
        # never share the db reference through the class attribute
        handler = type("_BoundScrapeHandler", (_ScrapeHandler,), {"db": db})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-scrape:{self.port}",
            daemon=True,
        )
        self._started_ticker = not db.live.ticker_running
        if self._started_ticker:
            db.live.start_ticker()
        self._closed = False
        self._thread.start()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=2.0)
        if self._started_ticker:
            self.db.live.stop_ticker()

    def __enter__(self) -> "ScrapeServer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"ScrapeServer({self.address}, {state})"
