"""Serving sessions: one client's isolated view of the server.

A :class:`Session` is the unit of isolation in the serving tier.  Each
one carries:

* its **own defaults** — one :class:`~repro.settings.QuerySettings`
  value, the Database's with the session's overrides on top — applied to
  every query it submits (overridable per call);
* its **own** :class:`~repro.resilience.FaultInjector`, so chaos armed
  by one client never fires inside another client's query;
* its **own cancel scope** — :meth:`Session.cancel` cancels exactly the
  session's in-flight queries (each submit runs under a fresh
  :class:`~repro.resilience.CancelToken` registered here) and never
  touches other sessions;
* its own counters (submitted / admitted / rejected), feeding the
  server's per-session stats and ``repro_serving_*`` metric families.

Sessions are also the fairness domain: the
:class:`~repro.serving.AdmissionController` caps in-flight queries and
round-robins queued work *per session*.
"""

from __future__ import annotations

import threading

from ..resilience.faults import FaultInjector
from ..resilience.guardrails import CancelToken
from ..settings import QuerySettings, resolve

__all__ = ["Session"]


class Session:
    """One client's settings, fault scope and cancel scope."""

    def __init__(
        self,
        server,
        session_id: int,
        name: str | None = None,
        fault_seed: int = 0,
        settings: QuerySettings | None = None,
        **overrides,
    ):
        self.server = server
        self.session_id = session_id
        self.name = name if name else f"session-{session_id}"
        #: the defaults of every statement this session submits; an
        #: invalid override raises here, not at the first query
        self.settings = resolve(server.db.settings, settings, overrides)
        #: session-scoped chaos: arm via ``session.faults.arm(...)``
        self.faults = FaultInjector(seed=fault_seed)
        self.closed = False
        self._lock = threading.Lock()
        #: cancel tokens of the session's in-flight queries
        self._active_tokens: set[CancelToken] = set()
        # -- per-session counters (server stats / prometheus) --
        self.submitted = 0
        self.admitted = 0
        self.rejected = 0

    # -- querying -------------------------------------------------------------

    def sql(self, query: str, **overrides):
        """Submit one statement through the server's admission path.

        ``params``, ``cancel`` and ``settings`` pass through; any other
        keyword (``timeout``, ``batch_size``, ``cache``, ...; see
        docs/architecture.md, "Statement settings") overrides the session
        default for this call only.  Raises
        :class:`~repro.errors.ServerOverloaded` when shed.
        """
        return self.server.submit(self, query, **overrides)

    # -- cancellation ---------------------------------------------------------

    def cancel(self) -> int:
        """Cancel every in-flight query of *this* session (cooperative:
        each raises :class:`~repro.errors.QueryCancelled` at its next
        guardrail checkpoint).  Returns how many were signalled."""
        with self._lock:
            tokens = list(self._active_tokens)
        for token in tokens:
            token.cancel()
        return len(tokens)

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._active_tokens)

    def _register(self, token: CancelToken) -> None:
        with self._lock:
            self._active_tokens.add(token)

    def _unregister(self, token: CancelToken) -> None:
        with self._lock:
            self._active_tokens.discard(token)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Cancel anything in flight and detach from the server."""
        if self.closed:
            return
        self.closed = True
        self.cancel()
        self.server._discard(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"Session({self.name!r}, {state})"
