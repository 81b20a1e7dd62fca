"""Admission control: the bounded run queue in front of the executor.

An MPP serving tier cannot run every arriving query at once — doing so
turns overload into collapse (every query slow, memory exhausted, no
useful work finishing).  The classic answer, which this module models, is
**admission control**: a fixed number of concurrency slots, a bounded
queue in front of them, and explicit *load shedding* once the queue is
full or a query has waited too long.  A shed query fails fast with a
typed :class:`~repro.errors.ServerOverloaded` the client can retry
against — strictly better than an un-typed timeout minutes later.

Two mechanisms compose:

* **Slots** — at most ``max_concurrent`` queries execute at once, and at
  most ``session_max_inflight`` of them belong to any one session, so a
  single chatty client cannot monopolize the tier.
* **Fair-share queueing** — queued queries wait in per-session FIFO
  queues drained round-robin, so under contention every waiting session
  is granted slots at the same rate regardless of how many requests each
  has piled up.

The controller is purely cooperative and thread-safe: callers
:meth:`~AdmissionController.acquire` a slot (blocking in the queue, up
to ``queue_timeout_s``), run their query, and
:meth:`~AdmissionController.release` it, which dispatches the next
queued ticket(s) round-robin.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..errors import ServerOverloaded

__all__ = ["ServingConfig", "AdmissionController", "AdmissionSlot"]


class ServingConfig:
    """Tuning knobs for one :class:`~repro.serving.QueryServer`.

    The defaults are sized for the in-process simulator: a handful of
    concurrent queries, a small queue, sub-second queue timeouts in
    tests.  ``pool_workers`` was removed with the shared segment-worker
    pool (a statement's segment instances run in segment order on its
    own thread); it is still accepted and checked ``>= 1`` so existing
    callers keep working, and otherwise unused.
    """

    __slots__ = (
        "max_concurrent",
        "max_queued",
        "queue_timeout_s",
        "session_max_inflight",
    )

    def __init__(
        self,
        max_concurrent: int = 4,
        max_queued: int = 16,
        queue_timeout_s: float = 5.0,
        session_max_inflight: int = 2,
        pool_workers: int | None = None,
    ):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if max_queued < 0:
            raise ValueError("max_queued must be >= 0")
        if queue_timeout_s < 0:
            raise ValueError("queue_timeout_s must be >= 0")
        if session_max_inflight < 1:
            raise ValueError("session_max_inflight must be >= 1")
        if pool_workers is not None and pool_workers < 1:
            raise ValueError("pool_workers must be >= 1")
        self.max_concurrent = max_concurrent
        self.max_queued = max_queued
        self.queue_timeout_s = queue_timeout_s
        self.session_max_inflight = session_max_inflight

    def to_dict(self) -> dict:
        return {
            "max_concurrent": self.max_concurrent,
            "max_queued": self.max_queued,
            "queue_timeout_s": self.queue_timeout_s,
            "session_max_inflight": self.session_max_inflight,
        }

    def __repr__(self) -> str:
        return (
            f"ServingConfig(max_concurrent={self.max_concurrent}, "
            f"max_queued={self.max_queued}, "
            f"queue_timeout_s={self.queue_timeout_s}, "
            f"session_max_inflight={self.session_max_inflight})"
        )


class AdmissionSlot:
    """One granted unit of concurrency; must be released exactly once."""

    __slots__ = ("session_id", "queued_seconds")

    def __init__(self, session_id: int, queued_seconds: float):
        self.session_id = session_id
        self.queued_seconds = queued_seconds


class _Ticket:
    """One waiter in the run queue."""

    __slots__ = ("session_id", "slot")

    def __init__(self, session_id: int):
        self.session_id = session_id
        #: set (under the controller lock) when the dispatcher grants it
        self.slot: AdmissionSlot | None = None


class AdmissionController:
    """Slots + bounded fair-share queue + shedding (see module docs)."""

    def __init__(self, config: ServingConfig):
        self.config = config
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._inflight_total = 0
        self._inflight: dict[int, int] = {}
        #: per-session FIFO queues of waiting tickets
        self._queues: dict[int, deque[_Ticket]] = {}
        #: round-robin rotation order over sessions with queued tickets
        self._rr: deque[int] = deque()
        self._queued = 0
        self._closed = False
        # -- cumulative counters (read under the lock) --
        self.admitted = 0
        self.rejected = {"queue_full": 0, "queue_timeout": 0, "shutdown": 0}
        self.queued_seconds_total = 0.0
        self.queued_grants = 0

    # -- the client side ------------------------------------------------------

    def acquire(self, session_id: int) -> AdmissionSlot:
        """Block until a slot is granted, or shed with
        :class:`~repro.errors.ServerOverloaded` (``reason`` one of
        ``queue_full``, ``queue_timeout``, ``shutdown``)."""
        start = time.monotonic()
        with self._cond:
            if self._closed:
                self.rejected["shutdown"] += 1
                raise ServerOverloaded(
                    "server is shut down", reason="shutdown"
                )
            if self._queued == 0 and self._can_admit(session_id):
                return self._admit(session_id)
            if self._queued >= self.config.max_queued:
                self.rejected["queue_full"] += 1
                raise ServerOverloaded(
                    f"run queue full ({self.config.max_queued} queued, "
                    f"{self._inflight_total} in flight)",
                    reason="queue_full",
                )
            ticket = _Ticket(session_id)
            self._enqueue(ticket)
            # The new ticket may be immediately runnable (e.g. everything
            # ahead of it is blocked on per-session caps).
            self._dispatch()
            deadline = start + self.config.queue_timeout_s
            while ticket.slot is None and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            if ticket.slot is not None:
                waited = time.monotonic() - start
                ticket.slot.queued_seconds = waited
                self.queued_seconds_total += waited
                self.queued_grants += 1
                return ticket.slot
            self._remove(ticket)
            if self._closed:
                self.rejected["shutdown"] += 1
                raise ServerOverloaded(
                    "server is shut down", reason="shutdown"
                )
            self.rejected["queue_timeout"] += 1
            raise ServerOverloaded(
                f"no slot within queue_timeout_s="
                f"{self.config.queue_timeout_s}",
                reason="queue_timeout",
            )

    def release(self, slot: AdmissionSlot) -> None:
        """Return one slot and hand freed capacity to queued tickets."""
        with self._cond:
            self._inflight_total -= 1
            count = self._inflight.get(slot.session_id, 1) - 1
            if count <= 0:
                self._inflight.pop(slot.session_id, None)
            else:
                self._inflight[slot.session_id] = count
            self._dispatch()

    def close(self) -> None:
        """Stop admitting; queued waiters are shed with ``shutdown``."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- internals (lock held) ------------------------------------------------

    def _can_admit(self, session_id: int) -> bool:
        return (
            self._inflight_total < self.config.max_concurrent
            and self._inflight.get(session_id, 0)
            < self.config.session_max_inflight
        )

    def _admit(self, session_id: int) -> AdmissionSlot:
        self._inflight_total += 1
        self._inflight[session_id] = self._inflight.get(session_id, 0) + 1
        self.admitted += 1
        return AdmissionSlot(session_id, 0.0)

    def _enqueue(self, ticket: _Ticket) -> None:
        queue = self._queues.get(ticket.session_id)
        if queue is None:
            queue = deque()
            self._queues[ticket.session_id] = queue
            self._rr.append(ticket.session_id)
        queue.append(ticket)
        self._queued += 1

    def _remove(self, ticket: _Ticket) -> None:
        """Drop a timed-out/shed ticket from its session queue."""
        queue = self._queues.get(ticket.session_id)
        if queue is None:
            return
        try:
            queue.remove(ticket)
        except ValueError:
            return
        self._queued -= 1
        if not queue:
            del self._queues[ticket.session_id]
            try:
                self._rr.remove(ticket.session_id)
            except ValueError:
                pass

    def _dispatch(self) -> None:
        """Grant free slots to queued tickets, round-robin by session.

        One full rotation of ``_rr`` per grant: the first session in
        rotation order that has a waiting ticket *and* headroom under its
        per-session cap wins, and the rotation pointer moves past it so
        the next grant starts with the following session — equal
        grant-rate per waiting session, however deep any one session's
        backlog is.
        """
        granted = False
        while (
            self._queued
            and self._inflight_total < self.config.max_concurrent
        ):
            ticket = self._next_ticket()
            if ticket is None:
                break
            ticket.slot = self._admit(ticket.session_id)
            granted = True
        if granted:
            self._cond.notify_all()

    def _next_ticket(self) -> _Ticket | None:
        for _ in range(len(self._rr)):
            session_id = self._rr[0]
            self._rr.rotate(-1)
            if (
                self._inflight.get(session_id, 0)
                >= self.config.session_max_inflight
            ):
                continue
            queue = self._queues.get(session_id)
            if not queue:
                continue
            ticket = queue.popleft()
            self._queued -= 1
            if not queue:
                del self._queues[session_id]
                try:
                    self._rr.remove(session_id)
                except ValueError:
                    pass
            return ticket
        return None

    # -- observability --------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._queued

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight_total

    def stats(self) -> dict:
        """A consistent snapshot of gauges and counters."""
        with self._lock:
            return {
                "inflight": self._inflight_total,
                "inflight_by_session": dict(self._inflight),
                "queue_depth": self._queued,
                "admitted": self.admitted,
                "rejected": dict(self.rejected),
                "queued_grants": self.queued_grants,
                "queued_seconds_total": round(self.queued_seconds_total, 6),
            }
