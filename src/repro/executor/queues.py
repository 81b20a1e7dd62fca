"""Bounded tuple queues: the Motion interconnect of the parallel backend.

A :class:`TupleQueue` carries one Motion's traffic toward one target
segment.  Producers are the (slice, segment) instances of the sending
slice — under the parallel scheduler they run on different worker threads
and push concurrently — and the consumer is the receiving slice's instance
on the target segment, which runs after every producer has finished
(slice-at-a-time execution preserves the paper's
producer-closes-then-consumer-drains contract, exactly like the
partition-OID channels of Section 2.2).

Three properties the executor relies on:

* **Thread safety with backpressure.**  All state is guarded by one lock
  with condition variables.  When a capacity is set, :meth:`put` blocks
  while the queue is full and a streaming consumer is attached, waking as
  :meth:`stream` frees space — classic bounded-buffer backpressure.  When
  no consumer is attached (the engine's slice-at-a-time schedule drains
  only after close, so nothing could ever free space) a full queue raises
  :class:`~repro.errors.ChannelError` immediately instead of deadlocking.
* **Deterministic merge order.**  Rows are kept in per-producer *runs* and
  merged in ascending producer-segment order, so the drained sequence is
  byte-identical to a serial run's append order no matter how the worker
  threads interleaved their pushes.
* **The ChannelError contract.**  Draining before every producer closed,
  pushing after close, and closing twice all raise — the same misuse
  surface :class:`~repro.executor.channels.OidChannel` polices.

Slice retry discards only the failed instance's run
(:meth:`TupleQueue.discard_producer`), leaving healthy producers' rows in
place — the parallel analogue of the segment-scoped channel discard.
"""

from __future__ import annotations

import threading
from typing import Iterator

from ..errors import ChannelError


class TupleQueue:
    """One Motion's row traffic toward one target segment.

    ``limits`` (optional) is the query's
    :class:`~repro.resilience.guardrails.QueryLimits`: a producer blocked
    under backpressure re-checks it on every wait tick, so a cancellation
    or timeout unblocks the producer promptly instead of leaving it
    parked until the stall timeout — the guarantee per-session cancel in
    the serving layer relies on.
    """

    def __init__(
        self,
        capacity: int | None = None,
        stall_timeout_s: float = 10.0,
        limits=None,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.capacity = capacity
        self.stall_timeout_s = stall_timeout_s
        self.limits = limits
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        #: producer segment -> rows pushed by that producer, in push order
        self._runs: dict[int, list[tuple]] = {}
        self._size = 0
        self._closed = False
        self._consumers = 0
        self._streamed = False
        self._merged: list[tuple] | None = None

    # -- producer side -------------------------------------------------------

    def put(self, row: tuple, producer: int = 0) -> None:
        """Push one row from ``producer``'s run, blocking under backpressure.

        Blocks while the queue is at capacity and a streaming consumer is
        attached; raises :class:`ChannelError` when full with no consumer
        (nothing could free space — failing fast beats deadlocking), when
        the queue stalls past ``stall_timeout_s``, or after close.
        """
        with self._not_full:
            if self.capacity is not None:
                waited = 0.0
                while self._size >= self.capacity and not self._closed:
                    if self._consumers == 0:
                        raise ChannelError(
                            f"motion queue is full ({self.capacity} rows) "
                            "with no consumer attached; raise the capacity "
                            "or attach a streaming consumer"
                        )
                    if waited >= self.stall_timeout_s:
                        raise ChannelError(
                            "motion queue stalled: consumer made no "
                            f"progress for {self.stall_timeout_s}s"
                        )
                    # a cancelled/timed-out query must not stay parked
                    # here waiting for a consumer that will never drain
                    if self.limits is not None and self.limits.active:
                        self.limits.check()
                    self._not_full.wait(timeout=0.05)
                    waited += 0.05
            if self._closed:
                raise ChannelError("put to closed motion queue")
            self._runs.setdefault(producer, []).append(row)
            self._size += 1
            self._not_empty.notify()

    def put_batch(self, rows: list[tuple], producer: int = 0) -> None:
        """Push a batch of rows from ``producer``'s run in one lock
        acquisition — the Motion-amortization fast path.

        Bounded queues fall back to per-row :meth:`put` so backpressure
        (and the full-with-no-consumer :class:`ChannelError`) fires on
        exactly the same row as the row-at-a-time path.
        """
        if not rows:
            return
        if self.capacity is not None:
            for row in rows:
                self.put(row, producer)
            return
        with self._lock:
            if self._closed:
                raise ChannelError("put to closed motion queue")
            self._runs.setdefault(producer, []).extend(rows)
            self._size += len(rows)
            self._not_empty.notify()

    def close(self) -> None:
        """Seal the queue.  Closing twice raises — two producers racing to
        own the queue's lifecycle is a real coordination bug."""
        with self._lock:
            if self._closed:
                raise ChannelError("double close of motion queue")
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def discard_producer(self, producer: int) -> int:
        """Drop one producer's run (instance retry rebuilds it); returns
        the number of rows discarded."""
        with self._lock:
            run = self._runs.pop(producer, None)
            if run is None:
                return 0
            self._size -= len(run)
            self._merged = None
            self._not_full.notify_all()
            return len(run)

    # -- consumer side -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return self._size

    def rows(self) -> list[tuple]:
        """All rows, merged in producer-segment order — the deterministic
        drain used by the slice-at-a-time executor.

        Requires every producer to have closed the queue first and is
        non-destructive (a retried consumer instance re-reads the same
        rows).  Raises after a streaming consumer already drained rows.
        """
        with self._lock:
            if not self._closed:
                raise ChannelError(
                    "motion queue drained before its producers closed"
                )
            if self._streamed:
                raise ChannelError(
                    "motion queue was already drained by a streaming consumer"
                )
            if self._merged is None:
                merged: list[tuple] = []
                for producer in sorted(self._runs):
                    merged += self._runs[producer]
                self._merged = merged
            return self._merged

    def stream(self) -> Iterator[tuple]:
        """Yield rows as they arrive, concurrently with producers.

        This is the backpressure path: while the generator is live it
        counts as an attached consumer, so bounded :meth:`put` calls block
        instead of raising, and every yielded row frees one slot.  Rows
        arrive in lowest-producer-first order within what is buffered;
        interleaving across producers is inherently arrival-ordered.  The
        stream ends when the queue is closed and empty.
        """
        with self._lock:
            self._consumers += 1
        try:
            while True:
                with self._not_empty:
                    while self._size == 0 and not self._closed:
                        self._not_empty.wait()
                    if self._size == 0 and self._closed:
                        return
                    producer = min(
                        p for p, run in self._runs.items() if run
                    )
                    row = self._runs[producer].pop(0)
                    self._size -= 1
                    self._streamed = True
                    self._not_full.notify()
                yield row
        finally:
            with self._lock:
                self._consumers -= 1

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"TupleQueue({self._size} rows, {state})"


class MotionBuffer:
    """All of one Motion's receive queues — one :class:`TupleQueue` per
    target segment.  The executor sends into it from producer instances
    and the consuming slice reads one target's merged rows."""

    def __init__(
        self,
        num_segments: int,
        capacity: int | None = None,
        limits=None,
    ):
        self.num_segments = num_segments
        self._queues = [
            TupleQueue(capacity, limits=limits) for _ in range(num_segments)
        ]

    def send_batch(
        self, target: int, rows: list[tuple], producer: int
    ) -> None:
        self._queues[target].put_batch(rows, producer)

    def close(self) -> None:
        for queue in self._queues:
            queue.close()

    @property
    def closed(self) -> bool:
        return all(queue.closed for queue in self._queues)

    def discard_producer(self, producer: int) -> int:
        """Drop one producer instance's rows from every target queue."""
        return sum(
            queue.discard_producer(producer) for queue in self._queues
        )

    def rows(self, target: int) -> list[tuple]:
        """The merged, deterministic row sequence for one target segment."""
        return self._queues[target].rows()

    def queue(self, target: int) -> TupleQueue:
        return self._queues[target]

    def __getitem__(self, target: int) -> list[tuple]:
        return self.rows(target)

    def __iter__(self) -> Iterator[list[tuple]]:
        return (self.rows(target) for target in range(self.num_segments))

    def __repr__(self) -> str:
        total = sum(len(queue) for queue in self._queues)
        return f"MotionBuffer({self.num_segments} targets, {total} rows)"
