"""Per-query guardrails: timeout, buffered-row budget, cancellation, retry.

:class:`QueryLimits` is the cooperative enforcement object one execution
carries on its :class:`~repro.executor.context.ExecContext`.  Iterators
call :meth:`QueryLimits.tick_rows` once per batch (cheap: one attribute
check, with the wall-clock read amortized over ``check_interval`` rows) and
blocking operators charge their materialized rows through
:meth:`QueryLimits.charge_rows` — the engine's memory-consumption proxy.
Each violation raises its own typed error so callers can distinguish a
cancelled query from a timed-out or over-budget one.

:class:`RetryPolicy` bounds how the executor retries a failed slice:
``max_retries`` attempts with exponential backoff starting at
``base_delay_seconds``, decorrelated-jittered by default so concurrent
instances that failed together do not retry in lockstep.
"""

from __future__ import annotations

import random
import threading
import time

from ..errors import QueryCancelled, QueryTimeout, ResourceLimitExceeded


class CancelToken:
    """Cooperative cancellation handle shared with the caller.

    ``cancel_after_checks`` is a deterministic test/simulation hook: the
    token cancels itself once the query has passed that many guardrail
    checkpoints, emulating a user hitting Ctrl-C mid-flight without
    needing threads.
    """

    __slots__ = ("_cancelled", "_checks", "cancel_after_checks")

    def __init__(self, cancel_after_checks: int | None = None):
        self._cancelled = False
        self._checks = 0
        self.cancel_after_checks = cancel_after_checks

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        self._cancelled = True

    def _note_check(self) -> None:
        if self.cancel_after_checks is None or self._cancelled:
            return
        self._checks += 1
        if self._checks >= self.cancel_after_checks:
            self._cancelled = True

    def _note_checks(self, count: int) -> None:
        """Batch equivalent of ``count`` sequential :meth:`_note_check`
        calls: the token cancels on the batch containing the threshold
        checkpoint, so deterministic-cancel tests fire regardless of
        batch size."""
        if self.cancel_after_checks is None or self._cancelled:
            return
        self._checks += count
        if self._checks >= self.cancel_after_checks:
            self._cancelled = True


class QueryLimits:
    """Guardrail state for one query execution."""

    def __init__(
        self,
        timeout_seconds: float | None = None,
        max_rows: int | None = None,
        cancel: CancelToken | None = None,
        check_interval: int = 128,
    ):
        if timeout_seconds is not None and timeout_seconds < 0:
            raise ValueError("timeout_seconds must be >= 0")
        if max_rows is not None and max_rows < 0:
            raise ValueError("max_rows must be >= 0")
        self.timeout_seconds = timeout_seconds
        self.max_rows = max_rows
        self.cancel_token = cancel
        self.check_interval = max(1, check_interval)
        self._deadline: float | None = None
        self._ticks = 0
        #: charged from the statement's one thread (its segment instances
        #: run in segment order on it), so the budget takes no lock
        self._buffered_rows = 0

    @property
    def active(self) -> bool:
        """Whether any guardrail is configured (hot-path gate)."""
        return (
            self.timeout_seconds is not None
            or self.max_rows is not None
            or self.cancel_token is not None
        )

    @property
    def buffered_rows(self) -> int:
        return self._buffered_rows

    def start(self) -> None:
        """Arm the deadline at query start."""
        if self.timeout_seconds is not None:
            self._deadline = time.monotonic() + self.timeout_seconds

    # -- checkpoints ---------------------------------------------------------

    def check(self) -> None:
        """Full checkpoint: cancellation and deadline, unconditionally.

        Called at slice boundaries, where the cost of a clock read is
        negligible."""
        token = self.cancel_token
        if token is not None:
            token._note_check()
            if token.cancelled:
                raise QueryCancelled("query cancelled")
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise QueryTimeout(
                f"query exceeded timeout of {self.timeout_seconds}s"
            )

    def tick_rows(self, count: int) -> None:
        """Per-batch checkpoint, in O(1): exactly what ``count``
        sequential ``tick_rows(1)`` calls enforce (cancellation every row,
        the deadline every ``check_interval`` rows).  The cancel token is
        advanced by ``count`` checkpoints, and the amortized deadline
        read fires iff one of the covered ticks crosses a
        ``check_interval`` boundary."""
        if count <= 0:
            return
        token = self.cancel_token
        if token is not None:
            token._note_checks(count)
            if token.cancelled:
                raise QueryCancelled("query cancelled")
        if self._deadline is None:
            return
        before = self._ticks
        self._ticks = before + count
        if before // self.check_interval != self._ticks // self.check_interval:
            if time.monotonic() > self._deadline:
                raise QueryTimeout(
                    f"query exceeded timeout of {self.timeout_seconds}s"
                )

    def charge_rows(self, count: int) -> None:
        """Account ``count`` rows buffered by a blocking operator (sort
        input, hash-join build side, motion receive buffers, ...)."""
        if self.max_rows is None:
            return
        self._buffered_rows += count
        if self._buffered_rows > self.max_rows:
            raise ResourceLimitExceeded(
                f"query buffered {self._buffered_rows} rows in blocking "
                f"operators, exceeding max_rows={self.max_rows}"
            )

    def charge_rows_batch(self, count: int, per_row: int = 1) -> None:
        """Batch equivalent of ``count`` sequential
        ``charge_rows(per_row)`` calls.

        Row-at-a-time execution charges buffered rows one at a time and
        stops at the first charge that crosses ``max_rows`` — the
        remaining rows of the batch are never accounted.  To keep
        ``buffered_rows`` (and the error message) identical at any batch
        size, this charges only up to and including the first crossing
        charge, then raises.
        """
        if self.max_rows is None or count <= 0:
            return
        total = count * per_row
        if self._buffered_rows + total > self.max_rows:
            headroom = self.max_rows - self._buffered_rows
            full = max(0, headroom) // per_row
            crossing = min(full + 1, count)
            self._buffered_rows += crossing * per_row
        else:
            self._buffered_rows += total
        if self._buffered_rows > self.max_rows:
            raise ResourceLimitExceeded(
                f"query buffered {self._buffered_rows} rows in blocking "
                f"operators, exceeding max_rows={self.max_rows}"
            )


class RetryPolicy:
    """Bounds on the executor's slice-retry loop.

    ``jitter=True`` (the default) applies *decorrelated jitter* to the
    exponential envelope: each wait is drawn uniformly from
    ``[base, min(cap, 3 * previous_wait)]``, where the previous wait
    seeds the next draw.  Under the serving layer's many concurrent
    queries, several statements often fail at the same instant (a segment
    going down hits all of them); deterministic exponential backoff would
    wake them all on the same schedule and synchronize the re-runs into a
    retry storm.
    Jittered waits stay inside the same ``[base, max]`` bounds but spread
    the wakeups.  ``jitter=False`` restores the deterministic doubling
    (used by tests that assert exact delays).
    """

    __slots__ = (
        "max_retries",
        "base_delay_seconds",
        "max_delay_seconds",
        "jitter",
        "_rng",
        "_rng_lock",
    )

    def __init__(
        self,
        max_retries: int = 2,
        base_delay_seconds: float = 0.001,
        max_delay_seconds: float = 0.1,
        jitter: bool = True,
        seed: int | None = None,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = max_retries
        self.base_delay_seconds = base_delay_seconds
        self.max_delay_seconds = max_delay_seconds
        self.jitter = jitter
        #: one policy serves every statement of a Database, and statements
        #: of different sessions run on different threads; random.Random
        #: is not thread-safe, so draws take this lock (cold path: one
        #: draw per retry, never per row)
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()

    def delay_for(self, attempt: int) -> float:
        """The deterministic exponential envelope: attempt 1 waits the
        base delay, each further attempt doubles it, capped at
        ``max_delay_seconds``."""
        if self.base_delay_seconds <= 0:
            return 0.0
        delay = self.base_delay_seconds * (2 ** (attempt - 1))
        return min(delay, self.max_delay_seconds)

    def jittered_delay(
        self, attempt: int, previous: float | None = None
    ) -> float:
        """One decorrelated-jitter draw for ``attempt``.

        ``previous`` is the wait the same retry loop slept last time
        (None on the first retry).  The result is always within
        ``[base_delay_seconds, max_delay_seconds]``; with ``jitter=False``
        it is exactly :meth:`delay_for`.
        """
        if not self.jitter:
            return self.delay_for(attempt)
        base = self.base_delay_seconds
        if base <= 0:
            return 0.0
        anchor = previous if previous and previous > 0 else base
        upper = min(self.max_delay_seconds, 3.0 * anchor)
        upper = max(upper, base)
        with self._rng_lock:
            return self._rng.uniform(base, upper)

    def backoff(self, attempt: int, previous: float | None = None) -> float:
        """Sleep one retry wait and return it (callers feed it back as
        ``previous`` on the next attempt to decorrelate the sequence)."""
        delay = self.jittered_delay(attempt, previous)
        if delay > 0:
            time.sleep(delay)
        return delay
