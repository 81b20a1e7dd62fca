"""The oracle/warm-up pass and the timed, untraced repetitions.

Closed loop: a client sends its next statement only after the previous one
answered.  Only the ``sql()`` call is inside the timer; the answer is checked
after the timer stops.  A statement that raises, is refused or answers
wrongly is *failed*: it is counted in ``attempted`` and ``failed`` and
contributes no latency sample.
"""

from __future__ import annotations

import math
import statistics
import sys
import threading
from time import perf_counter
from typing import NamedTuple

from .gen import Stmt
from .oracle import same_rows
from .workloads import Built, Workload


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(share * len(ranked)) - 1)]


class Tally:
    """Statements attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._shown = 0

    def record(self, ok: bool, stmt: Stmt | None = None, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self._shown < 5:
                self._shown += 1
                what = stmt.sql if stmt is not None else "end state"
                print(f"FAILED: {what} {reason}".rstrip(), file=sys.stderr)
        return ok


class Checker:
    """Each read's verified answer, and the rule for judging a reply."""

    def __init__(self, workload: Workload, tally: Tally):
        self.workload = workload
        self.tally = tally
        #: the engine's own rows for a read, once they matched the oracle
        self.verified: dict[Stmt, list[tuple]] = {}

    def oracle_pass(self, built: Built) -> int:
        """Answer every distinct read once, untimed and uncached, and
        compare with the oracle.  Doubles as the warm-up that fills the
        engine's lazy state.  Returns the number of mismatches; a
        mismatched read stays unverified, so each timed use of it fails."""
        wrong = 0
        for stmt in self.workload.distinct_statements():
            rows = built.db.sql(stmt.sql, params=stmt.params).rows
            if same_rows(rows, self.workload.expected(stmt)):
                self.verified[stmt] = rows
            else:
                wrong += 1
                print(f"ORACLE MISMATCH: {stmt.sql} {stmt.params or ''}", file=sys.stderr)
        return wrong

    def settle(self, stmt: Stmt, reply, sequential: bool) -> bool:
        """Judge one reply (an ``ExecutionResult`` or the exception raised).

        ``sequential`` says no other client ran meanwhile: then every read
        has one right answer and every write is applied to the oracle at
        once.  Under concurrency only reads the clients cannot disturb are
        checked, and writes are applied afterwards, client by client."""
        if isinstance(reply, Exception):
            return self.tally.record(False, stmt, repr(reply))
        if stmt.kind != "select":
            affected = self.workload.oracle.apply(stmt)
            return self.tally.record(reply.rows == [(affected,)], stmt, "row count")
        if self.workload.checkable(stmt):
            known = self.verified.get(stmt)
            ok = known is not None and (
                reply.rows == known or same_rows(reply.rows, known)
            )
        elif sequential:
            ok = same_rows(reply.rows, self.workload.expected(stmt))
        else:
            ok = True
        return self.tally.record(ok, stmt, "wrong answer")


class Sample(NamedTuple):
    stmt: Stmt
    started: float  # perf_counter() when the statement was sent
    seconds: float
    ok: bool


class Repetition(NamedTuple):
    wall_seconds: float
    samples: list[Sample]

    @property
    def statements_per_second(self) -> float:
        return sum(s.ok for s in self.samples) / self.wall_seconds

    def latencies_ms(self, write: bool) -> list[float]:
        return [
            s.seconds * 1e3
            for s in self.samples
            if s.ok and (s.stmt.kind != "select") == write
        ]


def _client_loop(sql, stmts: list[Stmt], settle) -> list[tuple]:
    out = []
    for stmt in stmts:
        start = perf_counter()
        try:
            reply = sql(stmt.sql, params=stmt.params)
        except Exception as error:  # the benchmark must outlive a failed statement
            reply = error
        seconds = perf_counter() - start
        out.append((stmt, start, seconds, settle(stmt, reply)))
    return out


def run_repetition(
    workload: Workload, built: Built, checker: Checker, clients: list[int]
) -> Repetition:
    """One pass over each client's statement list."""
    lists = {client: workload.repetition(client) for client in clients}
    if len(clients) == 1:
        (client,) = clients
        done = _client_loop(
            built.clients[client],
            lists[client],
            lambda stmt, reply: checker.settle(stmt, reply, sequential=True),
        )
        samples = [Sample(*entry) for entry in done]
        return Repetition(sum(s.seconds for s in samples), samples)

    # Concurrent clients keep their replies and judge them after the run,
    # so checking never takes the interpreter from a timed statement.
    barrier = threading.Barrier(len(clients) + 1)
    replies: dict[int, list[tuple]] = {}

    def client_thread(client: int) -> None:
        barrier.wait()
        replies[client] = _client_loop(
            built.clients[client], lists[client], lambda stmt, reply: reply
        )

    threads = [threading.Thread(target=client_thread, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = perf_counter()
    for thread in threads:
        thread.join()
    wall = perf_counter() - start
    samples = [
        Sample(stmt, started, seconds, checker.settle(stmt, reply, sequential=False))
        for client in clients
        for stmt, started, seconds, reply in replies[client]
    ]
    return Repetition(wall, samples)


def summarize(values: list[float]) -> dict:
    """Median, min and max of one figure over repetitions."""
    return {
        "value": statistics.median(values),
        "samples": len(values),
        "min": min(values),
        "max": max(values),
        "each": values,
    }


def latency_summary(repetitions: list[Repetition], write: bool, share: float) -> dict | None:
    """A latency percentile: the median over repetitions of each
    repetition's percentile (so a disturbed stretch of the run moves it
    little), with the percentile of the pooled samples beside it."""
    samples = [ms for rep in repetitions if (ms := rep.latencies_ms(write))]
    if not samples:
        return None
    pooled = [value for ms in samples for value in ms]
    return {
        **summarize([percentile(ms, share) for ms in samples]),
        "samples": len(pooled),
        "pooled": percentile(pooled, share),
    }
