"""Client sessions running statements against one Database at once.

A slice's segment instances run one after another on their statement's
thread; concurrency lives *between* statements.  Each serving session and
each ``--serve`` connection runs its statements on a thread of its own,
and those threads share the Database's plan and result caches, selector
programs, segment health and fault injector.  Tests parametrized over
``sessions`` run their statements from that many such clients: ``1`` is
the single-client path on the test's own thread, more start one thread
per client, released together by a barrier.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

#: seconds a client may take before the test fails instead of hanging
TIMEOUT_S = 60.0


def outcomes(sessions: int, run: Callable[[], Any]) -> list[Any]:
    """``run()`` from ``sessions`` clients at once: each client's return
    value, or the exception it raised, in client order."""
    if sessions == 1:
        try:
            return [run()]
        except Exception as error:  # noqa: BLE001 - handed to the caller
            return [error]
    start = threading.Barrier(sessions, timeout=TIMEOUT_S)
    answers: list[Any] = [None] * sessions

    def client(i: int) -> None:
        try:
            start.wait()
            answers[i] = run()
        except Exception as error:  # noqa: BLE001 - handed to the caller
            answers[i] = error

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(sessions)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=TIMEOUT_S)
    assert not any(t.is_alive() for t in threads), "a client session hung"
    return answers


def at_once(sessions: int, run: Callable[[], Any]) -> list[Any]:
    """:func:`outcomes` for clients that must all succeed: re-raises the
    first client's exception."""
    answers = outcomes(sessions, run)
    for answer in answers:
        if isinstance(answer, Exception):
            raise answer
    return answers


def executed(results) -> list:
    """The results that ran rather than came from the result cache (a hit
    carries no execution metrics).  At least one of a group of cold runs
    executes: the first lookup finds nothing stored."""
    ran = [
        r
        for r in results
        if (r.metrics.cache_summary or {}).get("result") != "hit"
    ]
    assert ran, "every client was served from the cache"
    return ran
