"""Figure 21 (this repo's extension) — concurrent serving throughput.

The paper's experiments are single-query; a serving tier's value shows
only under concurrency.  This benchmark drives the admission-controlled
:class:`~repro.serving.QueryServer` two ways:

* **Throughput scaling** — the same query mix from 1, 4 and 16 client
  sessions, each statement on its client's thread, with simulated
  storage I/O latency (the GIL-releasing sleep that lets statements of
  different clients overlap).
  Reported: queries/sec and per-session p50/p99 latency per client
  count.  Wall clocks are report-only in the regression gate.
* **Overload degradation** — a deliberately tiny tier (1 slot, queue of
  2) under a synchronized burst.  The interesting numbers here are
  *deterministic* and gate hard in ``tools/check_bench_regression.py``
  (the ``overload`` key): every excess query is shed with the typed
  :class:`~repro.errors.ServerOverloaded` (``queue_full``), nothing
  fails untyped, and every admitted query still returns the exact
  serial answer.

Assertions: 16 clients beat 1 client's throughput; overload sheds
cleanly (typed, zero wrong results).
"""

from __future__ import annotations

import datetime
import random
import threading
import time

SEGMENTS = 4
PARTS = 24
ROWS = 3000
QUERIES_PER_CLIENT = 6
CLIENT_COUNTS = (1, 4, 16)
IO_LATENCY_S = 0.001

QUERY = (
    "SELECT avg(amount) FROM orders "
    "WHERE date BETWEEN '03-01-2012' AND '10-31-2013'"
)


def _build_db():
    from repro import Database
    from repro import types as t
    from repro.catalog import (
        DistributionPolicy,
        PartitionScheme,
        TableSchema,
        monthly_range_level,
    )

    db = Database(num_segments=SEGMENTS)
    db.create_table(
        "orders",
        TableSchema.of(
            ("order_id", t.INT), ("amount", t.FLOAT), ("date", t.DATE)
        ),
        distribution=DistributionPolicy.hashed("order_id"),
        partition_scheme=PartitionScheme(
            [monthly_range_level("date", datetime.date(2012, 1, 1), PARTS)]
        ),
    )
    rng = random.Random(2121)
    start = datetime.date(2012, 1, 1)
    db.insert(
        "orders",
        [
            (
                i,
                round(rng.uniform(1, 100), 2),
                start + datetime.timedelta(days=rng.randrange(729)),
            )
            for i in range(ROWS)
        ],
    )
    db.analyze()
    return db


def _throughput_pass(db, clients: int, reference) -> dict:
    """One client-count point: ``clients`` sessions, each submitting
    ``QUERIES_PER_CLIENT`` queries concurrently through one server."""
    server = db.serve(
        max_concurrent=8,
        max_queued=64,
        queue_timeout_s=30.0,
        session_max_inflight=2,
    )
    sessions = [server.session(name=f"client-{i:02d}") for i in range(clients)]
    wrong = 0
    lock = threading.Lock()

    def drive(session):
        nonlocal wrong
        for _ in range(QUERIES_PER_CLIENT):
            rows = session.sql(QUERY).rows
            if rows != reference:
                with lock:
                    wrong += 1

    threads = [
        threading.Thread(target=drive, args=(session,))
        for session in sessions
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    total = clients * QUERIES_PER_CLIENT
    latencies = server.stats.to_dict()
    p50 = max(entry["p50_s"] for entry in latencies.values())
    p99 = max(entry["p99_s"] for entry in latencies.values())
    admission = server.admission.stats()
    server.close()
    assert wrong == 0, f"{wrong} wrong results at {clients} clients"
    assert admission["admitted"] == total
    return {
        "clients": clients,
        "queries": total,
        "elapsed_seconds": elapsed,
        "qps": total / elapsed if elapsed else 0.0,
        "p50_s": p50,
        "p99_s": p99,
    }


def _overload_pass(db, reference) -> dict:
    """The deterministic overload scenario (gated counters).

    One slot, queue of two, generous queue timeout.  A holder query
    occupies the slot (slow storage keeps it there), two queries fill
    the queue, and three more burst in while it is full — each must shed
    *immediately* with the typed queue_full rejection.  The holder and
    both queued queries then drain and must answer exactly."""
    from repro.errors import ServerOverloaded

    server = db.serve(
        max_concurrent=1,
        max_queued=2,
        queue_timeout_s=30.0,
        session_max_inflight=1,
    )
    sessions = [server.session(name=f"burst-{i}") for i in range(6)]
    outcomes: dict[str, object] = {}
    lock = threading.Lock()

    def run(tag, session):
        try:
            rows = session.sql(QUERY).rows
            with lock:
                outcomes[tag] = rows
        except ServerOverloaded as exc:
            with lock:
                outcomes[tag] = ("shed", exc.reason)
        except Exception as exc:  # noqa: BLE001 - counted as untyped
            with lock:
                outcomes[tag] = ("untyped", repr(exc))

    db.storage.io_latency_s = 0.02  # the holder stays in flight a while
    threads = [threading.Thread(target=run, args=("held", sessions[0]))]
    threads[0].start()
    deadline = time.monotonic() + 30.0
    while server.admission.inflight == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    for i in (1, 2):
        thread = threading.Thread(target=run, args=(f"queued-{i}", sessions[i]))
        thread.start()
        threads.append(thread)
    while server.admission.queue_depth < 2 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert server.admission.queue_depth == 2, "queue never filled"
    # the queue is full and the slot is held: these shed synchronously
    for i in (3, 4, 5):
        run(f"shed-{i}", sessions[i])
    db.storage.io_latency_s = IO_LATENCY_S
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive()
    admission = server.admission.stats()
    server.close()

    succeeded = [
        tag for tag, value in outcomes.items() if isinstance(value, list)
    ]
    shed = [
        tag
        for tag, value in outcomes.items()
        if isinstance(value, tuple) and value[0] == "shed"
    ]
    untyped = [
        tag
        for tag, value in outcomes.items()
        if isinstance(value, tuple) and value[0] == "untyped"
    ]
    wrong = [tag for tag in succeeded if outcomes[tag] != reference]
    return {
        "clients": 6,
        "admitted": admission["admitted"],
        "completed": len(succeeded),
        "rejected_queue_full": admission["rejected"]["queue_full"],
        "rejected_queue_timeout": admission["rejected"]["queue_timeout"],
        "shed_typed": len(shed),
        "untyped_errors": len(untyped),
        "wrong_results": len(wrong),
    }


def test_fig21_concurrent_throughput(benchmark):
    benchmark.pedantic(_report, rounds=1, iterations=1)


def _report():
    from ._helpers import emit, emit_json, format_table

    db = _build_db()
    reference = db.sql(QUERY).rows
    db.storage.io_latency_s = IO_LATENCY_S

    points = [
        _throughput_pass(db, clients, reference)
        for clients in CLIENT_COUNTS
    ]
    # end-to-end latency across every serving statement so far, from the
    # live telemetry histogram (queue wait included; report-only in the
    # regression gate)
    percentiles = db.live.query_seconds.percentiles()
    db.storage.io_latency_s = 0.02
    overload = _overload_pass(db, reference)

    emit(
        "fig21_concurrent_throughput",
        format_table(
            ["clients", "queries", "qps", "p50", "p99"],
            [
                [
                    point["clients"],
                    point["queries"],
                    f"{point['qps']:.1f}",
                    f"{point['p50_s'] * 1000:.1f} ms",
                    f"{point['p99_s'] * 1000:.1f} ms",
                ]
                for point in points
            ],
        )
        + [
            "",
            "overload (1 slot, queue of 2, 6 clients): "
            f"{overload['admitted']} admitted, "
            f"{overload['rejected_queue_full']} shed typed (queue_full), "
            f"{overload['untyped_errors']} untyped errors, "
            f"{overload['wrong_results']} wrong results",
            f"statement latency: p50 {percentiles['p50_s'] * 1000:.1f} ms  "
            f"p95 {percentiles['p95_s'] * 1000:.1f} ms  "
            f"p99 {percentiles['p99_s'] * 1000:.1f} ms",
        ],
    )
    emit_json(
        "fig21_concurrent_throughput",
        {
            "io_latency_s": IO_LATENCY_S,
            "queries_per_client": QUERIES_PER_CLIENT,
            "throughput": points,
            "overload": overload,
            "latency_percentiles": percentiles,
        },
    )

    # Acceptance bars: concurrency helps, and overload sheds cleanly.
    single = next(p for p in points if p["clients"] == 1)
    wide = next(p for p in points if p["clients"] == 16)
    assert wide["qps"] > single["qps"], (
        f"16 clients ({wide['qps']:.1f} qps) did not beat one client "
        f"({single['qps']:.1f} qps)"
    )
    assert overload["admitted"] == 3
    assert overload["rejected_queue_full"] == 3
    assert overload["untyped_errors"] == 0
    assert overload["wrong_results"] == 0
