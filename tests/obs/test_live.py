"""The live operations telemetry hub (repro.obs.live).

Units for the bounded building blocks (Histogram, GaugeSeries, the
activity registry) plus engine-level acceptance: an in-flight query is
visible with its current phase and partition progress, cancel-by-id
terminates it, and every completion feeds the histograms and the metrics
export's ``live`` section (schema v7)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import QueryCancelled
from repro.obs.live import (
    ActivityRegistry,
    GaugeSeries,
    Histogram,
    LiveTelemetry,
    linear_buckets,
    log_buckets,
)
from repro.resilience import CancelToken

from ..serving.conftest import make_orders_db

COUNT = "SELECT count(*) FROM orders"


# -- buckets / histogram -----------------------------------------------------


def test_log_buckets_geometric():
    bounds = log_buckets(0.001, 2.0, 4)
    assert bounds == [0.001, 0.002, 0.004, 0.008]
    with pytest.raises(ValueError):
        log_buckets(0.0, 2.0, 4)


def test_linear_buckets():
    assert linear_buckets(0.1, 0.1, 3) == pytest.approx([0.1, 0.2, 0.3])


def test_histogram_observe_and_quantiles():
    h = Histogram([0.01, 0.1, 1.0])
    assert h.quantile(0.5) == 0.0  # empty
    for value in (0.005, 0.005, 0.05, 0.5, 0.5, 0.5):
        h.observe(value)
    assert h.count == 6
    assert h.sum == pytest.approx(1.56)
    assert h.bucket_counts() == [2, 1, 3, 0]
    # nearest-rank over buckets: answers are bucket upper bounds
    assert h.quantile(0.5) == 0.1
    assert h.quantile(0.99) == 1.0
    assert h.percentiles() == {"p50_s": 0.1, "p95_s": 1.0, "p99_s": 1.0}


def test_histogram_overflow_bucket_answers_with_max():
    h = Histogram([1.0])
    h.observe(5.0)
    h.observe(9.0)
    assert h.bucket_counts() == [0, 2]
    assert h.quantile(0.99) == 9.0
    summary = h.to_dict()
    assert summary["min"] == 5.0 and summary["max"] == 9.0


def test_histogram_memory_is_bounded():
    h = Histogram(log_buckets())
    for i in range(10_000):
        h.observe(i * 0.001)
    assert len(h.bucket_counts()) == len(h.bounds) + 1
    assert h.count == 10_000


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram([])
    with pytest.raises(ValueError):
        Histogram([2.0, 1.0])


# -- gauge series ------------------------------------------------------------


def test_gauge_series_ring_buffer_bounds_memory():
    series = GaugeSeries(capacity=8)
    for i in range(100):
        series.sample(float(i))
    assert len(series) == 8
    assert series.last == 99.0
    samples = series.to_dict()["samples"]
    assert [s["value"] for s in samples] == [float(i) for i in range(92, 100)]
    # offsets are monotone
    offsets = [s["offset_s"] for s in samples]
    assert offsets == sorted(offsets)


# -- the activity registry ---------------------------------------------------


def test_registry_register_snapshot_finish():
    registry = ActivityRegistry()
    first = registry.register("SELECT 1", session="a")
    second = registry.register("SELECT 2")
    assert (first.query_id, second.query_id) == (1, 2)
    assert len(registry) == 2
    rows = registry.snapshot()
    assert [r["query_id"] for r in rows] == [1, 2]
    assert rows[0]["session"] == "a" and rows[1]["session"] is None
    assert rows[0]["phase"] == "submitted"
    registry.finish(first)
    assert [r["query_id"] for r in registry.snapshot()] == [2]


def test_registry_cancel_requires_a_token():
    registry = ActivityRegistry()
    plain = registry.register("SELECT 1")
    assert registry.cancel(plain.query_id) is False  # no token
    assert registry.cancel(999) is False  # unknown id
    token = CancelToken()
    armed = registry.register("SELECT 2", cancel=token)
    assert registry.cancel(armed.query_id) is True
    assert token.cancelled


def test_activity_phase_log_is_bounded_and_timed():
    registry = ActivityRegistry()
    activity = registry.register("SELECT 1")
    for i in range(500):
        activity.enter_phase(f"phase:{i}")
    assert len(activity.phase_log) == 256  # bounded
    assert activity.phase == "phase:499"  # current phase still tracks
    timings = activity.phase_timings()
    assert len(timings) == 256
    assert all(t["seconds"] >= 0.0 for t in timings)


def test_activity_render_table():
    registry = ActivityRegistry()
    assert "no queries in flight" in registry.render()
    registry.register("SELECT count(*) FROM orders", session="repl")
    text = registry.render()
    assert "1 in flight" in text
    assert "repl" in text and "submitted" in text


# -- the hub -----------------------------------------------------------------


def test_hub_complete_feeds_histograms_and_counters():
    hub = LiveTelemetry()
    activity = hub.begin("SELECT 1", session="s")
    activity.queued_seconds = 0.25
    summary = hub.complete(activity)
    assert hub.completed == 1 and hub.failed == 0
    assert hub.query_seconds.count == 1
    assert hub.queue_seconds.count == 1
    assert summary["query_id"] == activity.query_id
    assert summary["queued_seconds"] == 0.25
    failed = hub.begin("SELECT 2")
    hub.complete(failed, error=ValueError("boom"))
    assert hub.failed == 1
    assert len(hub.activity) == 0


def test_hub_sources_and_ticker():
    hub = LiveTelemetry()
    reads = {"n": 0}

    def source():
        reads["n"] += 1
        return float(reads["n"])

    hub.add_source("demo", source)
    hub.add_source("absent", lambda: None)
    hub.add_source("broken", lambda: 1 / 0)
    values = hub.sample_now()
    assert values["demo"] == 1.0
    assert values["absent"] is None
    assert values["broken"] is None  # a source must never kill the tick
    assert hub.series["demo"].last == 1.0
    assert hub.series["absent"].last is None
    hub.start_ticker(interval_s=0.01)
    hub.start_ticker()  # idempotent
    assert hub.ticker_running
    deadline = time.time() + 2.0
    while reads["n"] < 3 and time.time() < deadline:
        time.sleep(0.01)
    hub.stop_ticker()
    assert not hub.ticker_running
    assert reads["n"] >= 3


def test_hub_to_dict_shape():
    hub = LiveTelemetry()
    hub.complete(hub.begin("SELECT 1"))
    state = hub.to_dict()
    assert state["completed"] == 1
    assert state["in_flight"] == []
    assert set(state["histograms"]) == {
        "query_seconds", "queue_seconds", "partition_scan_ratio",
    }
    assert state["slow_log"]["enabled"] is False


# -- engine integration ------------------------------------------------------


def test_sql_records_live_section_and_clears_registry():
    db = make_orders_db(rows=300, num_segments=2)
    result = db.sql(COUNT)
    live = result.metrics.to_dict()["live"]
    assert live["query_id"] == 1
    assert live["session"] is None
    assert live["phases"][:3] == ["parse", "bind", "optimize"]
    assert "execute" in live["phases"]
    assert db.activity() == []
    assert db.live.completed == 1
    # the scan-ratio histogram saw partitions scanned / eligible
    assert db.live.scan_ratio.count == 1


def test_failed_sql_completes_activity():
    db = make_orders_db(rows=50, num_segments=2)
    with pytest.raises(Exception):
        db.sql("SELECT nope FROM orders")
    assert db.activity() == []
    assert db.live.failed == 1


def test_cached_hit_still_registers_live():
    db = make_orders_db(rows=50, num_segments=2)
    db.sql(COUNT, cache="results")
    result = db.sql(COUNT, cache="results")
    live = result.metrics.to_dict()["live"]
    assert live["phases"][-1] == "cache_hit"
    assert db.live.completed == 2


def test_concurrent_query_is_visible_and_cancellable():
    """The tentpole acceptance: a long-running serving query shows its
    live phase and partition progress in the registry, and
    cancel-by-query-id terminates exactly it."""
    db = make_orders_db(rows=2000, num_segments=2)
    db.storage.io_latency_s = 0.02
    session = db.session(name="bg")
    errors: list[type] = []
    started = threading.Event()

    def run():
        started.set()
        try:
            session.sql(COUNT)
        except Exception as error:  # noqa: BLE001 - recorded for assertion
            errors.append(type(error))

    thread = threading.Thread(target=run)
    thread.start()
    started.wait(1.0)
    row = None
    deadline = time.time() + 5.0
    while time.time() < deadline:
        rows = db.activity()
        if rows and rows[0]["partitions_scanned"] > 0:
            row = rows[0]
            break
        time.sleep(0.005)
    assert row is not None, "query never became visible mid-flight"
    assert row["session"] == "bg"
    assert row["phase"].startswith("slice:")
    assert row["cancellable"] is True
    assert 0 < row["partitions_scanned"] <= row["partitions_eligible"] == 24
    assert row["elapsed_s"] > 0.0 and row["queued_s"] is not None
    assert db.cancel_query(row["query_id"]) is True
    thread.join(timeout=10.0)
    assert errors == [QueryCancelled]
    assert db.activity() == []
    assert db.live.failed == 1
    db.serve().close()


def test_live_gauge_sources_cover_serving():
    db = make_orders_db(rows=100, num_segments=2)
    values = db.live.sample_now()
    # no server open: serving sources skip the tick rather than lie
    assert values["queue_depth"] is None
    assert values["inflight_admitted"] is None
    assert "pool_busy_fraction" not in values
    session = db.session(name="gauges")
    session.sql(COUNT)
    values = db.live.sample_now()
    assert values["queue_depth"] == 0.0
    assert values["inflight_admitted"] == 0.0
    session.sql(COUNT, cache="results")
    session.sql(COUNT, cache="results")
    values = db.live.sample_now()
    assert 0.0 < values["cache_hit_rate"] <= 1.0
    db.serve().close()
