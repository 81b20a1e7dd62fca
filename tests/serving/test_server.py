"""The QueryServer submit path: concurrent correctness, overload
behaviour, metrics and lifecycle."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ReproError, ServerOverloaded
from repro.obs.prom import export_prometheus
from repro.serving import ServingConfig

QUERY = "SELECT avg(amount) FROM orders"
COUNT = "SELECT count(order_id) FROM orders"


def test_concurrent_sessions_return_identical_results(fresh_db):
    reference = fresh_db.sql(QUERY).rows
    server = fresh_db.serve(max_concurrent=3)
    sessions = [server.session(name=f"client-{i}") for i in range(3)]
    results: list = []
    lock = threading.Lock()

    def work(session):
        for _ in range(4):
            rows = session.sql(QUERY).rows
            with lock:
                results.append(rows)

    threads = [threading.Thread(target=work, args=(s,)) for s in sessions]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive()
    assert len(results) == 12
    assert all(rows == reference for rows in results)
    stats = server.stats_dict()
    assert stats["admission"]["admitted"] == 12
    assert sum(stats["admission"]["rejected"].values()) == 0
    server.close()


def test_overload_sheds_cleanly_and_admitted_queries_stay_correct(fresh_db):
    reference = fresh_db.sql(QUERY).rows
    fresh_db.storage.io_latency_s = 0.01
    server = fresh_db.serve(
        max_concurrent=1,
        max_queued=1,
        queue_timeout_s=0.05,
        session_max_inflight=1,
    )
    sessions = [server.session(name=f"burst-{i}") for i in range(6)]
    admitted: list = []
    shed: list = []
    lock = threading.Lock()

    def work(session):
        try:
            rows = session.sql(QUERY).rows
            with lock:
                admitted.append(rows)
        except ServerOverloaded as exc:
            with lock:
                shed.append(exc.reason)

    threads = [threading.Thread(target=work, args=(s,)) for s in sessions]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive()
    # every query either succeeded with correct rows or was shed typed
    assert len(admitted) + len(shed) == 6
    assert shed, "burst against a 1-slot server must shed something"
    assert set(shed) <= {"queue_full", "queue_timeout"}
    assert all(rows == reference for rows in admitted)
    stats = server.stats_dict()["admission"]
    assert stats["admitted"] == len(admitted)
    assert sum(stats["rejected"].values()) == len(shed)
    server.close()


def test_serving_metrics_section_schema_v6(fresh_db):
    session = fresh_db.session(name="observer")
    exported = session.sql(COUNT).metrics.to_dict()
    serving = exported["serving"]
    assert serving["session"] == "observer"
    assert serving["queued_seconds"] >= 0.0
    assert serving["admitted_total"] >= 1
    # a direct (non-serving) execution carries no serving section
    assert fresh_db.sql(COUNT).metrics.to_dict()["serving"] is None
    fresh_db._server.close()


def test_prometheus_families(fresh_db):
    server = fresh_db.serve()
    session = server.session(name="prom")
    session.sql(COUNT)
    body = export_prometheus(fresh_db, "serving")
    for family in (
        "repro_serving_admitted_total",
        "repro_serving_rejected_total",
        "repro_serving_queued_seconds_total",
        "repro_serving_queue_depth",
        "repro_serving_inflight",
        "repro_serving_sessions_open",
        "repro_serving_session_inflight",
        "repro_serving_session_latency_seconds",
    ):
        assert f"# TYPE {family}" in body
    assert 'repro_serving_session_inflight{session="prom"} 0' in body
    # the shared exporter renders labels key-sorted
    assert 'quantile="0.5",session="prom"' in body
    server.close()


def test_sessions_sharing_a_name_export_one_series(fresh_db):
    # Prometheus rejects a scrape that repeats a series, so two open
    # sessions with one name are summed under that name
    first = fresh_db.session(name="app")
    second = fresh_db.session(name="app")
    first.sql(COUNT)
    second.sql(COUNT)
    snapshot = fresh_db.serve().stats_dict()
    assert snapshot["open_sessions"]["app"]["admitted"] == 2
    assert snapshot["sessions_open"] == 2
    body = export_prometheus(fresh_db)
    series = [
        line.rsplit(" ", 1)[0]
        for line in body.splitlines()
        if not line.startswith("#")
    ]
    assert len(series) == len(set(series))
    assert 'repro_serving_session_inflight{session="app"} 0' in body
    assert "repro_serving_sessions_open 2" in body
    fresh_db.serve().close()


def test_server_lifecycle_and_reconfiguration(fresh_db):
    server = fresh_db.serve(max_concurrent=2)
    assert fresh_db.serve() is server
    with pytest.raises(ReproError):
        fresh_db.serve(max_concurrent=8)  # reconfigure while running
    session = server.session(name="left-open")
    server.close()
    assert server.closed
    assert session.closed
    with pytest.raises(ReproError):
        server.session(name="after-close")
    with pytest.raises(ReproError):
        server.submit(session, COUNT)
    # a fresh server can be configured after close
    second = fresh_db.serve(max_concurrent=8)
    assert second is not server
    assert second.config.max_concurrent == 8
    second.close()


def test_serving_config_explicit_object(fresh_db):
    from repro.serving import QueryServer

    server = QueryServer(fresh_db, ServingConfig(max_concurrent=1))
    with server, server.session(name="ctx") as session:
        assert session.sql(COUNT).rows[0][0] == 1500
    assert server.closed
