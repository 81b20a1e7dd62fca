"""Session isolation: settings, fault scope, cancel scope, lifecycle."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import QueryCancelled, QueryTimeout, ReproError
from repro.resilience.faults import SCAN_ROW

QUERY = "SELECT avg(amount) FROM orders"


def test_session_settings_are_isolated(fresh_db):
    server = fresh_db.serve()
    strict = server.session(name="strict", timeout=0.0)
    relaxed = server.session(name="relaxed")
    with pytest.raises(QueryTimeout):
        strict.sql(QUERY)
    result = relaxed.sql(QUERY)
    assert result.rows
    # per-call override beats the session default
    assert strict.sql(QUERY, timeout=30.0).rows == result.rows
    server.close()


def test_session_faults_never_leak_into_other_sessions(fresh_db):
    server = fresh_db.serve()
    chaotic = server.session(name="chaotic")
    calm = server.session(name="calm")
    chaotic.faults.arm(SCAN_ROW, segment=1, transient=True)
    baseline = calm.sql(QUERY)
    hit = chaotic.sql(QUERY)
    # the armed fault fired for its own session's query only ...
    assert chaotic.faults.fired_by_point.get(SCAN_ROW, 0) >= 1
    assert hit.metrics.retry_count >= 1
    assert baseline.metrics.retry_count == 0
    # ... and the database-wide injector never saw it
    assert fresh_db.faults.fired_by_point.get(SCAN_ROW, 0) == 0
    # correctness is preserved through the retry
    assert hit.rows == baseline.rows
    server.close()


def test_cancel_kills_only_this_sessions_inflight_queries(fresh_db):
    fresh_db.storage.io_latency_s = 0.005
    server = fresh_db.serve(max_concurrent=4)
    victim = server.session(name="victim")
    bystander = server.session(name="bystander")
    outcomes: dict[str, object] = {}

    def run(name, session):
        try:
            outcomes[name] = session.sql(QUERY).rows
        except QueryCancelled:
            outcomes[name] = "cancelled"

    threads = [
        threading.Thread(target=run, args=("victim", victim)),
        threading.Thread(target=run, args=("bystander", bystander)),
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 5.0
    while victim.inflight == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert victim.cancel() >= 1
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    assert outcomes["victim"] == "cancelled"
    assert isinstance(outcomes["bystander"], list)
    assert outcomes["bystander"]
    server.close()


def test_closed_session_rejects_submits(fresh_db):
    server = fresh_db.serve()
    session = server.session(name="short-lived")
    session.close()
    with pytest.raises(ReproError):
        session.sql(QUERY)
    assert session.name not in server.stats_dict()["open_sessions"]
    server.close()


def test_session_context_manager_closes(fresh_db):
    server = fresh_db.serve()
    with server.session(name="scoped") as session:
        assert session.sql("SELECT count(order_id) FROM orders").rows
    assert session.closed
    server.close()


def test_database_session_shortcut_creates_server(fresh_db):
    session = fresh_db.session(name="direct")
    assert fresh_db._server is not None
    result = session.sql("SELECT count(order_id) FROM orders")
    assert result.rows[0][0] == 1500
    serving = result.metrics.to_dict()["serving"]
    assert serving["session"] == "direct"
    fresh_db._server.close()


# -- the shell's EXPLAIN ANALYZE is a served statement like any other ---------


def test_explain_analyze_goes_through_admission(fresh_db):
    from repro.cli import ReplSession

    session = fresh_db.session(name="shell")
    shell = ReplSession(fresh_db, serving_session=session)
    admitted = fresh_db.serve().admission.stats()["admitted"]
    output = shell.handle_line(f"EXPLAIN ANALYZE {QUERY};")
    assert "actual rows=" in output
    assert fresh_db.serve().admission.stats()["admitted"] == admitted + 1
    assert session.admitted == 1
    # the session's fault scope applies too, not the database-wide one
    session.faults.arm(SCAN_ROW, segment=1, transient=True)
    assert "Resilience:" in shell.handle_line(f"EXPLAIN ANALYZE {QUERY};")
    assert session.faults.fired_by_point.get(SCAN_ROW, 0) >= 1
    fresh_db.serve().close()


def test_session_cancel_reaches_explain_analyze(fresh_db):
    from repro.cli import ReplSession

    fresh_db.storage.io_latency_s = 0.005
    session = fresh_db.session(name="shell")
    shell = ReplSession(fresh_db, serving_session=session)
    outputs: list[str] = []
    thread = threading.Thread(
        target=lambda: outputs.append(
            shell.handle_line(f"EXPLAIN ANALYZE {QUERY};")
        )
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while session.inflight == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert session.inflight == 1  # it runs inside the session's cancel scope
    assert session.cancel() == 1
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert outputs[0].startswith("ERROR (execution):"), outputs
    assert "cancel" in outputs[0]
    fresh_db.serve().close()
