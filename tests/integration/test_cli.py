"""The interactive shell session logic (driven without a terminal)."""

import pytest

from repro.cli import ReplSession


@pytest.fixture()
def session() -> ReplSession:
    repl = ReplSession()
    repl.handle_line("\\demo")
    return repl


def test_demo_and_query(session):
    output = session.handle_line(
        "SELECT avg(amount) FROM orders "
        "WHERE date BETWEEN '10-01-2013' AND '12-31-2013';"
    )
    assert "avg" in output
    assert "partitions scanned: 3" in output
    assert "(1 rows)" in output


def test_multiline_statement(session):
    assert session.handle_line("SELECT count(*)") == ""
    assert session.prompt != "repro=# "
    output = session.handle_line("FROM orders;")
    assert "5000" in output


def test_blank_line_submits(session):
    session.handle_line("SELECT count(*) FROM date_dim")
    output = session.handle_line("")
    assert "730" in output


def test_describe(session):
    listing = session.handle_line("\\d")
    assert "orders" in listing and "24 parts" in listing
    detail = session.handle_line("\\d orders")
    assert "date" in detail and "leaves" in detail
    assert "unknown table" in session.handle_line("\\d nope")


def test_explain_and_optimizer_switch(session):
    plan = session.handle_line("\\explain SELECT count(*) FROM orders;")
    assert "DynamicScan" in plan
    assert "planner" in session.handle_line("\\optimizer planner")
    plan = session.handle_line("\\explain SELECT count(*) FROM orders")
    assert "LeafScan" in plan
    assert "unknown optimizer" in session.handle_line("\\optimizer foo")


def test_timing_toggle(session):
    assert "on" in session.handle_line("\\timing")
    output = session.handle_line("SELECT count(*) FROM orders;")
    assert "time:" in output


def test_errors_are_reported_not_raised(session):
    output = session.handle_line("SELECT zzz FROM orders;")
    assert output.startswith("ERROR (")
    assert session.errors == 1
    assert "unknown command" in session.handle_line("\\frobnicate")


def test_error_lines_carry_the_failing_stage(session):
    assert session.handle_line("SELEC 1;").startswith("ERROR (sql):")
    assert session.handle_line("SELECT zzz FROM orders;").startswith(
        "ERROR (bind):"
    )
    assert session.handle_line(
        "SELECT count(*) FROM no_such_table;"
    ).startswith("ERROR (")


def test_set_inject_fault_and_failover(session):
    out = session.handle_line(
        "SET inject_fault scan_row segment=1 mode=fail_once;"
    )
    assert "armed" in out
    output = session.handle_line("SELECT count(*) FROM orders;")
    assert "5000" in output
    assert "resilience:" in output and "1 failovers" in output
    health = session.handle_line("\\health")
    assert "down" in health
    session.db.health.recover_all()
    assert "disarmed" in session.handle_line("SET inject_fault off;")


def test_set_inject_fault_rejects_bad_input(session):
    assert session.handle_line("SET inject_fault bogus_point;").startswith(
        "ERROR (sql):"
    )
    assert session.handle_line(
        "SET inject_fault scan_row mode=sometimes;"
    ).startswith("ERROR (sql):")
    assert session.handle_line(
        "SET inject_fault scan_row segment=x;"
    ).startswith("ERROR (sql):")


def test_set_guardrails(session):
    assert "0.001" in session.handle_line("SET timeout_seconds 0.001;")
    # A deliberately slow query: joins without the fast path, so the
    # per-row tick has time to observe the deadline.
    output = session.handle_line(
        "SELECT count(*) FROM orders o, orders_fk f "
        "WHERE o.order_id = f.order_id;"
    )
    assert output.startswith("ERROR (execution):")
    assert "timeout" in output
    assert "off" in session.handle_line("SET timeout_seconds off;")

    assert "10" in session.handle_line("SET max_rows 10;")
    output = session.handle_line(
        "SELECT count(*) FROM orders o, orders_fk f "
        "WHERE o.order_id = f.order_id;"
    )
    assert output.startswith("ERROR (execution):")
    assert "max_rows" in output
    assert "off" in session.handle_line("SET max_rows off;")
    output = session.handle_line("SELECT count(*) FROM orders;")
    assert "5000" in output


def test_quit():
    repl = ReplSession()
    assert repl.handle_line("\\q") == "bye"
    assert repl.done


def test_help_and_empty():
    repl = ReplSession()
    assert "Meta commands" in repl.handle_line("\\help")
    assert repl.handle_line("") == ""
    assert "no tables" in repl.handle_line("\\d")


def test_explain_statement(session):
    plan = session.handle_line("EXPLAIN SELECT count(*) FROM orders;")
    assert "DynamicScan" in plan
    assert "actual rows" not in plan  # plain EXPLAIN does not execute


def test_explain_analyze_statement(session):
    output = session.handle_line(
        "EXPLAIN ANALYZE SELECT avg(amount) FROM orders "
        "WHERE date BETWEEN '10-01-2013' AND '12-31-2013';"
    )
    assert "actual rows=" in output
    assert "partitions: 3/24" in output
    assert "Slice 0 (root):" in output
    assert "usage: EXPLAIN" in session.handle_line("explain;")
    assert session.handle_line("EXPLAIN ANALYZE SELECT nope;").startswith(
        "ERROR ("
    )


def test_explain_trace_statement(session):
    output = session.handle_line(
        "EXPLAIN (TRACE) SELECT count(*) FROM orders_fk, date_dim "
        "WHERE orders_fk.date_id = date_dim.date_id "
        "AND date_dim.year = 2013;"
    )
    assert "Optimization trace:" in output
    assert "Search summary:" in output
    assert "PartitionSelector" in output
    # the bare keyword spelling works too, and case is irrelevant
    output = session.handle_line(
        "explain trace SELECT count(*) FROM orders;"
    )
    assert "Search summary:" in output
    # EXPLAIN (TRACE) plans without executing
    assert "actual rows" not in output


def test_set_cache_and_cache_meta_command(session):
    # default: session follows the database default (off)
    out = session.handle_line("\\cache")
    assert out.startswith("session cache mode: off")
    assert "entries" in out and "hits" in out

    assert "cache is results" in session.handle_line("SET cache results;")
    query = "SELECT count(*) FROM orders WHERE date = '05-15-2013';"
    cold = session.handle_line(query)
    warm = session.handle_line(query)
    # the rows never change with the cache (the timing footer may)
    assert warm.splitlines()[:2] == cold.splitlines()[:2]
    view = session.handle_line("\\cache")
    assert "session cache mode: results" in view
    assert "cached statements" in view
    prom = session.handle_line("\\cache prometheus")
    assert "# TYPE repro_cache_hits_total counter" in prom
    assert 'repro_cache_entries{cache="results"} 1' in prom
    assert "ERROR (sql)" in session.handle_line("SET cache partitions;")

    # \stats surfaces the cache totals next to the query statistics
    stats = session.handle_line("\\stats")
    assert "hits" in stats and "\\cache for detail" in stats
    assert "repro_cache_hits_total" in session.handle_line("\\stats prometheus")

    assert "1 entries dropped" in session.handle_line("\\cache clear")
    assert "usage: \\cache" in session.handle_line("\\cache bogus")

    assert "ERROR (sql)" in session.handle_line("SET cache sideways;")
    assert "cache is off" in session.handle_line("SET cache off;")
    assert "database default" in session.handle_line("SET cache default;")


def test_cache_results_mode_in_shell(session):
    session.handle_line("SET cache results;")
    query = "SELECT count(*) FROM orders WHERE date = '05-15-2013';"
    cold = session.handle_line(query)
    warm = session.handle_line(query)
    assert warm.splitlines()[:2] == cold.splitlines()[:2]  # identical rows
    # DML invalidates: the count the shell shows moves with the data
    session.handle_line(
        "INSERT INTO orders VALUES (99001, 10.0, '05-15-2013');"
    )
    after = session.handle_line(query)
    assert after != warm


def test_stats_meta_command(session):
    session.handle_line("SELECT count(*) FROM orders;")
    session.handle_line("SELECT count(*) FROM orders;")
    session.handle_line("SELECT count(*) FROM date_dim;")
    output = session.handle_line("\\stats")
    assert output.startswith("query statistics (")
    assert "select count ( * ) from orders" in output
    prom = session.handle_line("\\stats prometheus")
    assert "# TYPE repro_query_calls_total counter" in prom
    assert "usage: \\stats" in session.handle_line("\\stats bogus")
    assert "reset" in session.handle_line("\\stats reset")
    assert "empty" in session.handle_line("\\stats")


# ---------------------------------------------------------------------------
# serving integration
# ---------------------------------------------------------------------------


def test_sessions_without_server(session):
    assert "no server running" in session.handle_line("\\sessions")


def test_sessions_meta_command_with_serving_session():
    from repro import Database

    db = Database(num_segments=4)
    repl = ReplSession(db, serving_session=db.session(name="shell"))
    repl.handle_line("\\demo")
    repl.handle_line("SELECT count(order_id) FROM orders;")
    listing = repl.handle_line("\\sessions")
    assert "serving:" in listing
    assert "shell" in listing
    assert "1 admitted" in listing
    db._server.close()


def test_stats_prometheus_includes_serving_families():
    from repro import Database

    db = Database(num_segments=4)
    repl = ReplSession(db, serving_session=db.session(name="scrape"))
    repl.handle_line("\\demo")
    repl.handle_line("SELECT count(order_id) FROM orders;")
    body = repl.handle_line("\\stats prometheus")
    assert "repro_serving_admitted_total 1" in body
    assert 'repro_serving_session_inflight{session="scrape"}' in body
    db._server.close()


def test_inject_fault_arms_the_serving_sessions_injector():
    from repro import Database

    db = Database(num_segments=4)
    serving_session = db.session(name="chaos")
    repl = ReplSession(db, serving_session=serving_session)
    repl.handle_line("\\demo")
    output = repl.handle_line("SET inject_fault scan_row transient;")
    assert "armed" in output
    assert serving_session.faults.specs()
    assert not db.faults.specs()  # database-wide injector untouched
    result = repl.handle_line("SELECT count(order_id) FROM orders;")
    assert "5000" in result
    assert "retries" in result  # the session-scoped fault fired
    db._server.close()


def test_serving_repl_reports_overload_as_typed_error():
    from repro import Database
    from repro.errors import ServerOverloaded

    db = Database(num_segments=4)
    server = db.serve(max_concurrent=1, max_queued=0, session_max_inflight=1)
    blocker = server.session(name="blocker")
    repl = ReplSession(db, serving_session=server.session(name="shed"))
    repl.handle_line("\\demo")
    slot = server.admission.acquire(blocker.session_id)
    try:
        output = repl.handle_line("SELECT count(order_id) FROM orders;")
    finally:
        server.admission.release(slot)
    assert output.startswith("ERROR (serving)")
    assert repl.errors == 1
    # the queue-full shed is the typed ServerOverloaded, stage "serving"
    assert ServerOverloaded.stage == "serving"
    server.close()
