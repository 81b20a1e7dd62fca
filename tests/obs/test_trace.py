"""Query-lifecycle tracing: spans, optimizer events, EXPLAIN (TRACE).

The acceptance scenario is a fixed two-table partitioned join (orders_fk
⋈ date_dim, the paper's Figure 3 shape): tracing it must yield all six
lifecycle phases in order (parse, bind, optimize with
place_partition_selectors nested, execute, and one span per slice), a
populated optimizer search summary with at least one PartitionSelector
enforcer event, and a renderable EXPLAIN (TRACE).
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs import Tracer, activate
from repro.obs import opt_events
from repro.obs import trace as obs_trace
from tests.serving.conftest import make_orders_db

JOIN_SQL = (
    "SELECT count(*) FROM orders_fk, date_dim "
    "WHERE orders_fk.date_id = date_dim.date_id AND date_dim.year = 2013"
)

LIFECYCLE = [
    "parse",
    "bind",
    "optimize",
    "place_partition_selectors",
    "execute",
]


def _is_subsequence(needle: list[str], haystack: list[str]) -> bool:
    it = iter(haystack)
    return all(name in it for name in needle)


# ---------------------------------------------------------------------------
# Tracer unit behaviour
# ---------------------------------------------------------------------------


def test_tracing_off_by_default():
    assert obs_trace.current() is None
    # The off path hands back the shared no-op span: no allocation, no
    # recording.
    handle = obs_trace.span("anything", key="value")
    assert handle is obs_trace._NULL_SPAN
    with handle:
        pass
    assert obs_trace.current() is None


def test_activate_scopes_and_restores():
    outer, inner = Tracer(), Tracer()
    with activate(outer):
        assert obs_trace.current() is outer
        with activate(inner):
            assert obs_trace.current() is inner
        assert obs_trace.current() is outer
    assert obs_trace.current() is None


def test_activate_none_is_a_noop():
    with activate(None) as tracer:
        assert tracer is None
        assert obs_trace.current() is None


def test_nested_spans_record_parents_and_depth():
    tracer = Tracer()
    with activate(tracer):
        with obs_trace.span("outer", phase=1):
            with obs_trace.span("inner"):
                pass
        with obs_trace.span("sibling"):
            pass
    outer, inner, sibling = tracer.spans
    assert outer.parent_id is None and outer.depth == 0
    assert inner.parent_id == outer.span_id and inner.depth == 1
    assert sibling.parent_id is None
    assert outer.attrs == {"phase": 1}
    assert all(s.end_s is not None for s in tracer.spans)
    assert outer.duration_s >= inner.duration_s >= 0.0


def test_exception_unwind_closes_dangling_spans():
    tracer = Tracer()
    with activate(tracer):
        with pytest.raises(RuntimeError):
            with obs_trace.span("outer"):
                with obs_trace.span("inner"):
                    raise RuntimeError("boom")
    assert all(s.end_s is not None for s in tracer.spans)
    assert tracer._stack == []


def test_jsonl_export_is_one_stable_object_per_span():
    tracer = Tracer()
    with activate(tracer):
        with obs_trace.span("a", n=1):
            with obs_trace.span("b"):
                pass
    lines = tracer.to_jsonl().splitlines()
    assert len(lines) == len(tracer.spans) == 2
    decoded = [json.loads(line) for line in lines]
    for record in decoded:
        assert set(record) == {
            "span_id",
            "parent_id",
            "name",
            "depth",
            "start_ms",
            "duration_ms",
            "attrs",
        }
        # stable export: keys serialized in sorted order
        assert list(record) == sorted(record)
    assert decoded[0]["name"] == "a"
    assert decoded[1]["parent_id"] == decoded[0]["span_id"]


# ---------------------------------------------------------------------------
# Acceptance: the full lifecycle on a partitioned join
# ---------------------------------------------------------------------------


def test_traced_join_covers_the_six_lifecycle_phases(orders_db):
    result = orders_db.sql(JOIN_SQL, trace=True)
    tracer = result.trace
    assert tracer is not None
    assert _is_subsequence(LIFECYCLE, tracer.phase_names())
    # phases carry real wall time
    for name in LIFECYCLE:
        found = tracer.find(name)
        assert found is not None and found.end_s is not None
    # per-slice child spans hang under execute
    execute = tracer.find("execute")
    slices = [s for s in tracer.spans if s.name.startswith("slice:")]
    assert slices, "per-slice spans recorded"
    assert all(s.parent_id == execute.span_id for s in slices)
    assert tracer.find("slice:0") is not None  # root slice
    # place_partition_selectors nests inside optimize
    placement = tracer.find("place_partition_selectors")
    assert placement.parent_id == tracer.find("optimize").span_id
    # the plan goes from optimize straight to execute
    assert tracer.find("lower") is None


def test_traced_join_optimizer_summary(orders_db):
    result = orders_db.sql(JOIN_SQL, trace=True)
    summary = result.trace.optimizer.summary()
    assert summary["groups"] > 0
    assert summary["group_expressions"] > summary["groups"]
    assert summary["rule_firings"], "at least one rule fired"
    assert sum(summary["rule_firings"].values()) > 0
    assert summary["property_requests"] > 0
    assert summary["winners_costed"] > 0
    assert summary["enforcers"].get(opt_events.PARTITION_SELECTOR, 0) >= 1
    assert summary["partition_selector_events"], (
        "PartitionSelector enforcer decisions are itemized"
    )
    assert summary["optimization_seconds"] > 0.0


def test_traced_metrics_export_carries_trace_sections(orders_db):
    result = orders_db.sql(JOIN_SQL, trace=True)
    data = json.loads(result.metrics.to_json())
    # top-level phases (nested spans such as place_partition_selectors and
    # the slices live in the span list, under their parents)
    assert _is_subsequence(
        ["parse", "bind", "optimize", "execute"],
        data["trace"]["phases"],
    )
    names = [s["name"] for s in data["trace"]["spans"]]
    assert _is_subsequence(LIFECYCLE, names)
    assert len(data["trace"]["spans"]) == len(result.trace.spans)
    assert data["optimizer"]["groups"] > 0


def test_untraced_run_attaches_nothing(orders_db):
    result = orders_db.sql(JOIN_SQL)
    assert result.trace is None
    assert result.metrics.trace_summary is None
    assert result.metrics.optimizer_summary is None


def test_explain_trace_renders(orders_db):
    text = orders_db.explain_trace(JOIN_SQL)
    assert "Optimization trace:" in text
    assert "optimize:" in text
    assert "place_partition_selectors:" in text
    assert "Search summary:" in text
    assert "rule firings:" in text
    assert "enforcers:" in text
    assert "PartitionSelector" in text
    assert "optimization time:" in text


def test_trace_spans_on_static_elimination_query(orders_db):
    """A single-table query with a WHERE on the partition key still covers
    the lifecycle (static elimination; Figure 1 shape)."""
    result = orders_db.sql(
        "SELECT count(*) FROM orders "
        "WHERE date BETWEEN '10-01-2013' AND '12-31-2013'",
        trace=True,
    )
    assert _is_subsequence(LIFECYCLE, result.trace.phase_names())
    assert result.trace.seconds("optimize") > 0.0


# ---------------------------------------------------------------------------
# Activation is per thread
# ---------------------------------------------------------------------------

AVG_SQL = "SELECT avg(amount) FROM orders"
ROOT_PHASES = ["parse", "bind", "optimize", "execute"]


def _overlapped(db, first_traced: bool, second_traced: bool):
    """Run ``AVG_SQL`` on two threads: the second starts once the first is
    executing its scan slice (it sleeps ``io_latency_s`` per leaf), so the
    two statements overlap.  Returns both results."""
    results = {}

    def run(name, traced):
        results[name] = db.sql(AVG_SQL, trace=traced)

    first = threading.Thread(target=run, args=("first", first_traced))
    first.start()
    deadline = time.monotonic() + 10
    while not any(row["phase"] == "slice:1" for row in db.activity()):
        assert first.is_alive() and time.monotonic() < deadline
        time.sleep(0)
    second = threading.Thread(target=run, args=("second", second_traced))
    second.start()
    for thread in (first, second):
        thread.join(timeout=10)
    assert not first.is_alive() and not second.is_alive()
    return results["first"], results["second"]


@pytest.fixture
def slow_orders_db():
    db = make_orders_db()
    db.storage.io_latency_s = 0.002
    return db


def test_two_traced_threads_keep_their_own_spans(slow_orders_db):
    """Each trace holds exactly its own statement's spans, as when traced
    alone, and no tracer stays installed once both threads are done."""
    alone = slow_orders_db.sql(AVG_SQL, trace=True).metrics.trace_summary
    assert alone["phases"] == ROOT_PHASES and len(alone["spans"]) == 7
    first, second = _overlapped(slow_orders_db, True, True)
    for result in (first, second):
        assert result.metrics.trace_summary["phases"] == ROOT_PHASES
        assert len(result.trace.spans) == 7
    assert obs_trace.current() is None
    slow_orders_db.sql(AVG_SQL)
    assert len(first.trace.spans) == len(second.trace.spans) == 7


@pytest.mark.parametrize("traced", ["first", "second"])
def test_untraced_thread_adds_nothing_to_a_traced_one(slow_orders_db, traced):
    first, second = _overlapped(
        slow_orders_db, traced == "first", traced == "second"
    )
    result, other = (first, second) if traced == "first" else (second, first)
    assert other.trace is None
    assert result.metrics.trace_summary["phases"] == ROOT_PHASES
    assert len(result.trace.spans) == 7
    assert obs_trace.current() is None
