"""Plan reuse: one prepared plan per statement shape.

A repeated shape runs its cached prepared plan with the new statement's
literals bound into the template's slots: no parse, bind, optimize,
validation or kernel rendering, one lexer pass.  Answers are checked
against SQLite, never against the engine's own cold path; a reused plan
is checked against a cold ``db.plan`` of the same text wherever the two
have one shape (bind peeking keeps the first statement's shape).
"""

from __future__ import annotations

import re
import sqlite3
import sys
import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro import types as t
from repro.catalog import DistributionPolicy, PartitionScheme, TableSchema
from repro.catalog import uniform_int_level
from repro.expr.codegen import KernelSource
from repro.optimizer.orca import OrcaOptimizer
from repro.physical.plan import Plan
from repro.sql import lexer
from repro.sql.binder import Binder
from repro.sql.parser import _Parser

COLUMNS = ("id", "a", "b")
ROWS = [(i, i % 40, (i * 7) % 13) for i in range(200)]


def _create(db: Database) -> None:
    db.create_table(
        "t",
        TableSchema.of(*((name, t.INT) for name in COLUMNS)),
        distribution=DistributionPolicy.hashed("id"),
        partition_scheme=PartitionScheme([uniform_int_level("a", 0, 40, 8)]),
    )


def _build(rows=ROWS) -> Database:
    db = Database(num_segments=4)
    _create(db)
    db.insert("t", rows)
    db.analyze()
    return db


def _count_calls(monkeypatch) -> Counter:
    """Wrap every front-end, planning and rendering step; returns the
    live call counter."""
    calls: Counter = Counter()

    def wrap(owner, name, label):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[label] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    wrap(lexer, "tokenize", "tokenize")
    wrap(_Parser, "parse_statement", "parse")
    wrap(Binder, "bind", "bind")
    wrap(OrcaOptimizer, "optimize", "optimize")
    wrap(Plan, "validate", "validate")
    wrap(KernelSource, "build", "build")
    return calls


@pytest.mark.parametrize(
    "first, second, params",
    [
        (
            "SELECT id, b FROM t WHERE a = 5 AND b > 3",
            "SELECT id, b FROM t WHERE a = 17 AND b > 9",
            None,
        ),
        (
            "SELECT count(*), sum(b) FROM t WHERE a BETWEEN 3 AND 9",
            "SELECT count(*), sum(b) FROM t WHERE a BETWEEN 11 AND 30",
            None,
        ),
        (
            "SELECT id FROM t WHERE a = $1 AND b < 6",
            "SELECT id FROM t WHERE a = $1 AND b < 11",
            ([4], [33]),
        ),
        ("UPDATE t SET b = 1 WHERE a = 3", "UPDATE t SET b = 2 WHERE a = 4", None),
    ],
    ids=["point", "between-agg", "param", "update"],
)
def test_a_repeated_shape_skips_the_front_end_and_rendering(
    monkeypatch, first, second, params
):
    """The count gate: the second statement of a shape parses, binds,
    optimizes, validates and renders nothing, and is lexed once."""
    db = _build()
    reference = _build()
    first_params, second_params = params or (None, None)
    db.sql(first, params=first_params)
    reference.sql(first, params=first_params)
    expected = reference.sql(second, params=second_params).rows
    calls = _count_calls(monkeypatch)
    assert db.sql(second, params=second_params).rows == expected
    assert calls == Counter({"tokenize": 1})
    assert db.plans.stats.hits == 1


def test_a_hit_plan_holds_its_own_literals():
    """EXPLAIN ANALYZE of a reused plan, the selectors and direct dispatch
    see the second statement's literals, not the first's."""
    db = _build()
    db.sql("SELECT id FROM t WHERE a = 5 AND id = 5", cache="results")
    result = db.sql("SELECT id FROM t WHERE a = 7 AND id = 7", cache="results")
    assert result.rows == [(7,)]
    assert result.metrics.cache_summary["plan"] == "reused"
    text = result.explain_analyze()
    assert "(t.a = 7)" in text and "(t.a = 5)" not in text
    assert "plan=reused" in text
    assert result.partitions_scanned("t") == 1
    assert result.metrics.slices[0]["segments_dispatched"] == 1


def test_equal_literals_split_the_shape():
    """``a = 5 AND b = 5`` may share one Literal node in the plan, so it is
    a different shape from ``a = 5 AND b = 7``."""
    db = _build()
    reference = _build()
    for sql in (
        "SELECT id FROM t WHERE a = 5 AND b = 5",
        "SELECT id FROM t WHERE a = 5 AND b = 7",
        "SELECT id FROM t WHERE a = 6 AND b = 6",
        "SELECT id FROM t WHERE a = 8 AND b = 9",
    ):
        assert sorted(db.sql(sql).rows) == sorted(reference.sql(sql).rows)
    assert (db.plans.stats.misses, db.plans.stats.hits) == (2, 2)


def test_limit_and_in_list_values_stay_in_the_key():
    db = _build()
    assert len(db.sql("SELECT id FROM t WHERE a = 5 LIMIT 2").rows) == 2
    assert len(db.sql("SELECT id FROM t WHERE a = 6 LIMIT 3").rows) == 3
    assert db.sql("SELECT count(*) FROM t WHERE a IN (1, 2)").rows == [(10,)]
    assert db.sql("SELECT count(*) FROM t WHERE a IN (1, 3)").rows == [(10,)]
    assert db.sql("SELECT count(*) FROM t WHERE a IN (4, 3)").rows == [(10,)]
    assert db.plans.stats.hits == 0


def _miss_after(db, change) -> bool:
    sql = "SELECT count(*) FROM t WHERE a = 3"
    db.sql(sql)
    change()
    before = db.plans.stats.misses
    db.sql(sql)
    return db.plans.stats.misses == before + 1


def test_ddl_analyze_and_optimizer_options_force_a_miss_and_dml_does_not():
    db = _build()
    other = TableSchema.of(("x", t.INT))
    assert _miss_after(db, lambda: db.create_table("other", other))
    assert _miss_after(db, lambda: db.drop_table("other"))
    assert _miss_after(db, db.analyze)
    assert not _miss_after(db, lambda: db.sql("INSERT INTO t VALUES (900, 3, 1)"))
    assert not _miss_after(db, lambda: db.sql("DELETE FROM t WHERE id = 900"))
    sql = "SELECT count(*) FROM t WHERE a = 3"
    before = db.plans.stats.misses
    db.sql(sql, enable_partition_elimination=False)
    assert db.plans.stats.misses == before + 1


def test_traced_and_measured_runs_plan_afresh():
    db = _build()
    sql = "SELECT count(*) FROM t WHERE a = 3"
    db.sql(sql)
    traced = db.sql(sql, trace=True)
    assert "optimize" in traced.trace.phase_names()
    measured = db.sql(sql, analyze=True, cache="results")
    assert measured.metrics.cache_summary["plan"] == "planned"
    assert db.plans.stats.hits == 0


def test_sessions_share_one_shape_while_analyze_runs():
    """Two sessions run one shape with different literals while a third
    thread re-analyzes: every answer is its own literal's."""
    db = _build()
    expected = {a: sum(1 for row in ROWS if row[1] == a) for a in range(40)}
    errors: list[BaseException] = []
    stop = threading.Event()

    def reader(offset: int) -> None:
        session = db.session()
        try:
            for step in range(60):
                a = (offset + 7 * step) % 40
                rows = session.sql(f"SELECT count(*) FROM t WHERE a = {a}").rows
                assert rows == [(expected[a],)], (a, rows)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)
        finally:
            session.close()

    def analyzer() -> None:
        # each ANALYZE bumps the statistics version, so the readers both
        # miss (after one) and hit (between two)
        while not stop.wait(0.005):
            db.analyze()

    threads = [threading.Thread(target=reader, args=(k,)) for k in (0, 3)]
    churn = threading.Thread(target=analyzer)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    try:
        churn.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        churn.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        stop.set()
    assert not any(thread.is_alive() for thread in [*threads, churn])
    db.serve().close()
    assert errors == []
    assert db.plans.stats.hits > 0


# -- the oracle: interleaved shapes, DML, ANALYZE and re-creation vs SQLite --

values = st.integers(min_value=-5, max_value=45)
shapes = [
    st.tuples(st.just("point"), values, values),
    st.tuples(st.just("between"), values, values),
    st.tuples(st.just("in"), st.lists(values, min_size=1, max_size=3)),
    st.tuples(st.just("update"), values, values),
    st.tuples(st.just("delete"), values, values),
]
steps = st.one_of(
    *shapes,
    *shapes,  # twice: repeated shapes are what the property is about
    # a row outside the partitioned range [0, 40) has no leaf to live in
    st.tuples(st.just("insert"), st.integers(0, 39), values),
    st.tuples(st.just("analyze")),
    st.tuples(st.just("recreate")),
)


def _masked(serialized: str) -> str:
    """A serialized plan with its numbers blanked: its shape."""
    return re.sub(r"\d+", "#", serialized)


def _statement(step) -> str | None:
    kind = step[0]
    if kind == "point":
        return f"SELECT id, a, b FROM t WHERE a = {step[1]} AND b = {step[2]}"
    if kind == "between":
        return f"SELECT id, b FROM t WHERE a BETWEEN {step[1]} AND {step[2]}"
    if kind == "in":
        return f"SELECT id FROM t WHERE a IN ({', '.join(map(str, step[1]))})"
    if kind == "update":
        return f"UPDATE t SET b = {step[2]} WHERE a = {step[1]}"
    if kind == "delete":
        return f"DELETE FROM t WHERE a = {step[1]} AND b = {step[2]}"
    return None


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(program=st.lists(steps, min_size=1, max_size=25))
def test_reused_plans_answer_like_sqlite(program):
    db = _build()
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (id, a, b)")
    lite.executemany("INSERT INTO t VALUES (?, ?, ?)", ROWS)
    executed: list[Plan] = []
    execute = db.executor.execute

    def spy(plan, *args, **kwargs):
        executed.append(plan)
        return execute(plan, *args, **kwargs)

    db.executor.execute = spy  # type: ignore[method-assign]
    next_id = 1000
    for step in program:
        kind = step[0]
        if kind == "analyze":
            db.analyze()
            continue
        if kind == "recreate":
            rows = lite.execute("SELECT id, a, b FROM t").fetchall()
            db.drop_table("t")
            _create(db)
            db.insert("t", rows)
            continue
        if kind == "insert":
            sql = f"INSERT INTO t VALUES ({next_id}, {step[1]}, {step[2]})"
            next_id += 1
            assert db.sql(sql).rows == [(lite.execute(sql).rowcount,)]
            continue
        sql = _statement(step)
        hits = db.plans.stats.hits
        ours = db.sql(sql).rows
        if kind in ("update", "delete"):
            assert ours == [(lite.execute(sql).rowcount,)], sql
        else:
            assert sorted(ours) == sorted(lite.execute(sql).fetchall()), sql
        if db.plans.stats.hits > hits:
            # The reused plan is the first statement's shape with this
            # statement's literals.  Where a cold plan of this text has that
            # shape too, both serialize identically; a cost tie can give the
            # cold plan another shape (a Project above or below the Gather),
            # and the reused one keeps the first statement's.
            reused, cold = executed[-1].serialize(), db.plan(sql).serialize()
            if _masked(reused) == _masked(cold):
                assert reused == cold, sql
    state = sorted(lite.execute("SELECT * FROM t").fetchall())
    assert sorted(db.sql("SELECT * FROM t").rows) == state

