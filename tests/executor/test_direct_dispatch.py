"""Direct dispatch: a slice runs only on the segments its distribution-key
predicate hashes to, and nothing else can tell.

Every statement is compared with the *all-segments answer*: the same plan
with the dispatch restriction stripped from its Motions, executed on every
segment as before this feature.  Rows and ``partitions_scanned`` must be
equal; only ``segments_dispatched`` may differ.  The grid crosses the
number of client sessions issuing each statement at once, batch width,
cache mode (a second key and a replay of the first follow the cold run)
and the health of the dispatched segment.
"""

from __future__ import annotations

import datetime

import pytest

from repro import Database
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    monthly_range_level,
)
from repro.physical.ops import Motion
from repro.resilience import FAIL_ONCE, SCAN_ROW
from repro.storage.distribution import segment_for
from tests.sessions import at_once, executed

SEGMENTS = 4
START = datetime.date(2013, 1, 1)
ROWS = 240


def _db() -> Database:
    db = Database(num_segments=SEGMENTS)
    db.create_table(
        "dim",
        TableSchema.of(("key", t.INT), ("grp", t.INT)),
        distribution=DistributionPolicy.hashed("key"),
    )
    db.create_table(
        "events",  # partitioned by day, distributed on the lookup key
        TableSchema.of(("key", t.INT), ("day", t.DATE), ("val", t.FLOAT)),
        distribution=DistributionPolicy.hashed("key"),
        partition_scheme=PartitionScheme([monthly_range_level("day", START, 12)]),
    )
    db.create_table(
        "rep",
        TableSchema.of(("key", t.INT), ("grp", t.INT)),
        distribution=DistributionPolicy.replicated(),
    )
    db.create_table(
        "facts",
        TableSchema.of(("id", t.INT), ("key", t.INT)),
        distribution=DistributionPolicy.hashed("id"),
    )
    db.insert("dim", [(k, k % 13) for k in range(ROWS)] + [(None, 99)])
    db.insert(
        "events",
        [
            (k % 40, START + datetime.timedelta(days=(k * 7) % 360), float(k))
            for k in range(ROWS * 2)
        ],
    )
    db.insert("rep", [(k, k % 5) for k in range(20)])
    db.insert("facts", [(i, i % 50) for i in range(ROWS)])
    db.analyze()
    return db


@pytest.fixture
def db() -> Database:
    return _db()


def targets(*values) -> int:
    return len({segment_for(v, SEGMENTS) for v in values})


#: (sql, params, segments_dispatched) — dispatched shapes
DISPATCHED = [
    ("SELECT grp FROM dim WHERE key = 7", None, 1),
    ("SELECT key, grp FROM dim WHERE key IN (3, 7, 11, 200, 999)", None,
     targets(3, 7, 11, 200, 999)),
    ("SELECT count(*) FROM dim WHERE key = $1", (7,), 1),
    ("SELECT grp FROM dim WHERE key = $1 AND grp >= 0", (21,), 1),
    ("SELECT grp FROM dim WHERE key = 5 OR key = 6", None, targets(5, 6)),
    ("SELECT grp FROM dim WHERE key = NULL", None, 0),
    ("SELECT count(*), sum(grp) FROM dim WHERE key = NULL", None, 0),
    ("SELECT count(*), sum(val) FROM events WHERE key = 7 "
     "AND day BETWEEN '2013-02-01' AND '2013-05-31'", None, 1),
]

#: shapes that must keep running everywhere
EVERYWHERE = [
    ("SELECT grp FROM dim WHERE key = 7.0", None),  # inexact coercion
    ("SELECT key FROM dim WHERE key IN (7.0, 8)", None),
    ("SELECT key FROM dim WHERE key = 7 OR grp = 3", None),  # OR across columns
    ("SELECT key FROM dim WHERE key BETWEEN 5 AND 9", None),  # a range
    ("SELECT key FROM dim WHERE key + 0 = 7", None),  # expression on the column
    ("SELECT grp FROM dim WHERE key IS NULL", None),  # NULL keys live on segment 0
    ("SELECT id FROM facts WHERE key = 7", None),  # not the distribution column
]


def all_segments_answer(db: Database, sql: str, params, **settings):
    """The same plan run on every segment: dispatch stripped."""
    plan = db.plan(sql, parameter_count=len(params) if params else 0)
    for op in plan.walk():
        if isinstance(op, Motion):
            op.dispatch = None
    return db.execute_plan(plan, params, **settings)


def assert_same_answer(result, reference):
    assert sorted(result.rows, key=repr) == sorted(reference.rows, key=repr)
    assert result.partitions_scanned() == reference.partitions_scanned()


@pytest.mark.parametrize("sessions", [1, 4])
@pytest.mark.parametrize("batch_size", [1, 1024])
@pytest.mark.parametrize("cache", ["off", "results"])
def test_dispatched_shapes_equal_the_all_segments_answer(
    db, sessions, batch_size, cache
):
    settings = dict(batch_size=batch_size)
    for sql, params, expected in DISPATCHED:
        reference = all_segments_answer(db, sql, params, **settings)
        assert reference.metrics.segments_dispatched == SEGMENTS
        results = at_once(
            sessions, lambda: db.sql(sql, params=params, cache=cache, **settings)
        )
        assert all(r.rows == results[0].rows for r in results), sql
        for result in executed(results):
            assert_same_answer(result, reference)
            totals = result.metrics.to_dict()["totals"]
            assert totals["segments_dispatched"] == expected, sql
            assert totals["partitions_scanned"] == reference.partitions_scanned()
            sending = [s for s in result.metrics.slices if s["id"] != 0]
            assert [s["segments_dispatched"] for s in sending] == [expected]
            # a scan node ran on exactly the dispatched segments
            scans = [
                n for n in result.metrics.nodes if n.op in ("Scan", "DynamicScan")
            ]
            assert sum(1 for n in scans for loops in n.loops if loops) == expected


@pytest.mark.parametrize("sessions", [1, 4])
@pytest.mark.parametrize("batch_size", [1, 1024])
def test_undispatchable_shapes_run_everywhere(db, sessions, batch_size):
    settings = dict(batch_size=batch_size)
    for sql, params in EVERYWHERE:
        reference = all_segments_answer(db, sql, params, **settings)
        for result in at_once(
            sessions, lambda: db.sql(sql, params=params, **settings)
        ):
            assert_same_answer(result, reference)
            assert result.metrics.segments_dispatched == SEGMENTS, sql
            assert all(
                s["segments_dispatched"] == SEGMENTS for s in result.metrics.slices
            ), sql
    assert db.sql("SELECT grp FROM dim WHERE key = 7.0").rows == [(7,)]
    assert db.sql("SELECT grp FROM dim WHERE key IS NULL").rows == [(99,)]


@pytest.mark.parametrize("sessions", [1, 4])
def test_a_slice_with_a_join_runs_everywhere(db, sessions):
    """The filtered dimension scan below the Broadcast is a slice of its
    own and is dispatched; the slice that joins is not."""
    sql = (
        "SELECT d.grp, f.id FROM dim d, facts f "
        "WHERE d.key = f.key AND d.key = 7"
    )
    reference = all_segments_answer(db, sql, None)
    for result in at_once(sessions, lambda: db.sql(sql)):
        assert_same_answer(result, reference)
        assert len(result.rows) == 5
        by_label = {
            s["label"]: s["segments_dispatched"] for s in result.metrics.slices
        }
        assert by_label["below BroadcastMotion"] == 1
        assert by_label["below GatherMotion"] == SEGMENTS  # the join's slice
        assert result.metrics.segments_dispatched == SEGMENTS


def test_null_key_answers_are_well_formed(db):
    empty = db.sql("SELECT grp FROM dim WHERE key = NULL")
    assert empty.rows == [] and empty.column_names == ["grp"]
    scalar = db.sql("SELECT count(*), sum(grp) FROM dim WHERE key = NULL")
    assert scalar.rows == [(0, None)]
    assert scalar.metrics.segments_dispatched == 0
    assert scalar.rows_scanned == 0


def test_dml_is_not_dispatched(db):
    updated = db.sql("UPDATE dim SET grp = 1000 WHERE key = 7")
    assert updated.rows == [(1,)]
    assert updated.metrics.segments_dispatched == SEGMENTS
    assert db.sql("SELECT grp FROM dim WHERE key = 7").rows == [(1000,)]
    deleted = db.sql("DELETE FROM dim WHERE key = 7")
    assert deleted.rows == [(1,)]
    assert deleted.metrics.segments_dispatched == SEGMENTS
    assert db.sql("SELECT grp FROM dim WHERE key = 7").rows == []


@pytest.mark.parametrize("sessions", [1, 4])
@pytest.mark.parametrize("cache", ["results"])
def test_cached_statement_replays_with_a_different_key(db, sessions, cache):
    """Cold run, another key (another segment), then both again from the
    cache: each execution sees only its own key's segment."""
    sql = (
        "SELECT count(*), sum(val) FROM events WHERE key = {} "
        "AND day BETWEEN '2013-02-01' AND '2013-09-30'"
    )
    first, second = 7, next(
        k for k in range(8, 40) if segment_for(k, SEGMENTS) != segment_for(7, SEGMENTS)
    )
    expected = {
        k: all_segments_answer(db, sql.format(k), None).rows for k in (first, second)
    }
    for key in (first, second, first, second):
        for result in at_once(sessions, lambda: db.sql(sql.format(key), cache=cache)):
            assert result.rows == expected[key]
    # parameterised: one plan, the segment decided by the value each time
    prepared = "SELECT count(*) FROM events WHERE key = $1"
    for key in (first, second, first):
        reference = all_segments_answer(db, prepared, (key,)).rows
        for result in at_once(
            sessions, lambda: db.sql(prepared, params=(key,), cache=cache)
        ):
            assert result.rows == reference


@pytest.mark.parametrize("sessions", [1, 4])
@pytest.mark.parametrize("batch_size", [1, 1024])
@pytest.mark.parametrize("cache", ["off", "results"])
@pytest.mark.parametrize("transient", [False, True])
def test_faults_act_on_the_dispatched_segment_only(
    db, sessions, batch_size, cache, transient
):
    """A fault on the dispatched segment is retried there (through the
    mirror when it is persistent); one armed on any other segment never
    fires, because no instance runs there.  The one fault fires in one
    statement of those issued at once; the others answer unaffected."""
    sql = "SELECT count(*), sum(val) FROM events WHERE key = 7"
    settings = dict(batch_size=batch_size)
    reference = all_segments_answer(db, sql, None, **settings)
    target = segment_for(7, SEGMENTS)
    bystander = (target + 1) % SEGMENTS
    idle = db.faults.arm(SCAN_ROW, segment=bystander, mode=FAIL_ONCE)
    db.faults.arm(SCAN_ROW, segment=target, mode=FAIL_ONCE, transient=transient)

    results = at_once(sessions, lambda: db.sql(sql, cache=cache, **settings))

    assert all(r.rows == reference.rows for r in results)
    ran = executed(results)
    for result in ran:
        assert_same_answer(result, reference)
        assert result.metrics.segments_dispatched == 1
    assert idle.fired == 0
    resilience = [r.metrics.to_dict()["resilience"] for r in ran]
    retries = [r["segment"] for res in resilience for r in res["retries"]]
    failovers = [f["segment"] for res in resilience for f in res["failovers"]]
    assert retries == [target]
    if transient:
        assert failovers == []
        assert db.health.down_segments == []
    else:
        assert failovers == [target]
        assert db.health.down_segments == [target]
        # the mirror now serves the dispatched segment: still one segment
        again = db.sql(sql, cache=cache, **settings)
        assert again.rows == reference.rows
    db.faults.reset()
    db.health.recover_all()


def test_dispatched_primary_already_down_reads_the_mirror(db):
    sql = "SELECT grp FROM dim WHERE key = 7"
    target = segment_for(7, SEGMENTS)
    assert db.health.failover(target, "test")
    before = db.health.mirror_reads[target]
    result = db.sql(sql)
    assert result.rows == [(7,)]
    assert result.metrics.segments_dispatched == 1
    assert db.health.mirror_reads[target] > before
    others = [s for s in range(SEGMENTS) if s != target]
    assert all(db.health.mirror_reads[s] == 0 for s in others)


def test_explain_shows_the_pin_and_plan_size_is_unchanged(db):
    sql = "SELECT grp FROM dim WHERE key = $1"
    plan = db.plan(sql, parameter_count=1)
    assert "direct dispatch: (dim.key = $1)" in plan.explain()
    size = plan.size_bytes()
    for op in plan.walk():
        if isinstance(op, Motion):
            op.dispatch = None
    assert plan.size_bytes() == size, "the pin is not part of the shipped plan"
    assert "direct dispatch" not in plan.explain()
    analyzed = db.explain_analyze("SELECT grp FROM dim WHERE key = 7")
    assert "direct dispatch: (dim.key = 7)" in analyzed
    assert f"segments_dispatched = 1/{SEGMENTS}" in analyzed
    assert "direct dispatch" not in db.explain("SELECT grp FROM dim WHERE key > 7")


# -- replicated tables: a gathered scan runs on one segment -----------------

REPLICATED = [
    ("SELECT count(*) FROM rep", [(20,)]),
    ("SELECT grp FROM rep WHERE key = 7", [(2,)]),
    ("SELECT grp, count(*) FROM rep GROUP BY grp", [(g, 4) for g in range(5)]),
    ("SELECT key FROM rep ORDER BY key DESC LIMIT 3", [(19,), (18,), (17,)]),
    ("SELECT key FROM rep WHERE grp NOT IN (0, NULL)", []),
]


@pytest.mark.parametrize("segments", [1, 2, 4])
@pytest.mark.parametrize("optimizer", ["orca", "planner"])
@pytest.mark.parametrize("batch_size", [1, 1024])
def test_a_gathered_replicated_scan_answers_once(segments, optimizer, batch_size):
    db = Database(num_segments=segments)
    db.create_table(
        "rep",
        TableSchema.of(("key", t.INT), ("grp", t.INT)),
        distribution=DistributionPolicy.replicated(),
    )
    db.insert("rep", [(k, k % 5) for k in range(20)])
    for sql, expected in REPLICATED:
        result = db.sql(sql, optimizer=optimizer, batch_size=batch_size)
        assert sorted(result.rows) == sorted(expected), sql
        assert result.metrics.segments_dispatched == 1, sql


@pytest.mark.parametrize("sessions", [1, 4])
def test_replicated_scan_reads_the_mirror_when_its_primary_is_down(db, sessions):
    assert db.health.failover(0, "test")
    for result in at_once(sessions, lambda: db.sql("SELECT count(*) FROM rep")):
        assert result.rows == [(20,)]
        assert result.metrics.segments_dispatched == 1
    assert db.health.mirror_reads[0] > 0
    db.health.recover_all()
    # a persistent fault on the one dispatched primary fails over and retries
    db.faults.arm(SCAN_ROW, segment=0, mode=FAIL_ONCE, transient=False)
    results = at_once(sessions, lambda: db.sql("SELECT grp FROM rep WHERE key = 7"))
    assert all(result.rows == [(2,)] for result in results)
    assert sum(result.metrics.failover_count for result in results) == 1
    assert db.health.down_segments == [0]
    db.faults.reset()
    db.health.recover_all()


def test_a_join_against_a_replicated_table_is_not_dispatched(db):
    sql = "SELECT f.id, r.grp FROM facts f, rep r WHERE f.key = r.key"
    plan = db.plan(sql)
    assert all(op.dispatch is None for op in plan.walk() if isinstance(op, Motion))
    reference = all_segments_answer(db, sql, None)
    result = db.sql(sql)
    assert_same_answer(result, reference)
    assert len(result.rows) == sum(1 for i in range(ROWS) if i % 50 < 20)
    assert result.metrics.segments_dispatched == SEGMENTS
    assert "direct dispatch: one copy of a replicated table" in db.explain(
        "SELECT count(*) FROM rep"
    )


REPLICATED_JOINS = [
    ("SELECT a.k, b.v FROM a, b WHERE a.k = b.k", [(1, 10), (2, 20)]),
    ("SELECT count(*) FROM a, b WHERE a.k = b.k", [(2,)]),
    ("SELECT count(*) FROM a, b", [(4,)]),  # a nested loop, no key
    ("SELECT a.k FROM a WHERE a.k IN (SELECT k FROM b WHERE v > 10)", [(2,)]),
    ("SELECT a.k, count(*) FROM a, b WHERE a.k <= b.k GROUP BY a.k", [(1, 2), (2, 1)]),
]


@pytest.mark.parametrize("segments", [1, 2, 4])
@pytest.mark.parametrize("optimizer", ["orca", "planner"])
@pytest.mark.parametrize("batch_size", [1, 7, 1024])
def test_a_gathered_join_of_replicated_tables_answers_once(
    segments, optimizer, batch_size
):
    """Every segment holds both tables whole, so every segment's instance
    of the joining slice computes the whole join: one of them runs."""
    db = Database(num_segments=segments)
    for name in ("a", "b"):
        db.create_table(
            name,
            TableSchema.of(("k", t.INT), ("v", t.INT)),
            distribution=DistributionPolicy.replicated(),
        )
        db.insert(name, [(1, 10), (2, 20)])
    for sql, expected in REPLICATED_JOINS:
        result = db.sql(sql, optimizer=optimizer, batch_size=batch_size)
        assert sorted(result.rows) == expected, sql
        assert result.metrics.segments_dispatched == 1, sql
        assert "direct dispatch: one copy of a replicated table" in db.explain(
            sql, optimizer
        )


@pytest.mark.parametrize("sessions", [1, 4])
def test_replicated_join_fails_over_like_any_dispatched_slice(db, sessions):
    sql = "SELECT count(*) FROM rep r, rep s WHERE r.key = s.key"
    assert db.health.failover(0, "test")
    assert all(r.rows == [(20,)] for r in at_once(sessions, lambda: db.sql(sql)))
    assert db.health.mirror_reads[0] > 0
    db.health.recover_all()
    db.faults.arm(SCAN_ROW, segment=0, mode=FAIL_ONCE, transient=False)
    results = at_once(sessions, lambda: db.sql(sql))
    for result in results:
        assert result.rows == [(20,)]
        assert result.metrics.segments_dispatched == 1
    assert sum(result.metrics.failover_count for result in results) == 1
    assert db.health.down_segments == [0]
    db.faults.reset()
    db.health.recover_all()


def test_a_join_with_any_hash_distributed_input_stays_undispatched(db):
    for sql in (
        "SELECT count(*) FROM rep r, rep s, facts f WHERE r.key = s.key AND s.key = f.key",
        "SELECT count(*) FROM dim d, rep r WHERE d.key = r.key",
    ):
        plan = db.plan(sql)
        assert all(op.dispatch is None for op in plan.walk() if isinstance(op, Motion)), sql
        assert_same_answer(db.sql(sql), all_segments_answer(db, sql, None))


def test_planner_plans_dispatch_too(db):
    result = db.sql("SELECT grp FROM dim WHERE key = 7", optimizer="planner")
    assert result.rows == [(7,)]
    assert result.metrics.segments_dispatched == 1
