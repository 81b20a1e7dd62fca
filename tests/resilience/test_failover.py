"""Mirror failover end to end: injected primary failures must be invisible
in query results (the acceptance scenario for the resilience subsystem).

Tests parametrized over ``sessions`` issue the statement from that many
client sessions at once: the one armed fault fires in one of them, and
the segment's health, shared by all, changes under the others."""

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
from repro.errors import SegmentFailure
from repro.resilience import (
    ALWAYS,
    CHANNEL_CLOSE,
    FAIL_ONCE,
    MOTION_SEND,
    SCAN_ROW,
    SLICE_START,
)
from tests.sessions import at_once, outcomes

SEGMENTS = 4
START = datetime.date(2013, 1, 1)

#: a multi-slice plan: partitioned fact joined to a dimension (the join
#: needs a Motion, so the fact scan runs in a non-root slice)
JOIN_SQL = (
    "SELECT count(*), sum(o.amount) FROM orders o, dim d "
    "WHERE o.id = d.id AND d.tag = 't3'"
)


@pytest.fixture(scope="module")
def fdb() -> Database:
    db = Database(num_segments=SEGMENTS)
    db.create_table(
        "orders",
        TableSchema.of(("id", t.INT), ("date", t.DATE), ("amount", t.FLOAT)),
        distribution=DistributionPolicy.hashed("id"),
        partition_scheme=PartitionScheme(
            [monthly_range_level("date", START, 12)]
        ),
    )
    db.create_table(
        "dim",
        TableSchema.of(("id", t.INT), ("tag", t.TEXT)),
        distribution=DistributionPolicy.hashed("id"),
    )
    db.insert(
        "orders",
        [
            (i, START + datetime.timedelta(days=i % 360), float(i))
            for i in range(800)
        ],
    )
    db.insert("dim", [(i, f"t{i % 7}") for i in range(800)])
    db.analyze()
    return db


@pytest.fixture(autouse=True)
def _clean_state(fdb):
    """Every test starts fault-free with all segments up."""
    fdb.faults.reset()
    fdb.health.recover_all()
    yield
    fdb.faults.reset()
    fdb.health.recover_all()


@pytest.mark.parametrize("sessions", [1, 4])
def test_demo_single_primary_failure_is_transparent(fdb, sessions):
    """The ISSUE acceptance scenario: a multi-slice join with one injected
    primary failure completes via mirror failover with identical rows, and
    the metrics record the failover and retry."""
    baseline = fdb.sql(JOIN_SQL).rows

    fdb.faults.arm(SCAN_ROW, segment=2, mode=FAIL_ONCE)
    results = at_once(sessions, lambda: fdb.sql(JOIN_SQL))

    assert all(result.rows == baseline for result in results)
    (result,) = [r for r in results if r.metrics.failover_count]
    data = result.metrics.to_dict()
    resilience = data["resilience"]
    assert resilience["failover_count"] >= 1
    assert resilience["retry_count"] >= 1
    assert resilience["failovers"][0]["segment"] == 2
    assert resilience["fault_points"][SCAN_ROW]["fired"] == 1
    assert 2 in resilience["segment_health"]["down_segments"]
    assert fdb.health.mirror_reads[2] > 0


@pytest.mark.parametrize("sessions", [1, 4])
@pytest.mark.parametrize(
    "point", [SLICE_START, MOTION_SEND, SCAN_ROW, CHANNEL_CLOSE]
)
def test_every_injection_point_fails_over_cleanly(fdb, point, sessions):
    baseline = fdb.sql(JOIN_SQL).rows
    fdb.faults.arm(point, segment=1, mode=FAIL_ONCE)
    results = at_once(sessions, lambda: fdb.sql(JOIN_SQL))
    assert all(result.rows == baseline for result in results)
    assert sum(result.metrics.failover_count for result in results) == 1
    assert not fdb.health.is_up(1)


@pytest.mark.parametrize("sessions", [1, 4])
def test_transient_failure_retries_in_place(fdb, sessions):
    """A transient fault retries the failed segment's instance without
    marking the primary down — no failover, segment stays up."""
    baseline = fdb.sql(JOIN_SQL).rows
    fdb.faults.arm(MOTION_SEND, segment=1, mode=FAIL_ONCE, transient=True)
    results = at_once(sessions, lambda: fdb.sql(JOIN_SQL))
    assert all(result.rows == baseline for result in results)
    assert sum(result.metrics.retry_count for result in results) == 1
    assert sum(result.metrics.failover_count for result in results) == 0
    assert fdb.health.is_up(1)


@pytest.mark.parametrize("sessions", [1, 4])
def test_persistent_failure_exhausts_retries(fdb, sessions):
    """ALWAYS-mode faults outlast the retry budget and surface as the
    typed SegmentFailure, never a bare exception."""
    fdb.faults.arm(SLICE_START, segment=0, mode=ALWAYS, transient=True)
    answers = outcomes(sessions, lambda: fdb.sql(JOIN_SQL))
    assert all(isinstance(answer, SegmentFailure) for answer in answers)


@pytest.mark.parametrize("sessions", [1, 4])
def test_double_fault_is_unrecoverable(fdb, sessions):
    """Primary fails and the mirror is also down: the typed error
    propagates instead of wrong results.  A statement that finished its
    reads of the segment before the fault fired may still answer, and
    then answers right."""
    baseline = fdb.sql(JOIN_SQL).rows
    fdb.health.mark_mirror_down(2)
    fdb.faults.arm(SCAN_ROW, segment=2, mode=FAIL_ONCE)
    answers = outcomes(sessions, lambda: fdb.sql(JOIN_SQL))
    assert any(isinstance(a, SegmentFailure) for a in answers)
    for answer in answers:
        if not isinstance(answer, SegmentFailure):
            assert answer.rows == baseline


def test_queries_keep_working_after_failover(fdb):
    """Once a segment is down, later queries read the mirror without any
    fault armed — and recovery restores the primary."""
    baseline = fdb.sql(JOIN_SQL).rows
    fdb.health.failover(3, reason="test")
    assert fdb.sql(JOIN_SQL).rows == baseline
    assert fdb.health.mirror_reads[3] > 0
    fdb.health.recover(3)
    assert fdb.sql(JOIN_SQL).rows == baseline
    assert fdb.health.is_up(3)


def test_writes_reach_both_copies(fdb):
    """Synchronous replication: rows inserted while all segments are up
    are readable after a failover (the mirror holds them too)."""
    db = Database(num_segments=SEGMENTS)
    db.create_table(
        "kv",
        TableSchema.of(("k", t.INT), ("v", t.INT)),
        distribution=DistributionPolicy.hashed("k"),
    )
    db.insert("kv", [(i, i * 10) for i in range(100)])
    before = db.sql("SELECT count(*), sum(v) FROM kv").rows
    for segment in range(SEGMENTS):
        db.health.failover(segment, reason="test")
    assert db.sql("SELECT count(*), sum(v) FROM kv").rows == before


def test_explain_analyze_shows_resilience_line(fdb):
    fdb.faults.arm(SCAN_ROW, segment=1, mode=FAIL_ONCE)
    text = fdb.explain_analyze(JOIN_SQL)
    assert "Resilience:" in text
    assert "failover" in text
