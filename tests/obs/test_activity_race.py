"""``db.activity()`` read from another thread while statements of one
client session, or of several at once, run.

An in-flight read derives the scan summary from the scan nodes' slots
with C-level reads, so it never iterates a container the statement is
growing (no "dictionary changed size during iteration"), and one summary
answers both partitions scanned and eligible, so a row never shows more
scanned than eligible.

Interleaving bugs are probabilistic; the CI concurrency-stress step runs
this file twenty times."""

from __future__ import annotations

import datetime
import itertools
import sys
import threading
import time

import pytest

from repro import Database
from repro import types as t
from repro.catalog import DistributionPolicy, PartitionScheme, TableSchema, monthly_range_level
from tests.sessions import at_once

START = datetime.date(2010, 1, 1)
MONTHS = 24
STATEMENTS = 400

#: two partitioned tables, so a statement opens leaves of one while a
#: reader may be summarising the other
JOIN_SQL = "SELECT count(*) FROM facts f, events e WHERE f.id = e.id"
SCAN_SQL = "SELECT count(*) FROM events WHERE day >= '01-01-2012'"


@pytest.fixture(scope="module")
def race_db() -> Database:
    db = Database(num_segments=4)
    for name in ("facts", "events"):
        db.create_table(
            name,
            TableSchema.of(("id", t.INT), ("day", t.DATE)),
            distribution=DistributionPolicy.hashed("id"),
            partition_scheme=PartitionScheme([monthly_range_level("day", START, MONTHS)]),
        )
        db.insert(
            name,
            [(i, START + datetime.timedelta(days=(i * 7) % (MONTHS * 30))) for i in range(240)],
        )
    db.analyze()
    return db


@pytest.mark.parametrize("sessions", [1, 4])
def test_activity_reads_never_raise_while_statements_run(race_db, sessions):
    expected = {sql: race_db.sql(sql).rows for sql in (JOIN_SQL, SCAN_SQL)}
    errors: list[Exception] = []
    reads = 0
    done = threading.Event()

    def reader() -> None:
        nonlocal reads
        while not done.is_set():
            try:
                for row in race_db.activity():
                    assert row["partitions_scanned"] <= row["partitions_eligible"]
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)
            reads += 1
            time.sleep(0)  # let the statements' threads have the GIL too

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    turns = itertools.count()

    def client() -> None:
        for _ in range(STATEMENTS // sessions):
            sql = JOIN_SQL if next(turns) % 2 else SCAN_SQL
            assert race_db.sql(sql).rows == expected[sql]

    try:
        at_once(sessions, client)
    finally:
        done.set()
        thread.join(timeout=10)
        sys.setswitchinterval(previous)
    assert not thread.is_alive()
    assert reads > 0
    assert errors == []
