"""Concurrency stress: hot cached queries racing invalidating DML.

The no-stale-read contract under threads: once an ``insert()`` call has
*returned*, every query that starts afterwards must observe its rows —
whether it is answered by fresh execution or by a cached result.  The writer publishes the row count after each insert
returns; readers snapshot the published floor before issuing each query
and assert the answer never falls below it.  A stale cache entry serving
a pre-DML answer after the DML completed would fail the floor check.

Runs in the CI x20 concurrency-stress step.
"""

from __future__ import annotations

import threading

from repro import Database
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    uniform_int_level,
)

DOMAIN, PARTS = 1000, 8
SEED_ROWS = 200
HOT_LO, HOT_HI = 0, 499  # the hot half of the key space
INSERTS = 60
READERS = 4
JOIN_TIMEOUT = 120.0  # generous; a deadlock fails fast and loud

HOT_SQL = (
    "SELECT count(*) FROM facts "
    f"WHERE key >= {HOT_LO} AND key <= {HOT_HI}"
)


def _build_db() -> Database:
    db = Database(num_segments=4, cache="results")
    db.create_table(
        "facts",
        TableSchema.of(("id", t.INT), ("key", t.INT), ("val", t.INT)),
        distribution=DistributionPolicy.hashed("id"),
        partition_scheme=PartitionScheme(
            [uniform_int_level("key", 0, DOMAIN, PARTS)]
        ),
    )
    # seed every row inside the hot range so the baseline count is known
    db.insert(
        "facts",
        [(i, (i * 7) % (HOT_HI + 1), i) for i in range(SEED_ROWS)],
    )
    db.analyze()
    return db


def _stress(db: Database, reader_modes: list[str]):
    published = {"count": SEED_ROWS}
    publish_lock = threading.Lock()
    stop = threading.Event()
    errors: list[BaseException] = []

    def writer():
        try:
            for n in range(INSERTS):
                # every insert lands in the hot range: each one both
                # changes the hot answer and invalidates cached entries
                db.insert(
                    "facts", [(100_000 + n, (n * 13) % (HOT_HI + 1), 1)]
                )
                with publish_lock:
                    published["count"] += 1
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            stop.set()

    def reader(mode: str):
        try:
            while True:
                last_lap = stop.is_set()  # one more read after the writer
                with publish_lock:
                    floor = published["count"]
                rows = db.sql(HOT_SQL, cache=mode).rows
                count = rows[0][0]
                assert count >= floor, (
                    f"stale read: saw {count} rows after {floor} inserts "
                    f"were published (mode={mode})"
                )
                if last_lap:
                    break
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer)]
    threads += [
        threading.Thread(target=reader, args=(mode,))
        for mode in reader_modes
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    hung = [t for t in threads if t.is_alive()]
    assert not hung, f"deadlock: {len(hung)} thread(s) never finished"
    assert not errors, errors[0]

    # final state is exact: every insert is visible, cache agrees with
    # a cache-off run
    final = db.sql(HOT_SQL, cache="results")
    assert final.rows[0][0] == SEED_ROWS + INSERTS
    assert final.rows == db.sql(HOT_SQL, cache="off").rows


def test_hot_query_vs_invalidating_dml_serial_readers():
    db = _build_db()
    _stress(db, reader_modes=["results"] * READERS)


def test_concurrent_misses_on_distinct_statements():
    """Many threads storing distinct entries at once: bounded cache, no
    lost updates on the counters, every entry replayable afterwards."""
    db = _build_db()
    errors: list[BaseException] = []

    def worker(lo: int):
        try:
            sql = (
                "SELECT count(*) FROM facts "
                f"WHERE key >= {lo} AND key <= {lo + 50}"
            )
            first = db.sql(sql, cache="results").rows
            assert db.sql(sql, cache="results").rows == first
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(lo,))
        for lo in range(0, 800, 100)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    snap = db.cache.results.to_dict()
    assert snap["entries"] == 8
    assert snap["stores"] >= 8
    # hits answer identically to execution for every stored entry
    for lo in range(0, 800, 100):
        sql = (
            "SELECT count(*) FROM facts "
            f"WHERE key >= {lo} AND key <= {lo + 50}"
        )
        assert (
            db.sql(sql, cache="results").rows
            == db.sql(sql, cache="off").rows
        )
