"""Dynamic partition selection one batch at a time.

A streaming PartitionSelector routes each batch's distinct value tuples
once and pushes only OIDs its (scan, segment) instance has not pushed yet,
with one ``partition_propagation`` call per batch.  Against the row
reference (:mod:`tests.executor.row_reference`, which still propagates
row by row) nothing may differ at any width, with one client session
or several running the statement at once: rows,
partitions scanned, partitions selected, and ``oids_pushed``, which
counts every (row, OID) pair whatever the batching.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    list_level,
    uniform_int_level,
)
from repro.obs.metrics import MetricsCollector
from repro.workloads import tpcds

from tests.sessions import at_once

from . import row_reference

#: keys each repeated 25 times (grp 1): at width 7 every key's run spans
#: several batches; grp 2 holds NULL keys and a NULL second-level value
DIM_ROWS = [
    (key, n % 4, 1) for key in (5, 37, 38, 91) for n in range(25)
] + [(None, 1, 2)] * 10 + [(12, None, 2)] * 10 + [(12, 2, 2)] * 3


@pytest.fixture(scope="module")
def db() -> Database:
    db = Database(num_segments=4)
    db.create_table(
        "facts",
        TableSchema.of(
            ("id", t.INT), ("key", t.INT), ("sub", t.INT), ("val", t.INT)
        ),
        distribution=DistributionPolicy.hashed("id"),
        partition_scheme=PartitionScheme(
            [
                uniform_int_level("key", 0, 100, 10),
                list_level("sub", [("lo", [0, 1]), ("hi", [2, 3])]),
            ]
        ),
    )
    db.create_table(
        "dim",
        TableSchema.of(("key", t.INT), ("sub", t.INT), ("grp", t.INT)),
        distribution=DistributionPolicy.hashed("grp"),
    )
    db.insert("facts", [(i, i % 100, i % 4, i) for i in range(800)])
    db.insert("dim", DIM_ROWS)
    db.analyze()
    return db


JOIN = "SELECT count(*), sum(f.val) FROM facts f, dim d WHERE f.key = d.key"
CASES = {
    "duplicate keys across batches": f"{JOIN} AND d.grp = 1",
    "null keys": f"{JOIN} AND d.grp = 2",
    "two streamed keys, two levels": f"{JOIN} AND f.sub = d.sub AND d.grp = 1",
    "two streamed keys with nulls": f"{JOIN} AND f.sub = d.sub AND d.grp = 2",
    "non-equality comparison": f"{JOIN} AND f.sub <= d.sub AND d.grp = 1",
    "equality and range on one level": f"{JOIN} AND f.key >= d.sub AND d.grp = 1",
}


def _selectors(metrics) -> list[dict]:
    return [metrics.selector_summary(scan_id) for scan_id in sorted(metrics.selectors)]


@pytest.mark.parametrize("sessions", [1, 4])
@pytest.mark.parametrize("batch_size", [1, 7, 1024])
@pytest.mark.parametrize("sql", CASES.values(), ids=list(CASES))
def test_batch_selection_equals_the_row_reference(db, sql, batch_size, sessions):
    rows, ctx = row_reference.run_plan(db, db.plan(sql))
    for result in at_once(sessions, lambda: db.sql(sql, batch_size=batch_size)):
        assert result.rows == rows
        assert result.metrics.partitions_scanned() == ctx.metrics.partitions_scanned()
        assert result.metrics.total_rows_scanned == ctx.metrics.total_rows_scanned
        selectors = _selectors(result.metrics)
        assert [s["mode"] for s in selectors] == ["dynamic"]
        assert selectors == _selectors(ctx.metrics)


def test_one_propagation_per_batch_on_the_workload(monkeypatch):
    """The 33-query mix at 2,000 fact rows: propagating once per row and
    OID took 5,268 recording calls per pass; once per batch and static
    selector instance it takes a few dozen per query."""
    db = tpcds.build_database(fact_rows=2000)
    calls = []
    record = MetricsCollector.record_propagation

    def counting(self, *args):
        calls.append(args[0])
        return record(self, *args)

    monkeypatch.setattr(MetricsCollector, "record_propagation", counting)
    for query in tpcds.workload_queries():
        db.sql(query.sql)
    assert 0 < len(calls) < 400
