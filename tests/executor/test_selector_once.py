"""Partition selection is a statement's work, not a segment's: the selector
program (interval derivation, ``f*_T``, the OID list) is built once per
``(statement, part_scan_id)`` and every segment instance only propagates
it into its own channel.  Statements issued at once by several client
sessions each build their own program, once."""

import pytest

from repro.executor import iterators
from tests.sessions import at_once

STATIC_SQL = (
    "SELECT count(*) FROM orders "
    "WHERE date BETWEEN '10-01-2013' AND '12-31-2013'"
)
DYNAMIC_SQL = (
    "SELECT count(*) FROM orders_fk f, date_dim d "
    "WHERE f.date_id = d.date_id AND d.year = 2013 AND d.month = 7"
)


@pytest.fixture
def programs_built(monkeypatch):
    built = []

    class Counting(iterators._SelectorProgram):
        def __init__(self, spec, *args):
            built.append(spec.part_scan_id)
            super().__init__(spec, *args)

    monkeypatch.setattr(iterators, "_SelectorProgram", Counting)
    return built


@pytest.mark.parametrize("sessions", [1, 4])
@pytest.mark.parametrize("batch_size", [1, 1024])
def test_static_selector_is_derived_once_per_statement(
    orders_db, programs_built, sessions, batch_size
):
    results = at_once(
        sessions, lambda: orders_db.sql(STATIC_SQL, batch_size=batch_size)
    )
    assert programs_built == [1] * sessions
    for result in results:
        summary = result.metrics.selector_summary(1)
        assert summary["mode"] == "static"
        assert summary["partitions_selected"] == 3
        # ... and still propagated into each of the four segments' channels
        assert summary["oids_pushed"] == 3 * orders_db.num_segments
        assert result.partitions_scanned("orders") == 3


@pytest.mark.parametrize("sessions", [1, 4])
def test_streaming_selector_shares_its_program_too(
    orders_db, programs_built, sessions
):
    reference = orders_db.sql(DYNAMIC_SQL).rows
    del programs_built[:]
    results = at_once(sessions, lambda: orders_db.sql(DYNAMIC_SQL))
    assert len(programs_built) == sessions
    assert len(set(programs_built)) == 1
    for result in results:
        assert result.rows == reference
        assert result.metrics.selector_summary(programs_built[0])["mode"] == "dynamic"

