"""Partition selection is a statement's work, not a segment's: the selector
program (interval derivation, ``f*_T``, the OID list) is built once per
``(statement, part_scan_id)`` and every segment instance only propagates
it into its own channel."""

import pytest

from repro.executor import iterators

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


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("batch_size", [1, 1024])
def test_static_selector_is_derived_once_per_statement(
    orders_db, programs_built, workers, batch_size
):
    result = orders_db.sql(STATIC_SQL, workers=workers, batch_size=batch_size)
    assert programs_built == [1]
    summary = result.metrics.selector_summary(1)
    assert summary["mode"] == "static"
    assert summary["partitions_selected"] == 3
    # ... and still propagated into each of the four segments' channels
    assert summary["oids_pushed"] == 3 * orders_db.num_segments
    assert result.partitions_scanned("orders") == 3


@pytest.mark.parametrize("workers", [1, 4])
def test_streaming_selector_shares_its_program_too(
    orders_db, programs_built, workers
):
    reference = orders_db.sql(DYNAMIC_SQL).rows
    del programs_built[:]
    result = orders_db.sql(DYNAMIC_SQL, workers=workers)
    assert result.rows == reference
    assert len(programs_built) == len(set(programs_built)) == 1
    assert result.metrics.selector_summary(programs_built[0])["mode"] == "dynamic"


def test_selector_program_is_built_once_under_contention(orders_db):
    """More threads than cores, a shortened switch interval: every thread
    gets the same program and ``build`` ran exactly once per scan id."""
    import sys
    import threading

    from repro.executor.context import ExecContext
    from repro.settings import QuerySettings

    ctx = ExecContext(
        orders_db.catalog, orders_db.storage, 4, settings=QuerySettings(workers=4)
    )
    builds: list[int] = []
    got: list[object] = []
    start = threading.Barrier(32)

    def build(scan_id):
        builds.append(scan_id)
        return object()

    def worker(scan_id):
        start.wait(timeout=10)
        got.append((scan_id, ctx.selector_program(scan_id, lambda: build(scan_id))))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i % 2,)) for i in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(builds) == [0, 1]
    assert len(got) == 32
    assert len({id(program) for scan_id, program in got if scan_id == 0}) == 1
    assert len({id(program) for scan_id, program in got if scan_id == 1}) == 1
