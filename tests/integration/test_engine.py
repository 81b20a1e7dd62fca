"""The Database facade: DDL, INSERT via SQL, explain, options, errors."""

import pytest

from repro import Database, ReproError
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    uniform_int_level,
)
from repro.errors import CatalogError
from repro.physical.plan import Plan


@pytest.fixture()
def db() -> Database:
    database = Database(num_segments=2)
    database.create_table(
        "t",
        TableSchema.of(("a", t.INT), ("b", t.TEXT)),
        distribution=DistributionPolicy.hashed("a"),
    )
    return database


def test_sql_insert_statement(db):
    result = db.sql("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
    assert result.rows == [(2,)]
    assert db.sql("SELECT count(*) FROM t").rows == [(2,)]


def test_insert_type_checked(db):
    with pytest.raises(Exception):
        db.sql("INSERT INTO t VALUES ('oops', 'x')")


def test_drop_table(db):
    db.drop_table("t")
    with pytest.raises(CatalogError):
        db.sql("SELECT * FROM t")
    # name can be reused
    db.create_table("t", TableSchema.of(("z", t.INT)))
    db.sql("INSERT INTO t VALUES (1)")
    assert db.sql("SELECT z FROM t").rows == [(1,)]


def test_explain_both_optimizers(db):
    db.sql("INSERT INTO t VALUES (1, 'x')")
    db.analyze()
    orca_text = db.explain("SELECT * FROM t WHERE a = 1")
    planner_text = db.explain("SELECT * FROM t WHERE a = 1", optimizer="planner")
    assert "Scan" in orca_text
    assert "GatherMotion" in planner_text


def test_unknown_optimizer(db):
    with pytest.raises(ReproError):
        db.sql("SELECT * FROM t", optimizer="postgres")


def test_unknown_option_rejected(db):
    with pytest.raises(ReproError, match="'enable_warp_drive'"):
        db.sql("SELECT * FROM t", enable_warp_drive=True)


@pytest.mark.parametrize("optimizer", ["orca", "planner"])
def test_a_select_validates_its_plan_twice(db, monkeypatch, optimizer):
    """Once where the optimizer returns it, once where the executor runs
    it: no plan reaches execution unvalidated, and none is checked a
    third time in between."""
    db.sql("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
    calls = []
    validate = Plan.validate

    def counted(plan):
        calls.append(plan)
        return validate(plan)

    monkeypatch.setattr(Plan, "validate", counted)
    assert db.sql("SELECT b FROM t WHERE a = 2", optimizer=optimizer).rows == [
        ("y",)
    ]
    assert len(calls) == 2 and calls[0] is calls[1]


def test_plan_is_reusable_and_side_effect_free(db):
    db.sql("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    db.analyze()
    plan = db.plan("SELECT count(*) FROM t WHERE a > 1")
    first = db.execute_plan(plan)
    second = db.execute_plan(plan)
    assert first.rows == second.rows == [(2,)]


def test_analyze_single_table(db):
    db.sql("INSERT INTO t VALUES (1, 'x')")
    db.analyze("t")
    stats = db.statistics.get(db.catalog.table("t"))
    assert stats.row_count == 1


def test_bind_rejects_insert(db):
    with pytest.raises(ReproError):
        db.bind("INSERT INTO t VALUES (1, 'x')")


def test_partitioned_ddl_through_facade():
    database = Database(num_segments=2)
    desc = database.create_table(
        "p",
        TableSchema.of(("k", t.INT),),
        partition_scheme=PartitionScheme([uniform_int_level("k", 0, 10, 2)]),
    )
    assert desc.is_partitioned
    database.sql("INSERT INTO p VALUES (1), (7)")
    database.analyze()
    result = database.sql("SELECT count(*) FROM p WHERE k >= 5")
    assert result.rows == [(1,)]
    assert result.partitions_scanned("p") == 1


def test_empty_table_queries(db):
    db.analyze()
    assert db.sql("SELECT * FROM t").rows == []
    assert db.sql("SELECT count(*), sum(a) FROM t").rows == [(0, None)]
