"""DELETE and UPDATE over tables holding equal rows, checked against
stdlib ``sqlite3``: the reported count and the end state must agree.

Rows have no identity beyond their values here, so a statement that
matches a value deletes or updates every stored row equal to it, which
is what a row-identity engine does when each of those rows matches."""

import sqlite3

import pytest

from repro import Database
from repro import types as t
from repro.catalog import TableSchema

T_ROWS = [(1, 5), (1, 5), (2, 6)]


def _both(tables):
    db = Database(num_segments=2)
    lite = sqlite3.connect(":memory:")
    for name, (columns, rows) in tables.items():
        db.create_table(name, TableSchema.of(*((c, t.INT) for c in columns)))
        db.insert(name, rows)
        lite.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        marks = ", ".join("?" * len(columns))
        lite.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
    return db, lite


def _state(db, lite, table):
    ours = sorted(db.sql(f"SELECT * FROM {table}").rows)
    theirs = sorted(lite.execute(f"SELECT * FROM {table}").fetchall())
    return ours, theirs


@pytest.mark.parametrize(
    "ours, theirs",
    [
        ("DELETE FROM t WHERE id = 1", "DELETE FROM t WHERE id = 1"),
        (
            "DELETE FROM t USING u WHERE t.id = u.id",
            "DELETE FROM t WHERE EXISTS (SELECT 1 FROM u WHERE t.id = u.id)",
        ),
    ],
    ids=["where", "using"],
)
def test_delete_removes_every_equal_row(ours, theirs):
    db, lite = _both({"t": (("id", "k"), T_ROWS), "u": (("id",), [(1,), (1,)])})
    assert db.sql(ours).rows == [(lite.execute(theirs).rowcount,)]
    after, expected = _state(db, lite, "t")
    assert after == expected == [(2, 6)]


def test_update_from_with_a_repeated_match_updates_the_row_once():
    db, lite = _both({"t": (("id", "k"), [(1, 5), (2, 6)]), "u": (("id",), [(1,), (1,)])})
    sql = "UPDATE t SET k = 9 FROM u WHERE t.id = u.id"
    assert db.sql(sql).rows == [(lite.execute(sql).rowcount,)] == [(1,)]
    after, expected = _state(db, lite, "t")
    assert after == expected == [(1, 9), (2, 6)]


def test_update_changes_every_equal_row():
    db, lite = _both({"t": (("id", "k"), T_ROWS)})
    sql = "UPDATE t SET k = k + 1 WHERE id = 1"
    assert db.sql(sql).rows == [(lite.execute(sql).rowcount,)] == [(2,)]
    after, expected = _state(db, lite, "t")
    assert after == expected == [(1, 6), (1, 6), (2, 6)]
