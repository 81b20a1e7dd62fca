"""The independent oracle: stdlib ``sqlite3`` loaded with the same rows.

Every distinct statement is answered here before timing and the engine's
rows are compared with the answer, order-insensitively and with floats equal
to 1e-9 relative.  Nothing in this module imports the engine.
"""

from __future__ import annotations

import math
import re
import sqlite3
from typing import Iterable, Sequence

from .gen import Dataset, Stmt

REL_TOL = 1e-9
_SQLITE_TYPES = {"int": "INTEGER", "float": "REAL", "text": "TEXT", "date": "TEXT"}
_PARAM = re.compile(r"\$(\d+)")


def _plain(value):
    """Dates travel as ISO text; everything else is already sqlite-native."""
    return value.isoformat() if hasattr(value, "isoformat") else value


class SqliteOracle:
    """An in-memory sqlite database holding one workload's tables."""

    def __init__(self, dataset: Dataset):
        self._db = sqlite3.connect(":memory:")
        for table in dataset.tables:
            columns = ", ".join(
                f"{name} {_SQLITE_TYPES[kind]}" for name, kind in table.columns
            )
            self._db.execute(f"CREATE TABLE {table.name} ({columns})")
            marks = ", ".join("?" * len(table.columns))
            self._db.executemany(
                f"INSERT INTO {table.name} VALUES ({marks})",
                (tuple(map(_plain, row)) for row in dataset.rows[table.name]),
            )
            if table.partition is not None:
                key = table.partition[1]
                self._db.execute(f"CREATE INDEX {table.name}_{key} ON {table.name} ({key})")
        self._db.commit()

    def query(self, stmt: Stmt) -> list[tuple]:
        """The rows ``stmt`` must return (``$n`` parameters become ``?n``)."""
        sql = _PARAM.sub(r"?\1", stmt.sql)
        return self._db.execute(sql, stmt.params or ()).fetchall()

    def apply(self, stmt: Stmt) -> int:
        """Apply an acknowledged write; returns the rows it affected."""
        return self._db.execute(stmt.sql).rowcount

    def close(self) -> None:
        self._db.close()


def _sort_key(row: Sequence) -> tuple:
    # floats are rounded only to find each row's partner; the comparison
    # itself uses the exact values
    return tuple(
        (0, "") if v is None
        else (1, f"{v:.6e}") if isinstance(v, float)
        else (1, f"{float(v):.6e}") if isinstance(v, int) and not isinstance(v, bool)
        else (2, str(v))
        for v in row
    )


def _same_value(a, b) -> bool:
    if a is None or b is None:
        return a is b
    numeric = (int, float)
    if isinstance(a, numeric) and isinstance(b, numeric):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)
    return _plain(a) == _plain(b)


def same_rows(got: Iterable[Sequence], expected: Iterable[Sequence]) -> bool:
    """Order-insensitive row-multiset equality with the float tolerance."""
    got, expected = list(got), list(expected)
    if len(got) != len(expected):
        return False
    if got == expected:
        return True
    return all(
        len(a) == len(b) and all(map(_same_value, a, b))
        for a, b in zip(sorted(got, key=_sort_key), sorted(expected, key=_sort_key))
    )
