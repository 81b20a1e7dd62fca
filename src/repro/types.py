"""Column types and value helpers.

The engine stores values as plain Python objects (``int``, ``float``,
``str``, :class:`datetime.date`, ``bool`` or ``None``).  A :class:`DataType`
describes the declared type of a column and provides validation/coercion so
that the storage layer and the expression evaluator can rely on values being
well-typed.

Dates are first-class because the paper's motivating workloads partition on
date columns; :func:`date_value` and :func:`add_months` make it convenient to
build monthly/weekly partition boundaries.
"""

from __future__ import annotations

import datetime
import enum
from typing import Any

from .errors import ReproError

#: rows per executor batch, where nothing narrower is asked for: the one
#: default behind ``Database(batch_size=)``, the executor, its contexts and
#: collectors, and the storage batch scans (1 = row-at-a-time)
DEFAULT_BATCH_SIZE = 1024


class TypeKind(enum.Enum):
    """Enumeration of supported column types."""

    INT = "int"
    BIGINT = "bigint"
    FLOAT = "float"
    TEXT = "text"
    DATE = "date"
    BOOL = "bool"


class DataType:
    """A declared column type.

    Instances are interned per kind, so identity comparison is safe.
    """

    _interned: dict[TypeKind, "DataType"] = {}

    def __new__(cls, kind: TypeKind) -> "DataType":
        existing = cls._interned.get(kind)
        if existing is not None:
            return existing
        obj = super().__new__(cls)
        cls._interned[kind] = obj
        return obj

    def __init__(self, kind: TypeKind):
        self.kind = kind

    def __repr__(self) -> str:
        return f"DataType({self.kind.value})"

    def __str__(self) -> str:
        return self.kind.value

    @property
    def is_numeric(self) -> bool:
        return self.kind in (TypeKind.INT, TypeKind.BIGINT, TypeKind.FLOAT)

    def validate(self, value: Any) -> Any:
        """Coerce ``value`` to this type, raising :class:`TypeMismatchError`
        when the value cannot represent the declared type.

        ``None`` (SQL NULL) is always accepted.
        """
        if value is None:
            return None
        kind = self.kind
        if kind in (TypeKind.INT, TypeKind.BIGINT):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeMismatchError(self, value)
            return value
        if kind is TypeKind.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeMismatchError(self, value)
            return float(value)
        if kind is TypeKind.TEXT:
            if not isinstance(value, str):
                raise TypeMismatchError(self, value)
            return value
        if kind is TypeKind.DATE:
            if isinstance(value, datetime.date) and not isinstance(
                value, datetime.datetime
            ):
                return value
            if isinstance(value, str):
                return date_value(value)
            raise TypeMismatchError(self, value)
        if kind is TypeKind.BOOL:
            if not isinstance(value, bool):
                raise TypeMismatchError(self, value)
            return value
        raise AssertionError(f"unhandled type kind {kind}")


class TypeMismatchError(ReproError):
    """A value does not conform to its column's declared type."""

    def __init__(self, data_type: DataType, value: Any):
        super().__init__(
            f"value {value!r} of type {type(value).__name__} is not valid "
            f"for column type {data_type}"
        )
        self.data_type = data_type
        self.value = value


INT = DataType(TypeKind.INT)
BIGINT = DataType(TypeKind.BIGINT)
FLOAT = DataType(TypeKind.FLOAT)
TEXT = DataType(TypeKind.TEXT)
DATE = DataType(TypeKind.DATE)
BOOL = DataType(TypeKind.BOOL)


def date_value(text: str) -> datetime.date:
    """Parse an ISO ``YYYY-MM-DD`` (or US ``MM-DD-YYYY``) date literal.

    The paper's example queries use US-style literals such as
    ``'10-01-2013'``; both spellings are accepted.
    """
    parts = text.split("-")
    if len(parts) != 3:
        raise ReproError(f"cannot parse date literal {text!r}")
    a, b, c = parts
    try:
        if len(a) == 4:
            return datetime.date(int(a), int(b), int(c))
        return datetime.date(int(c), int(a), int(b))
    except ValueError as exc:
        raise ReproError(f"cannot parse date literal {text!r}: {exc}") from exc


def add_months(day: datetime.date, months: int) -> datetime.date:
    """Return ``day`` shifted by ``months`` whole months (day clamped)."""
    month_index = day.month - 1 + months
    year = day.year + month_index // 12
    month = month_index % 12 + 1
    last_day = _days_in_month(year, month)
    return datetime.date(year, month, min(day.day, last_day))


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        nxt = datetime.date(year + 1, 1, 1)
    else:
        nxt = datetime.date(year, month + 1, 1)
    return (nxt - datetime.date(year, month, 1)).days


def infer_type(value: Any) -> DataType:
    """Infer the :class:`DataType` of a Python literal value."""
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return TEXT
    if isinstance(value, datetime.date):
        return DATE
    raise ReproError(f"cannot infer SQL type for literal {value!r}")
