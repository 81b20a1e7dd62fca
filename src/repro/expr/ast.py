"""Scalar expression AST.

Expressions are immutable trees over column references and literals.
Column references are *qualified* (``alias.column``) after binding; the
executor resolves them against a :class:`~repro.expr.eval.RowLayout` when a
plan is instantiated, so the same expression tree can be evaluated at any
point of a plan where its columns are in scope.

SQL three-valued logic is honoured throughout: comparisons with NULL yield
NULL, AND/OR follow Kleene semantics, and filters only pass tuples for
which the predicate is *true* (not NULL).
"""

from __future__ import annotations

import datetime
from typing import Any, Iterator, Sequence

# Comparison operator tokens (canonical spellings).
EQ, NEQ, LT, LTE, GT, GTE = "=", "<>", "<", "<=", ">", ">="
COMPARISON_OPS = (EQ, NEQ, LT, LTE, GT, GTE)

#: op -> op with sides swapped (for normalising ``5 < x`` to ``x > 5``).
MIRRORED_OP = {EQ: EQ, NEQ: NEQ, LT: GT, LTE: GTE, GT: LT, GTE: LTE}

ARITH_OPS = ("+", "-", "*", "/", "%")


class Expression:
    """Base class for all scalar expressions."""

    __slots__ = ()

    def children(self) -> tuple["Expression", ...]:
        return ()

    def walk(self) -> Iterator["Expression"]:
        """Pre-order traversal of this expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    # Equality is structural; every subclass defines _key().
    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self._key() == other._key()  # type: ignore[union-attr]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))


class Literal(Expression):
    """A constant value (possibly NULL).

    ``slot`` is the index of the token the parser made it from (None for
    any other literal): a prepared plan binds a later statement's value
    there.  It is not part of the expression's identity or text.
    """

    __slots__ = ("value", "slot")

    def __init__(self, value: Any, slot: int | None = None):
        self.value = value
        self.slot = slot

    def _key(self) -> tuple:
        return (self.value,)

    def __repr__(self) -> str:
        if isinstance(self.value, datetime.date):
            return f"'{self.value.isoformat()}'"
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return repr(self.value)


class ColumnRef(Expression):
    """A reference to a column, optionally qualified by a relation alias."""

    __slots__ = ("qualifier", "name")

    def __init__(self, name: str, qualifier: str | None = None):
        self.name = name
        self.qualifier = qualifier

    def _key(self) -> tuple:
        return (self.qualifier, self.name)

    def matches(self, other: "ColumnRef") -> bool:
        """Whether the two references denote the same column.

        An unqualified reference matches any qualifier with the same name;
        qualified references must agree exactly.
        """
        if self.name != other.name:
            return False
        if self.qualifier is None or other.qualifier is None:
            return True
        return self.qualifier == other.qualifier

    def __repr__(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


class Comparison(Expression):
    """``left <op> right`` for op in =, <>, <, <=, >, >=."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def mirrored(self) -> "Comparison":
        """The same predicate with sides swapped (``5 < x`` → ``x > 5``)."""
        return Comparison(MIRRORED_OP[self.op], self.right, self.left)

    def _key(self) -> tuple:
        return (self.op, self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class BoolExpr(Expression):
    """AND/OR over two or more operands, or NOT over exactly one."""

    AND, OR, NOT = "AND", "OR", "NOT"
    __slots__ = ("op", "args")

    def __init__(self, op: str, args: Sequence[Expression]):
        if op not in (self.AND, self.OR, self.NOT):
            raise ValueError(f"unknown boolean operator {op!r}")
        if op == self.NOT and len(args) != 1:
            raise ValueError("NOT takes exactly one argument")
        if op != self.NOT and len(args) < 2:
            raise ValueError(f"{op} takes at least two arguments")
        self.op = op
        self.args: tuple[Expression, ...] = tuple(args)

    def children(self) -> tuple[Expression, ...]:
        return self.args

    def _key(self) -> tuple:
        return (self.op, self.args)

    def __repr__(self) -> str:
        if self.op == self.NOT:
            return f"NOT {self.args[0]!r}"
        joiner = f" {self.op} "
        return "(" + joiner.join(repr(a) for a in self.args) + ")"


class Between(Expression):
    """``subject BETWEEN lo AND hi`` (bounds inclusive)."""

    __slots__ = ("subject", "lo", "hi")

    def __init__(self, subject: Expression, lo: Expression, hi: Expression):
        self.subject = subject
        self.lo = lo
        self.hi = hi

    def children(self) -> tuple[Expression, ...]:
        return (self.subject, self.lo, self.hi)

    def _key(self) -> tuple:
        return (self.subject, self.lo, self.hi)

    def __repr__(self) -> str:
        return f"({self.subject!r} BETWEEN {self.lo!r} AND {self.hi!r})"


class InList(Expression):
    """``subject IN (v1, v2, ...)`` over literal values."""

    __slots__ = ("subject", "values")

    def __init__(self, subject: Expression, values: Sequence[Any]):
        self.subject = subject
        self.values: tuple = tuple(values)

    def children(self) -> tuple[Expression, ...]:
        return (self.subject,)

    def _key(self) -> tuple:
        return (self.subject, self.values)

    def __repr__(self) -> str:
        vals = ", ".join(repr(v) for v in self.values)
        return f"({self.subject!r} IN ({vals}))"


class IsNull(Expression):
    """``subject IS [NOT] NULL``."""

    __slots__ = ("subject", "negated")

    def __init__(self, subject: Expression, negated: bool = False):
        self.subject = subject
        self.negated = negated

    def children(self) -> tuple[Expression, ...]:
        return (self.subject,)

    def _key(self) -> tuple:
        return (self.subject, self.negated)

    def __repr__(self) -> str:
        tail = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.subject!r} {tail})"


class Arithmetic(Expression):
    """``left <op> right`` for op in +, -, *, /, %."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def _key(self) -> tuple:
        return (self.op, self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Parameter(Expression):
    """A prepared-statement parameter ``$n``, bound at execution time.

    The paper's Section 1 motivates dynamic partition elimination for
    prepared statements: parameter values are only known at run time, so a
    PartitionSelector over a Parameter predicate selects partitions when the
    query executes, not when it is optimized.
    """

    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 1:
            raise ValueError("parameter indices start at 1")
        self.index = index

    def _key(self) -> tuple:
        return (self.index,)

    def __repr__(self) -> str:
        return f"${self.index}"


class AggCall(Expression):
    """An aggregate call in a projection: COUNT/SUM/AVG/MIN/MAX.

    ``arg is None`` encodes ``COUNT(*)``.
    """

    FUNCS = ("count", "sum", "avg", "min", "max")
    __slots__ = ("func", "arg")

    def __init__(self, func: str, arg: Expression | None):
        func = func.lower()
        if func not in self.FUNCS:
            raise ValueError(f"unknown aggregate {func!r}")
        if arg is None and func != "count":
            raise ValueError(f"{func} requires an argument")
        self.func = func
        self.arg = arg

    def children(self) -> tuple[Expression, ...]:
        return (self.arg,) if self.arg is not None else ()

    def _key(self) -> tuple:
        return (self.func, self.arg)

    def __repr__(self) -> str:
        inner = "*" if self.arg is None else repr(self.arg)
        return f"{self.func}({inner})"


def column_refs(expr: Expression) -> list[ColumnRef]:
    """All column references in ``expr``, in traversal order."""
    return [node for node in expr.walk() if isinstance(node, ColumnRef)]


def contains_aggregate(expr: Expression) -> bool:
    return any(isinstance(node, AggCall) for node in expr.walk())


def contains_parameter(expr: Expression) -> bool:
    return any(isinstance(node, Parameter) for node in expr.walk())
