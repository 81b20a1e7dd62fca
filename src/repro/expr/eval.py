"""Compiled expression evaluation.

A :class:`RowLayout` names the columns of a tuple stream (each as a
``(qualifier, name)`` pair).  :func:`compile_expression` and
:func:`compile_predicate` render an expression tree against a layout to
Python source and return the compiled function (:mod:`repro.expr.codegen`:
one evaluator, compiled once per expression *shape*, literals and ``$n``
values passed in as closure cells).  The per-tuple cost is one call whose
body reads slots by index.

SQL three-valued logic: an expression function returns
``True``/``False``/``None`` for predicates; a predicate function returns a
plain bool that is true only where the predicate is strictly TRUE, so
filters drop NULL results.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from ..errors import BindError
from .ast import ColumnRef, Expression
from .codegen import KernelSource

RowFunc = Callable[[tuple], Any]


class RowLayout:
    """The (qualifier, name) identity of each slot in a tuple stream."""

    __slots__ = ("slots", "_by_name")

    def __init__(self, slots: Sequence[tuple[str | None, str]]):
        self.slots: tuple[tuple[str | None, str], ...] = tuple(slots)
        by_name: dict[str, list[int]] = {}
        for i, (_, name) in enumerate(self.slots):
            by_name.setdefault(name, []).append(i)
        self._by_name = by_name

    @staticmethod
    def for_table(alias: str, column_names: Iterable[str]) -> "RowLayout":
        return RowLayout([(alias, name) for name in column_names])

    def concat(self, other: "RowLayout") -> "RowLayout":
        """Layout of a join output: left slots then right slots."""
        return RowLayout(self.slots + other.slots)

    def resolve(self, ref: ColumnRef) -> int:
        """Slot index for a column reference.

        Raises :class:`BindError` when the reference is unknown or — for an
        unqualified name visible from several relations — ambiguous.
        """
        candidates = self._by_name.get(ref.name, [])
        if ref.qualifier is not None:
            candidates = [
                i for i in candidates if self.slots[i][0] == ref.qualifier
            ]
        if not candidates:
            raise BindError(f"column {ref!r} not found in row layout")
        if len(candidates) > 1:
            raise BindError(f"column reference {ref!r} is ambiguous")
        return candidates[0]

    def has(self, ref: ColumnRef) -> bool:
        try:
            self.resolve(ref)
        except BindError:
            return False
        return True

    def __len__(self) -> int:
        return len(self.slots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowLayout):
            return NotImplemented
        return self.slots == other.slots

    def __repr__(self) -> str:
        names = ", ".join(
            f"{q}.{n}" if q else n for q, n in self.slots
        )
        return f"RowLayout({names})"


def compile_expression(
    expr: Expression,
    layout: RowLayout,
    params: Sequence[Any] | None = None,
) -> RowFunc:
    """Compile ``expr`` into a function ``row -> value`` over rows shaped by
    ``layout`` (``None`` = NULL).  ``params`` supplies ``$n`` values."""
    source = KernelSource(params)
    value = source.over(layout).value(expr)
    return source.build(["def k(r):", f"    return {value}", "return k"])


def compile_predicate(
    expr: Expression,
    layout: RowLayout,
    params: Sequence[Any] | None = None,
) -> Callable[[tuple], bool]:
    """Compile a predicate into ``row -> bool``: the predicate is TRUE
    (NULL counts as not matching)."""
    source = KernelSource(params)
    truth = source.over(layout).truth(expr)
    return source.build(["def k(r):", f"    return {truth}", "return k"])


def evaluate(
    expr: Expression,
    row: tuple = (),
    layout: RowLayout | None = None,
    params: Sequence[Any] | None = None,
) -> Any:
    """One-shot evaluation (convenience for tests and constant folding)."""
    return compile_expression(expr, layout or RowLayout(()), params)(row)
