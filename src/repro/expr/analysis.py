"""Predicate analysis: the paper's ``FindPredOnKey`` / ``Conj`` helpers and
the derivation of value sets (:class:`~repro.catalog.constraints.IntervalSet`)
from predicates on a partitioning key.

The derivation is what makes ``f*_T`` (Section 2.1) work for complex
predicates: a constant predicate on the key is translated into the set of
key values it admits; a partition may satisfy the predicate iff its check
constraint overlaps that set.  Predicates we cannot translate soundly
degrade to "no restriction" (select all partitions) — never to an unsound
pruning decision.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..catalog.constraints import Interval, IntervalSet
from ..errors import ReproError
from ..types import DataType
from .ast import (
    Between,
    BoolExpr,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Literal,
    Parameter,
    column_refs,
)
from .eval import evaluate


def conjuncts(expr: Expression | None) -> list[Expression]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BoolExpr) and expr.op == BoolExpr.AND:
        result: list[Expression] = []
        for arg in expr.args:
            result.extend(conjuncts(arg))
        return result
    return [expr]


def conj(predicates: Sequence[Expression | None]) -> Expression | None:
    """The paper's ``Conj``: conjunction of the non-null predicates,
    ``None`` when there are none."""
    present = [p for p in predicates if p is not None]
    if not present:
        return None
    if len(present) == 1:
        return present[0]
    return BoolExpr(BoolExpr.AND, present)


def is_constant(expr: Expression, allow_params: bool = True) -> bool:
    """Whether ``expr`` references no columns (parameters optionally OK)."""
    for node in expr.walk():
        if isinstance(node, ColumnRef):
            return False
        if isinstance(node, Parameter) and not allow_params:
            return False
    return True


def references_key(expr: Expression, key: ColumnRef) -> bool:
    return any(ref.matches(key) for ref in column_refs(expr))


def _only_references_key(expr: Expression, key: ColumnRef) -> bool:
    refs = column_refs(expr)
    return bool(refs) and all(ref.matches(key) for ref in refs)


def _comparison_on_key(expr: Comparison, key: ColumnRef) -> Comparison | None:
    """Normalise a comparison so the key column is the left side, or return
    ``None`` when the comparison does not isolate the key on one side."""
    left_is_key = isinstance(expr.left, ColumnRef) and expr.left.matches(key)
    right_is_key = isinstance(expr.right, ColumnRef) and expr.right.matches(key)
    if left_is_key and not references_key(expr.right, key):
        return expr
    if right_is_key and not references_key(expr.left, key):
        return expr.mirrored()
    return None


def usable_on_key(expr: Expression, key: ColumnRef) -> bool:
    """Whether ``expr`` is a partition-filtering predicate for ``key``.

    Two accepted shapes:

    * **constant form** — every column referenced is the key itself
      (e.g. ``pk BETWEEN 10 AND 12``, ``pk = $1``, ``pk = 3 OR pk = 7``);
    * **join form** — a comparison with the key isolated on one side and an
      expression over *other* columns on the other (e.g. ``R.A = T.pk``),
      the shape dynamic partition elimination consumes at run time.
    """
    if _only_references_key(expr, key):
        return derive_interval_set(expr, key, best_effort=True) is not None
    if isinstance(expr, Comparison):
        normalized = _comparison_on_key(expr, key)
        if normalized is not None and column_refs(normalized.right):
            return True
    return False


def find_pred_on_key(
    predicate: Expression | None, key: ColumnRef
) -> Expression | None:
    """The paper's ``FindPredOnKey``: extract from ``predicate`` the
    conjunction of conjuncts usable for partition selection on ``key``."""
    usable = [c for c in conjuncts(predicate) if usable_on_key(c, key)]
    return conj(usable)


def find_preds_on_keys(
    predicate: Expression | None, keys: Sequence[ColumnRef]
) -> list[Expression | None]:
    """Multi-level variant (Section 2.4): one entry per partitioning level,
    ``None`` marking the absence of a predicate on that level's key."""
    return [find_pred_on_key(predicate, key) for key in keys]


def pins_key(expr: Expression, key: ColumnRef) -> bool:
    """Whether ``expr`` can only hold for finitely many values of ``key``,
    whatever the parameter values: ``key = <constant>``, ``key IN (...)``,
    or an ``AND``/``OR`` of nothing else (top-level conjuncts are the
    caller's to split).  Purely syntactic, so a plan can be tested before
    parameter values exist; the values themselves come from
    :func:`derive_interval_set` at run time, which accepts every shape
    accepted here.
    """
    if isinstance(expr, Comparison):
        normalized = _comparison_on_key(expr, key)
        return (
            normalized is not None
            and normalized.op == "="
            and is_constant(normalized.right)
        )
    if isinstance(expr, InList):
        return isinstance(expr.subject, ColumnRef) and expr.subject.matches(key)
    if isinstance(expr, BoolExpr) and expr.op != BoolExpr.NOT:
        return all(pins_key(arg, key) for arg in expr.args)
    return False


def interval_for_comparison(op: str, value: Any) -> IntervalSet:
    """The set of key values admitted by ``key <op> value``.

    NULL comparands admit nothing (the comparison is never true).
    """
    if value is None:
        return IntervalSet.EMPTY
    if op == "=":
        return IntervalSet.of(Interval.point(value))
    if op == "<>":
        return IntervalSet.of(Interval.point(value)).complement()
    if op == "<":
        return IntervalSet.of(Interval.less_than(value))
    if op == "<=":
        return IntervalSet.of(Interval.at_most(value))
    if op == ">":
        return IntervalSet.of(Interval.greater_than(value))
    if op == ">=":
        return IntervalSet.of(Interval.at_least(value))
    raise ValueError(f"unknown comparison operator {op!r}")


def derive_interval_set(
    predicate: Expression,
    key: ColumnRef,
    params: Sequence[Any] | None = None,
    best_effort: bool = False,
    key_type: DataType | None = None,
) -> IntervalSet | None:
    """Translate a constant-form predicate on ``key`` into the set of key
    values it admits.

    Returns ``None`` when the predicate shape is not supported (callers must
    then fall back to selecting all partitions).  With ``best_effort=True``
    parameter markers are treated as derivable placeholders so the *shape*
    can be validated at plan time before parameter values exist.

    ``key_type`` — when given — coerces constant comparands to the key's
    declared type before interval arithmetic, so ``date_col IN
    ('2013-05-15', ...)`` compares dates to dates rather than strings to
    dates.  An uncoercible comparison bound degrades to "no restriction";
    an uncoercible IN value is dropped when it can never equal a well-typed
    key (a malformed date string), and degrades to "no restriction" when it
    still can (a float in an integer key's list).
    """
    try:
        return _derive_interval_set(
            predicate, key, params, best_effort, key_type
        )
    except TypeError:
        # Incomparable comparand types (e.g. a mixed IN list analysed
        # without type context) cannot be ordered into intervals; degrade
        # to "unsupported" rather than crash — callers then keep all
        # partitions, which is always sound.
        return None


def _derive_interval_set(
    predicate: Expression,
    key: ColumnRef,
    params: Sequence[Any] | None,
    best_effort: bool,
    key_type: DataType | None,
) -> IntervalSet | None:

    def fold(expr: Expression) -> Any:
        """Evaluate a column-free subexpression to a constant."""
        if isinstance(expr, Literal):
            return expr.value
        if best_effort and any(
            isinstance(n, Parameter) for n in expr.walk()
        ):
            return _SHAPE_ONLY
        return evaluate(expr, params=params)

    def coerce(value: Any) -> Any:
        if key_type is None or value is None or value is _SHAPE_ONLY:
            return value
        try:
            return key_type.validate(value)
        except ReproError:
            return _UNCOERCIBLE

    if isinstance(predicate, Comparison):
        normalized = _comparison_on_key(predicate, key)
        if normalized is None or not is_constant(normalized.right):
            return None
        value = fold(normalized.right)
        if value is _SHAPE_ONLY:
            return IntervalSet.ALL
        value = coerce(value)
        if value is _UNCOERCIBLE:
            return None
        return interval_for_comparison(normalized.op, value)

    if isinstance(predicate, Between):
        if not (
            isinstance(predicate.subject, ColumnRef)
            and predicate.subject.matches(key)
            and is_constant(predicate.lo)
            and is_constant(predicate.hi)
        ):
            return None
        lo, hi = fold(predicate.lo), fold(predicate.hi)
        if lo is _SHAPE_ONLY or hi is _SHAPE_ONLY:
            return IntervalSet.ALL
        lo, hi = coerce(lo), coerce(hi)
        if lo is _UNCOERCIBLE or hi is _UNCOERCIBLE:
            return None
        if lo is None or hi is None or hi < lo:
            return IntervalSet.EMPTY
        return IntervalSet.of(Interval(lo, hi, True, True))

    if isinstance(predicate, InList):
        if not (
            isinstance(predicate.subject, ColumnRef)
            and predicate.subject.matches(key)
        ):
            return None
        points = []
        for v in predicate.values:
            if v is None:
                continue
            coerced = coerce(v)
            if coerced is _UNCOERCIBLE:
                if isinstance(v, (int, float)):
                    # 7.0 is not a valid INT but still equals the key 7
                    return None
                continue
            points.append(coerced)
        return IntervalSet.points(points)

    if isinstance(predicate, IsNull):
        if not (
            isinstance(predicate.subject, ColumnRef)
            and predicate.subject.matches(key)
        ):
            return None
        # Partition constraints never contain NULL, so IS NULL admits no
        # partitioned value and IS NOT NULL admits them all.
        return IntervalSet.ALL if predicate.negated else IntervalSet.EMPTY

    if isinstance(predicate, BoolExpr):
        child_sets = []
        for arg in predicate.args:
            child = derive_interval_set(
                arg, key, params, best_effort, key_type
            )
            if child is None:
                return None
            child_sets.append(child)
        if predicate.op == BoolExpr.AND:
            result = IntervalSet.ALL
            for cs in child_sets:
                result = result.intersect(cs)
            return result
        if predicate.op == BoolExpr.OR:
            result = IntervalSet.EMPTY
            for cs in child_sets:
                result = result.union(cs)
            return result
        # NOT: sound only because NULL keys cannot be stored in any
        # partition, so complementing the admitted set is exact.
        return child_sets[0].complement()

    if isinstance(predicate, Literal):
        if predicate.value is True:
            return IntervalSet.ALL
        if predicate.value in (False, None):
            return IntervalSet.EMPTY
        return None

    return None


class _ShapeOnly:
    """Sentinel: a parameter value unknown at plan time."""

    def __repr__(self) -> str:
        return "<shape-only>"


_SHAPE_ONLY = _ShapeOnly()


class _Uncoercible:
    """Sentinel: a comparand the key's type cannot represent."""

    def __repr__(self) -> str:
        return "<uncoercible>"


_UNCOERCIBLE = _Uncoercible()


def join_comparison_on_key(
    predicate: Expression | None, key: ColumnRef
) -> list[Comparison]:
    """All join-form conjuncts on ``key``, normalised key-on-the-left.

    These drive dynamic partition elimination: for each streamed tuple the
    PartitionSelector evaluates each comparison's right side and intersects
    the per-comparison admitted sets.
    """
    found = []
    for c in conjuncts(predicate):
        if not isinstance(c, Comparison):
            continue
        normalized = _comparison_on_key(c, key)
        if normalized is not None and column_refs(normalized.right):
            found.append(normalized)
    return found
