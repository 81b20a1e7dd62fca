"""Cardinality estimation.

Textbook System-R style estimation: uniform value distributions within
[min, max], independence between conjuncts, containment for joins.  The
estimates drive both optimizers' cost decisions; the paper itself notes
(Section 4.3) that cardinality misestimates are the main source of the
few regressions Orca shows — our model inherits the same character.
"""

from __future__ import annotations

import datetime
from typing import Any

from ..expr.ast import (
    Between,
    BoolExpr,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Literal,
    Parameter,
)
from .stats import ColumnStats, TableStats

#: Fallback selectivities when no statistics apply.
DEFAULT_EQ_SELECTIVITY = 0.05
DEFAULT_RANGE_SELECTIVITY = 0.3
DEFAULT_SELECTIVITY = 0.25


class RelationEstimate:
    """Estimated shape of an intermediate result: row count plus the column
    stats still known for it (keyed ``alias.column``)."""

    def __init__(self, rows: float, columns: dict[str, ColumnStats]):
        self.rows = max(rows, 1.0)
        self.columns = columns

    def column(self, ref: ColumnRef) -> ColumnStats | None:
        if ref.qualifier is not None:
            return self.columns.get(f"{ref.qualifier}.{ref.name}")
        matches = [
            stats
            for key, stats in self.columns.items()
            if key.split(".", 1)[-1] == ref.name
        ]
        if len(matches) == 1:
            return matches[0]
        return None

    @staticmethod
    def for_table(alias: str, stats: TableStats) -> "RelationEstimate":
        columns = {
            f"{alias}.{name}": col_stats
            for name, col_stats in stats.columns.items()
        }
        return RelationEstimate(float(stats.row_count), columns)

    def scaled(self, factor: float) -> "RelationEstimate":
        return RelationEstimate(self.rows * factor, dict(self.columns))

    def joined(self, other: "RelationEstimate", rows: float) -> "RelationEstimate":
        merged = dict(self.columns)
        merged.update(other.columns)
        return RelationEstimate(rows, merged)

    def __repr__(self) -> str:
        return f"RelationEstimate(rows={self.rows:.0f})"


def _as_fraction(value: Any, stats: ColumnStats) -> float | None:
    """Estimated fraction of rows with column value below ``value``.

    Uses the equi-depth histogram when one was collected (robust to skew);
    falls back to uniform interpolation within [min, max]."""
    if stats.histogram is not None:
        try:
            return stats.histogram.fraction_below(value)
        except TypeError:
            pass
    lo, hi = stats.min_value, stats.max_value
    if lo is None or hi is None or lo == hi:
        return None
    if isinstance(lo, datetime.date) and isinstance(value, datetime.date):
        span = (hi - lo).days
        pos = (value - lo).days
        return min(max(pos / span, 0.0), 1.0) if span else None
    if isinstance(lo, (int, float)) and isinstance(value, (int, float)):
        span = hi - lo
        pos = value - lo
        return min(max(pos / span, 0.0), 1.0) if span else None
    return None


def predicate_selectivity(
    predicate: Expression | None, input_est: RelationEstimate
) -> float:
    """Estimated fraction of input rows satisfying ``predicate``."""
    if predicate is None:
        return 1.0
    if isinstance(predicate, Literal):
        if predicate.value is True:
            return 1.0
        return 0.0
    if isinstance(predicate, BoolExpr):
        if predicate.op == BoolExpr.AND:
            result = 1.0
            for arg in predicate.args:
                result *= predicate_selectivity(arg, input_est)
            return result
        if predicate.op == BoolExpr.OR:
            miss = 1.0
            for arg in predicate.args:
                miss *= 1.0 - predicate_selectivity(arg, input_est)
            return 1.0 - miss
        return max(0.0, 1.0 - predicate_selectivity(predicate.args[0], input_est))
    if isinstance(predicate, Comparison):
        return _comparison_selectivity(predicate, input_est)
    if isinstance(predicate, Between):
        subject = predicate.subject
        if (
            isinstance(subject, ColumnRef)
            and isinstance(predicate.lo, Literal)
            and isinstance(predicate.hi, Literal)
        ):
            stats = input_est.column(subject)
            if stats is not None:
                lo = _as_fraction(predicate.lo.value, stats)
                hi = _as_fraction(predicate.hi.value, stats)
                if lo is not None and hi is not None:
                    return max(hi - lo, 1.0 / stats.ndv)
        return DEFAULT_RANGE_SELECTIVITY
    if isinstance(predicate, InList):
        subject = predicate.subject
        if isinstance(subject, ColumnRef):
            stats = input_est.column(subject)
            if stats is not None:
                return min(1.0, len(predicate.values) / stats.ndv)
        return min(1.0, len(predicate.values) * DEFAULT_EQ_SELECTIVITY)
    if isinstance(predicate, IsNull):
        subject = predicate.subject
        if isinstance(subject, ColumnRef):
            stats = input_est.column(subject)
            if stats is not None:
                frac = stats.null_fraction
                return 1.0 - frac if predicate.negated else frac
        return DEFAULT_EQ_SELECTIVITY
    return DEFAULT_SELECTIVITY


def _comparison_selectivity(
    predicate: Comparison, input_est: RelationEstimate
) -> float:
    left, right, op = predicate.left, predicate.right, predicate.op
    if isinstance(right, ColumnRef) and not isinstance(left, ColumnRef):
        mirrored = predicate.mirrored()
        left, right, op = mirrored.left, mirrored.right, mirrored.op
    if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
        # column = column inside one relation estimate: treat as join-style.
        left_stats = input_est.column(left)
        right_stats = input_est.column(right)
        if op == "=" and left_stats and right_stats:
            return 1.0 / max(left_stats.ndv, right_stats.ndv)
        return DEFAULT_EQ_SELECTIVITY if op == "=" else DEFAULT_RANGE_SELECTIVITY
    if isinstance(left, ColumnRef) and isinstance(right, (Literal, Parameter)):
        stats = input_est.column(left)
        if stats is None or isinstance(right, Parameter):
            return (
                DEFAULT_EQ_SELECTIVITY if op in ("=", "<>")
                else DEFAULT_RANGE_SELECTIVITY
            )
        value = right.value
        if op == "=":
            return 1.0 / stats.ndv
        if op == "<>":
            return 1.0 - 1.0 / stats.ndv
        fraction = _as_fraction(value, stats)
        if fraction is None:
            return DEFAULT_RANGE_SELECTIVITY
        if op in ("<", "<="):
            return max(fraction, 1.0 / stats.ndv)
        return max(1.0 - fraction, 1.0 / stats.ndv)
    return DEFAULT_SELECTIVITY


def join_estimate(
    left: RelationEstimate,
    right: RelationEstimate,
    predicate: Expression | None,
    kind: str = "inner",
) -> RelationEstimate:
    """Join cardinality: cross product scaled by predicate selectivity,
    with the classic ``1/max(ndv)`` rule for equi-conjuncts."""
    cross = left.rows * right.rows
    selectivity = 1.0
    if predicate is not None:
        from ..expr.analysis import conjuncts

        merged = left.joined(right, cross)
        for conjunct in conjuncts(predicate):
            selectivity *= predicate_selectivity(conjunct, merged)
    rows = cross * selectivity
    if kind == "semi":
        rows = min(left.rows, rows)
        return RelationEstimate(rows, dict(left.columns))
    return left.joined(right, rows)


def group_estimate(
    child: RelationEstimate, group_keys: list[ColumnRef]
) -> float:
    """Number of groups: product of key NDVs capped by input size."""
    if not group_keys:
        return 1.0
    ndv_product = 1.0
    for key in group_keys:
        stats = child.column(key)
        ndv_product *= stats.ndv if stats else 25.0
    return min(ndv_product, child.rows)
