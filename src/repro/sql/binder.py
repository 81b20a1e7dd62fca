"""Binder: statement AST → logical operator tree.

Responsibilities:

* resolve table names against the catalog and column references against the
  visible scope, **fully qualifying** every column reference (so later
  phases can match columns by alias deterministically);
* build a canonical left-deep join tree in FROM order, distributing WHERE
  conjuncts: single-relation conjuncts become Selects directly over their
  relation, join conjuncts attach to the first join that covers them —
  this reproduces the shape of the paper's Figure 8(a);
* rewrite ``x IN (SELECT ...)`` into a **semi-join** (the paper's Figure 4
  query becomes a join and thus a dynamic-partition-elimination
  opportunity);
* split aggregation queries into GroupBy + Project, and DISTINCT into a
  grouping on the output columns;
* bind UPDATE ... FROM into a join tree beneath a LogicalUpdate.
"""

from __future__ import annotations

from typing import Sequence

from ..catalog import Catalog
from ..errors import BindError
from ..expr.analysis import conj, conjuncts
from ..expr.ast import (
    AggCall,
    Arithmetic,
    Between,
    BoolExpr,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Literal,
    column_refs,
    contains_aggregate,
)
from ..logical.ops import (
    INNER,
    SEMI,
    LogicalDelete,
    LogicalGet,
    LogicalGroupBy,
    LogicalJoin,
    LogicalLimit,
    LogicalOp,
    LogicalProject,
    LogicalSelect,
    LogicalSort,
    LogicalUpdate,
)
from .ast import (
    DeleteStmt,
    InsertStmt,
    InSubquery,
    SelectStmt,
    TableRef,
    UpdateStmt,
)


class _Scope:
    """Visible relations: alias → column names."""

    def __init__(self) -> None:
        self._relations: dict[str, tuple[str, ...]] = {}

    def add(self, alias: str, columns: Sequence[str]) -> None:
        if alias in self._relations:
            raise BindError(f"duplicate table alias {alias!r}")
        self._relations[alias] = tuple(columns)

    def aliases(self) -> list[str]:
        return list(self._relations)

    def columns(self, alias: str) -> tuple[str, ...]:
        return self._relations[alias]

    def qualify(self, ref: ColumnRef) -> ColumnRef:
        """Return a fully qualified copy of ``ref``; raise on unknown or
        ambiguous references."""
        if ref.qualifier is not None:
            cols = self._relations.get(ref.qualifier)
            if cols is None:
                raise BindError(f"unknown table alias {ref.qualifier!r}")
            if ref.name not in cols:
                raise BindError(
                    f"column {ref.name!r} not found in {ref.qualifier!r}"
                )
            return ref
        owners = [
            alias for alias, cols in self._relations.items() if ref.name in cols
        ]
        if not owners:
            raise BindError(f"unknown column {ref.name!r}")
        if len(owners) > 1:
            raise BindError(
                f"column {ref.name!r} is ambiguous (in {', '.join(owners)})"
            )
        return ColumnRef(ref.name, owners[0])

    def relations_of(self, expr: Expression) -> set[str]:
        """Aliases referenced by a (qualified) expression."""
        return {ref.qualifier for ref in column_refs(expr) if ref.qualifier}


class Binder:
    """Binds parsed statements against a catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._subquery_counter = 0

    # -- public entry points -------------------------------------------------

    def bind(self, statement) -> LogicalOp:
        if isinstance(statement, SelectStmt):
            return self.bind_select(statement)
        if isinstance(statement, UpdateStmt):
            return self.bind_update(statement)
        if isinstance(statement, DeleteStmt):
            return self.bind_delete(statement)
        raise BindError(
            f"cannot bind statement of type {type(statement).__name__}"
        )

    def bind_select(self, stmt: SelectStmt) -> LogicalOp:
        scope = _Scope()
        gets = [self._bind_table(table_ref, scope) for table_ref in stmt.tables]
        explicit_joins = [
            (self._bind_table(table_ref, scope), on_expr)
            for table_ref, on_expr in stmt.joins
        ]
        semi_joins: list[tuple[LogicalOp, Expression]] = []
        residual: list[Expression] = []
        plan = self._bind_from_where(
            scope, gets, stmt.where, semi_joins, explicit_joins, residual
        )
        for sub_plan, predicate in semi_joins:
            plan = LogicalJoin(SEMI, plan, sub_plan, predicate)
        if residual:
            plan = LogicalSelect(plan, conj(residual))  # type: ignore[arg-type]

        plan = self._bind_projection(stmt, plan, scope)

        if stmt.order_by:
            output = plan.output_layout()
            keys = []
            for expr, ascending in stmt.order_by:
                bound = self._qualify_against_layout(expr, output, scope)
                keys.append((bound, ascending))
            plan = LogicalSort(plan, keys)
        if stmt.limit is not None:
            plan = LogicalLimit(plan, stmt.limit)
        return plan

    def bind_update(self, stmt: UpdateStmt) -> LogicalOp:
        scope = _Scope()
        target_get = self._bind_table(stmt.target, scope)
        gets = [target_get]
        for table_ref in stmt.from_tables:
            gets.append(self._bind_table(table_ref, scope))
        semi_joins: list[tuple[LogicalOp, Expression]] = []
        plan = self._bind_from_where(scope, gets, stmt.where, semi_joins)
        if semi_joins:
            raise BindError("IN (subquery) is not supported in UPDATE")

        assignments = []
        target_schema = target_get.table.schema
        for column, value in stmt.assignments:
            if not target_schema.has_column(column):
                raise BindError(
                    f"column {column!r} not in table {target_get.table.name!r}"
                )
            assignments.append(
                (column, self._bind_scalar(value, scope, None))
            )
        return LogicalUpdate(
            plan, target_get.table, target_get.alias, assignments
        )

    def bind_delete(self, stmt: DeleteStmt) -> LogicalOp:
        scope = _Scope()
        target_get = self._bind_table(stmt.target, scope)
        gets = [target_get]
        for table_ref in stmt.using_tables:
            gets.append(self._bind_table(table_ref, scope))
        semi_joins: list[tuple[LogicalOp, Expression]] = []
        plan = self._bind_from_where(scope, gets, stmt.where, semi_joins)
        for sub_plan, predicate in semi_joins:
            plan = LogicalJoin(SEMI, plan, sub_plan, predicate)
        return LogicalDelete(plan, target_get.table, target_get.alias)

    def bind_insert_rows(self, stmt: InsertStmt) -> tuple[str, list[list]]:
        """INSERTs bypass planning; validate the table exists and return
        ``(table name, rows)`` for direct storage insertion."""
        descriptor = self.catalog.table(stmt.table.name)
        return descriptor.name, stmt.rows

    # -- helpers --------------------------------------------------------------

    def _bind_table(self, table_ref: TableRef, scope: _Scope) -> LogicalGet:
        descriptor = self.catalog.table(table_ref.name)
        scope.add(table_ref.alias, descriptor.schema.column_names)
        return LogicalGet(descriptor, table_ref.alias)

    def _bind_from_where(
        self,
        scope: _Scope,
        gets: list[LogicalGet],
        where: Expression | None,
        semi_joins: list[tuple[LogicalOp, Expression]],
        explicit_joins: Sequence[tuple[LogicalGet, Expression]] = (),
        constants: list[Expression] | None = None,
    ) -> LogicalOp:
        """The left-deep join of ``gets`` then ``explicit_joins`` (JOIN ...
        ON, the ON bound here) in FROM order, with ``where`` split into
        conjuncts: one over a single table filters that table, one over
        several joins at the first join that covers it, and an
        IN-subquery becomes a semi-join appended to ``semi_joins`` (its
        inline ``TRUE`` is dropped).  A conjunct over no table goes to
        ``constants`` when given; otherwise it is placed like a join
        conjunct (at the first join, or above a lone table)."""
        join_preds: list[Expression] = []
        table_filters: dict[str, list[Expression]] = {}
        if where is not None:
            for conjunct in conjuncts(where):
                bound = self._bind_scalar(conjunct, scope, semi_joins)
                if isinstance(bound, Literal) and bound.value is True:
                    continue
                refs = scope.relations_of(bound)
                if len(refs) == 1:
                    table_filters.setdefault(next(iter(refs)), []).append(bound)
                elif refs or constants is None:
                    join_preds.append(bound)
                else:
                    constants.append(bound)

        plan = self._with_filters(gets[0], table_filters)
        joined_aliases = {gets[0].alias}
        pending = join_preds
        for get in gets[1:]:
            right = self._with_filters(get, table_filters)
            joined_aliases.add(get.alias)
            usable, pending = _split_covered(pending, joined_aliases, scope)
            plan = LogicalJoin(INNER, plan, right, conj(usable))
        for get, on_expr in explicit_joins:
            right = self._with_filters(get, table_filters)
            joined_aliases.add(get.alias)
            bound_on = self._bind_scalar(on_expr, scope, semi_joins)
            usable, pending = _split_covered(pending, joined_aliases, scope)
            plan = LogicalJoin(INNER, plan, right, conj([bound_on] + usable))
        if pending:
            plan = LogicalSelect(plan, conj(pending))  # type: ignore[arg-type]
        return plan

    def _with_filters(
        self, get: LogicalGet, table_filters: dict[str, list[Expression]]
    ) -> LogicalOp:
        filters = table_filters.get(get.alias)
        if not filters:
            return get
        predicate = conj(filters)
        assert predicate is not None
        return LogicalSelect(get, predicate)

    def _bind_scalar(
        self,
        expr: Expression,
        scope: _Scope,
        semi_joins: list[tuple[LogicalOp, Expression]] | None,
    ) -> Expression:
        """Qualify column refs; rewrite IN-subqueries to pending semi-joins
        (``semi_joins`` is None where no semi-join can be placed)."""
        if isinstance(expr, ColumnRef):
            return scope.qualify(expr)
        if isinstance(expr, InSubquery):
            if semi_joins is None:
                raise BindError(
                    "IN (subquery) is only supported in WHERE and ON conjuncts"
                )
            subject = self._bind_scalar(expr.subject, scope, semi_joins)
            sub_plan, output_ref = self._bind_subquery(expr.subquery)
            predicate = Comparison("=", subject, output_ref)
            semi_joins.append((sub_plan, predicate))
            # The semi-join itself is the predicate; nothing remains inline.
            return Literal(True)
        if isinstance(expr, Comparison):
            return Comparison(
                expr.op,
                self._bind_scalar(expr.left, scope, semi_joins),
                self._bind_scalar(expr.right, scope, semi_joins),
            )
        if isinstance(expr, BoolExpr):
            if expr.op != BoolExpr.AND and any(
                isinstance(node, InSubquery) for node in expr.walk()
            ):
                raise BindError(
                    "IN (subquery) is only supported in AND-ed conjuncts"
                )
            return BoolExpr(
                expr.op,
                [self._bind_scalar(a, scope, semi_joins) for a in expr.args],
            )
        if isinstance(expr, Between):
            return Between(
                self._bind_scalar(expr.subject, scope, semi_joins),
                self._bind_scalar(expr.lo, scope, semi_joins),
                self._bind_scalar(expr.hi, scope, semi_joins),
            )
        if isinstance(expr, InList):
            return InList(
                self._bind_scalar(expr.subject, scope, semi_joins), expr.values
            )
        if isinstance(expr, IsNull):
            return IsNull(
                self._bind_scalar(expr.subject, scope, semi_joins), expr.negated
            )
        if isinstance(expr, Arithmetic):
            return Arithmetic(
                expr.op,
                self._bind_scalar(expr.left, scope, semi_joins),
                self._bind_scalar(expr.right, scope, semi_joins),
            )
        if isinstance(expr, AggCall):
            arg = (
                self._bind_scalar(expr.arg, scope, semi_joins)
                if expr.arg is not None
                else None
            )
            return AggCall(expr.func, arg)
        return expr  # Literal, Parameter

    def _bind_subquery(self, stmt: SelectStmt) -> tuple[LogicalOp, ColumnRef]:
        """Bind an IN-subquery; its single output column is renamed to a
        unique name so the semi-join predicate cannot be ambiguous."""
        sub_plan = self.bind_select(stmt)
        layout = sub_plan.output_layout()
        if len(layout) != 1:
            raise BindError(
                "IN (subquery) requires a single-column subquery"
            )
        self._subquery_counter += 1
        unique = f"__subq{self._subquery_counter}"
        qualifier, name = layout.slots[0]
        inner_ref = ColumnRef(name, qualifier)
        renamed = LogicalProject(sub_plan, [(inner_ref, unique)])
        return renamed, ColumnRef(unique)

    def _bind_projection(
        self, stmt: SelectStmt, plan: LogicalOp, scope: _Scope
    ) -> LogicalOp:
        # Expand stars and qualify item expressions.
        items: list[tuple[Expression, str]] = []
        used_names: set[str] = set()
        for item in stmt.items:
            if item.is_star:
                for alias in scope.aliases():
                    for col in scope.columns(alias):
                        items.append(
                            (ColumnRef(col, alias), _fresh(col, used_names))
                        )
                continue
            bound = self._bind_scalar(item.expr, scope, None)
            name = item.alias or _default_name(bound)
            items.append((bound, _fresh(name, used_names)))

        has_aggs = bool(stmt.group_by) or any(
            contains_aggregate(expr) for expr, _ in items
        )
        if not has_aggs:
            plan = LogicalProject(plan, items)
            if stmt.distinct:
                output = plan.output_layout()
                keys = [ColumnRef(name, q) for q, name in output.slots]
                plan = LogicalGroupBy(plan, keys, [])
            return plan

        group_keys: list[ColumnRef] = []
        for expr in stmt.group_by:
            bound = self._bind_scalar(expr, scope, None)
            if not isinstance(bound, ColumnRef):
                raise BindError("GROUP BY supports plain columns only")
            group_keys.append(bound)

        agg_map: dict[AggCall, str] = {}
        final_items: list[tuple[Expression, str]] = []
        for expr, name in items:
            final_items.append((_extract_aggs(expr, agg_map, group_keys), name))
        aggregates = [(agg, agg_name) for agg, agg_name in agg_map.items()]
        grouped = LogicalGroupBy(plan, group_keys, aggregates)
        projected: LogicalOp = LogicalProject(grouped, final_items)
        if stmt.distinct:
            output = projected.output_layout()
            keys = [ColumnRef(name, q) for q, name in output.slots]
            projected = LogicalGroupBy(projected, keys, [])
        return projected

    def _qualify_against_layout(self, expr, layout, scope: _Scope):
        """Bind ORDER BY expressions against the projection output.

        A qualified reference (``c.state``) also matches the output column
        of the same bare name, since projection outputs drop qualifiers.
        Ordering by columns that are not in the select list is not
        supported (project them explicitly).
        """
        if isinstance(expr, ColumnRef):
            if layout.has(expr):
                return expr
            bare = ColumnRef(expr.name)
            if layout.has(bare):
                return bare
            raise BindError(
                f"ORDER BY column {expr!r} must appear in the select list"
            )
        return self._bind_scalar(expr, scope, None)


def _split_covered(
    predicates: list[Expression], aliases: set[str], scope: _Scope
) -> tuple[list[Expression], list[Expression]]:
    covered = [p for p in predicates if scope.relations_of(p) <= aliases]
    rest = [p for p in predicates if scope.relations_of(p) - aliases]
    return covered, rest


def _fresh(name: str, used: set[str]) -> str:
    candidate = name
    suffix = 1
    while candidate in used:
        candidate = f"{name}_{suffix}"
        suffix += 1
    used.add(candidate)
    return candidate


def _default_name(expr: Expression) -> str:
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, AggCall):
        return expr.func
    return "expr"


def _extract_aggs(
    expr: Expression,
    agg_map: dict[AggCall, str],
    group_keys: list[ColumnRef],
) -> Expression:
    """Replace AggCall nodes with references to generated aggregate columns
    and verify non-aggregate columns are grouping keys."""
    if isinstance(expr, AggCall):
        if expr not in agg_map:
            agg_map[expr] = f"__agg{len(agg_map)}"
        return ColumnRef(agg_map[expr])
    if isinstance(expr, ColumnRef):
        if not any(expr.matches(key) for key in group_keys):
            raise BindError(
                f"column {expr!r} must appear in GROUP BY or an aggregate"
            )
        return expr
    if isinstance(expr, Arithmetic):
        return Arithmetic(
            expr.op,
            _extract_aggs(expr.left, agg_map, group_keys),
            _extract_aggs(expr.right, agg_map, group_keys),
        )
    if isinstance(expr, Comparison):
        return Comparison(
            expr.op,
            _extract_aggs(expr.left, agg_map, group_keys),
            _extract_aggs(expr.right, agg_map, group_keys),
        )
    return expr
