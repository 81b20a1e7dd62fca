"""Section 3.2 lowering: PartitionSelectors as plain query operators over
the Table 1 built-in functions (paper Figure 15).

GPDB implements PartitionSelectors with "a combination of special-purpose
built-in functions, and existing query operators to invoke these
functions".  This module reproduces that realisation for single-level
partitioned tables:

* **Figure 15(b)** (range/constant selection)::

      Sequence
        Project(partition_propagation(...))     -> PropagatingProject(mode=oids)
          Filter(range overlap)
            FunctionScan(partition_constraints) -> ConstraintsFunctionScan
        <consumer subtree with DynamicScan>

* **Figure 15(a)** (per-tuple equality selection, join DPE)::

      ...Join...
        PropagatingProject(mode=selection)      -> partition_selection(key)
          <producer-side subtree>
        DynamicScan

:func:`lower_partition_selectors` rewrites every lowerable
PartitionSelector in a plan into this form; selectors it cannot lower
(multi-level tables, non-equality streaming predicates, mixed shapes) are
left native.  Both forms execute identically to the native selector, which
the test suite verifies, demonstrating the paper's point that "static" and
"dynamic" partition selection share one uniform runtime mechanism.
"""

from __future__ import annotations

from repro.catalog import TableDescriptor
from repro.catalog.constraints import IntervalSet
from repro.expr.analysis import (
    conjuncts,
    derive_interval_set,
    join_comparison_on_key,
)
from repro.expr.ast import (
    BoolExpr,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    column_refs,
)
from repro.expr.eval import RowLayout, compile_expression
from repro.physical.ops import PartitionSelector, PhysicalOp, Sequence
from repro.physical.plan import Plan
from repro.resilience.faults import CHANNEL_CLOSE
from repro.executor.context import ExecContext
from repro.executor.iterators import OPERATORS, _slice_batches, build_batches
from repro.executor.runtime_funcs import (
    partition_constraints,
    partition_propagation,
    partition_selection,
)

OID_COLUMN = "oid"
MIN_COLUMN = "min_value"
MAX_COLUMN = "max_value"


class ConstraintsFunctionScan(PhysicalOp):
    """FunctionScan over ``partition_constraints(rootOid)`` (Figure 15(b)).

    Emits one row per leaf partition: (oid, min, min_incl, max, max_incl)
    for a single-level partitioned table.
    """

    def __init__(self, table: TableDescriptor):
        self.table = table

    def output_layout(self) -> RowLayout:
        return RowLayout(
            [
                (None, OID_COLUMN),
                (None, MIN_COLUMN),
                (None, "min_inclusive"),
                (None, MAX_COLUMN),
                (None, "max_inclusive"),
            ]
        )

    def describe(self) -> str:
        return f"partition_constraints({self.table.name})"

    def serial_fields(self) -> dict:
        return {"function": "partition_constraints", "table_oid": self.table.oid}


class PropagatingProject(PhysicalOp):
    """Project invoking ``partition_propagation`` on its rows (both Figure
    15 shapes).

    ``mode='oids'``: the input rows carry a partition OID column (from a
    filtered ConstraintsFunctionScan); each OID is propagated.
    ``mode='selection'``: compute ``partition_selection(key_expr(row))``
    per input row and propagate the resulting OID — the equality/join form.
    Rows pass through unchanged, like a pass-through PartitionSelector.
    """

    streaming_producer = True  # producing finishes when input is exhausted

    def __init__(
        self,
        child: PhysicalOp,
        table: TableDescriptor,
        part_scan_id: int,
        mode: str,
        key_expr: Expression | None = None,
    ):
        if mode not in ("oids", "selection"):
            raise ValueError(f"unknown PropagatingProject mode {mode!r}")
        if mode == "selection" and key_expr is None:
            raise ValueError("selection mode requires a key expression")
        self.children = (child,)
        self.table = table
        self.produces_part_scan_id = part_scan_id
        self.mode = mode
        self.key_expr = key_expr

    def output_layout(self) -> RowLayout:
        return self.children[0].output_layout()

    def describe(self) -> str:
        if self.mode == "oids":
            call = f"partition_propagation({self.produces_part_scan_id}, {OID_COLUMN})"
        else:
            call = (
                f"partition_propagation({self.produces_part_scan_id}, "
                f"partition_selection({self.table.name}, {self.key_expr!r}))"
            )
        return call

    def serial_fields(self) -> dict:
        return {
            "part_scan_id": self.produces_part_scan_id,
            "table_oid": self.table.oid,
            "mode": self.mode,
            "key_expr": repr(self.key_expr) if self.key_expr else None,
        }


def _constraints_scan_batches(
    op: ConstraintsFunctionScan, segment: int, ctx: ExecContext
):
    rows = [
        (
            row.oid,
            row.min_values[0],
            row.min_inclusive[0],
            row.max_values[0],
            row.max_inclusive[0],
        )
        for row in partition_constraints(ctx.catalog, op.table.oid)
    ]
    return _slice_batches(rows, ctx.settings.batch_size)


def _propagating_project_batches(
    op: PropagatingProject, segment: int, ctx: ExecContext
):
    child = op.children[0]
    scan_id = op.produces_part_scan_id
    channel = ctx.channel(scan_id, segment)
    ctx.metrics.node(op).part_scan_id = scan_id
    # 'oids' is the Figure 15(b) constant/range form (static elimination);
    # 'selection' is the per-tuple join form (dynamic elimination).
    ctx.metrics.record_selector(
        scan_id,
        "static" if op.mode == "oids" else "dynamic",
        op.table.num_leaves,
    )
    if op.mode == "oids":
        oid_index = child.output_layout().resolve(ColumnRef(OID_COLUMN))

        def oids_of(batch):
            return [row[oid_index] for row in batch]

    else:
        key_fn = compile_expression(
            op.key_expr, child.output_layout(), ctx.params
        )

        def oids_of(batch):
            found = (
                partition_selection(ctx.catalog, op.table.oid, key_fn(row))
                for row in batch
            )
            return [oid for oid in found if oid is not None]

    # one propagation per batch: a row's OID counts once per row
    for batch in build_batches(child, segment, ctx):
        oids = oids_of(batch)
        if oids:
            partition_propagation(
                ctx, scan_id, segment, op.table.leaf_mask(oids), len(oids)
            )
        yield batch
    if ctx.faults.active:
        ctx.faults.maybe_fire(CHANNEL_CLOSE, segment)
    channel.close()


OPERATORS[ConstraintsFunctionScan] = _constraints_scan_batches
OPERATORS[PropagatingProject] = _propagating_project_batches


# ---------------------------------------------------------------------------
# Rewriting plans into the lowered form
# ---------------------------------------------------------------------------


def lower_partition_selectors(plan: Plan) -> Plan:
    """Rewrite every lowerable PartitionSelector into the Figure 15 form."""
    lowered = Plan(_lower(plan.root), plan.parameter_count)
    lowered.validate()
    return lowered


def _lower(op: PhysicalOp) -> PhysicalOp:
    children = [_lower(child) for child in op.children]
    if op.children:
        op = op.with_children(children)
    if not isinstance(op, PartitionSelector):
        return op
    replacement = _lower_selector(op)
    return replacement if replacement is not None else op


def _lower_selector(op: PartitionSelector) -> PhysicalOp | None:
    spec = op.spec
    if len(spec.part_keys) != 1 or spec.table.partition_scheme.num_levels != 1:
        return None
    key = spec.part_keys[0]
    predicate = spec.part_predicates[0]
    child = op.children[0] if op.children else None

    if predicate is None or _is_constant_form(predicate, key):
        interval_set = (
            IntervalSet.ALL
            if predicate is None
            else derive_interval_set(
                predicate,
                key,
                best_effort=True,
                key_type=spec.table.schema.column(key.name).data_type,
            )
        )
        if interval_set is None:
            return None
        producer = _static_producer(spec.table, spec.part_scan_id, interval_set)
        if child is None:
            return producer
        # Pass-through static selector: run the producer first, then the
        # original input (Sequence keeps the ordering contract).
        return Sequence([producer, child])

    # Streaming form: only single equality comparisons lower to
    # partition_selection (Figure 15(a)).
    if child is None:
        return None
    comparisons = join_comparison_on_key(predicate, key)
    if (
        len(comparisons) != 1
        or comparisons[0].op != "="
        or len(conjuncts(predicate)) != 1
    ):
        return None
    return PropagatingProject(
        child,
        spec.table,
        spec.part_scan_id,
        mode="selection",
        key_expr=comparisons[0].right,
    )


def _is_constant_form(predicate: Expression, key: ColumnRef) -> bool:
    return all(ref.matches(key) for ref in column_refs(predicate))


def _static_producer(
    table: TableDescriptor, part_scan_id: int, interval_set: IntervalSet
) -> PhysicalOp:
    """Figure 15(b): Filter over partition_constraints, propagated."""
    from repro.physical.ops import Filter

    scan: PhysicalOp = ConstraintsFunctionScan(table)
    overlap = _overlap_predicate(interval_set)
    if overlap is not None:
        scan = Filter(scan, overlap)
    return PropagatingProject(scan, table, part_scan_id, mode="oids")


def _overlap_predicate(interval_set: IntervalSet) -> Expression | None:
    """A predicate over (min_value, max_value) rows that is true iff the
    partition's (single) constraint interval overlaps ``interval_set``.

    Exact for the single-interval slot constraints our range and point
    levels produce, because interval endpoints are compared directly.
    """
    if interval_set.is_universe:
        return None
    min_col = ColumnRef(MIN_COLUMN)
    max_col = ColumnRef(MAX_COLUMN)
    min_incl = ColumnRef("min_inclusive")
    max_incl = ColumnRef("max_inclusive")
    terms: list[Expression] = []
    for interval in interval_set:
        parts: list[Expression] = []
        if interval.hi is not None:
            # The partition must start before the query interval ends; the
            # boundary case needs both endpoints inclusive.
            strict = Comparison("<", min_col, Literal(interval.hi))
            if interval.hi_inclusive:
                boundary = BoolExpr(
                    "AND",
                    [Comparison("=", min_col, Literal(interval.hi)), min_incl],
                )
                parts.append(BoolExpr("OR", [strict, boundary]))
            else:
                parts.append(strict)
        if interval.lo is not None:
            strict = Comparison(">", max_col, Literal(interval.lo))
            if interval.lo_inclusive:
                boundary = BoolExpr(
                    "AND",
                    [Comparison("=", max_col, Literal(interval.lo)), max_incl],
                )
                parts.append(BoolExpr("OR", [strict, boundary]))
            else:
                parts.append(strict)
        if not parts:
            return None
        terms.append(parts[0] if len(parts) == 1 else BoolExpr("AND", parts))
    if len(terms) == 1:
        return terms[0]
    return BoolExpr("OR", terms)
