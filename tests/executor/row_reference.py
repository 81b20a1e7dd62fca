"""Row-at-a-time reference interpreter for physical plans.

These are the handwritten one-tuple-at-a-time operators the executor ran
at ``batch_size=1`` until the batch operators took over every width; they
moved here, behaviour unchanged, to be the reference the width-invariance
batteries compare the one pipeline against.  Nothing under ``src/`` imports
this module.

:func:`build_iterator` is a plain recursive interpreter over a physical
tree for one segment: per-row closures from ``compile_expression``, an
``_Accumulator`` per aggregate, one guardrail tick and one ``rows_out``
increment per row.  :func:`run_plan` adds the slicing: Motions deepest
first, every row routed and charged on its own, then the root slice.
Selection itself (``_SelectorProgram``) is shared with the engine — it is
per statement, not per row.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.errors import ExecutionError
from repro.executor.context import COORDINATOR_SEGMENT, ExecContext
from repro.executor.iterators import (
    _close_selector,
    _open_selector,
    _sort_key,
)
from repro.executor.runtime_funcs import (
    partition_constraints,
    partition_propagation,
    partition_selection,
)
from repro.expr.ast import ColumnRef
from repro.expr.eval import compile_expression, compile_predicate
from repro.obs.metrics import MetricsCollector
from repro.physical import ops as phys
from repro.resilience.faults import CHANNEL_CLOSE, MOTION_SEND, SCAN_ROW, SLICE_START
from repro.settings import QuerySettings
from repro.storage.distribution import segment_for, stable_hash
from tests.oracles.lowering import (
    OID_COLUMN,
    ConstraintsFunctionScan,
    PropagatingProject,
)

RowIter = Iterator[tuple]


def build_iterator(op: phys.PhysicalOp, segment: int, ctx: ExecContext) -> RowIter:
    """The row iterator tree for ``op`` on one segment: every node counts
    rows out and loops, and passes each row through the guardrail
    checkpoint when limits are configured."""
    factory = _ITERATORS.get(type(op))
    if factory is None:
        raise ExecutionError(f"no iterator for operator {op.name}")
    node = ctx.metrics.node(op)
    node.loops[segment] += 1
    inner = _counted_iter(node, segment, factory(op, segment, ctx))
    if ctx.limits.active:
        return _guarded_iter(ctx.limits, inner)
    return inner


def _counted_iter(node, segment: int, inner: RowIter) -> RowIter:
    rows_out = node.rows_out
    for row in inner:
        rows_out[segment] += 1
        yield row


def _guarded_iter(limits, inner: RowIter) -> RowIter:
    for row in inner:
        limits.tick_rows(1)
        yield row


# -- scans ---------------------------------------------------------------------


def _scan_rows(op, segment: int, ctx: ExecContext, mask: int) -> RowIter:
    """Each row is recorded as it is emitted, with the leaves opened since
    the row before it; empty leaves after the last row are recorded at the
    end (the pipeline's scan accounting at width 1)."""
    faults = ctx.faults if ctx.faults.active else None
    table = op.table
    store = ctx.storage.store(table.oid)
    if table.is_partitioned:
        oids, leaf_mask = table.leaf_oids(mask), table.leaf_mask
    else:  # the root OID holds the rows and is no leaf
        oids, leaf_mask = [table.oid], lambda opened: 0
    opened: list[int] = []
    for oid in oids:
        opened.append(oid)
        for row in store.scan_segment(segment, [oid]):
            if faults is not None:
                faults.maybe_fire(SCAN_ROW, segment)
            ctx.metrics.record_scan(op, table, segment, leaf_mask(opened), 1)
            opened = []
            yield row
    if opened:
        ctx.metrics.record_scan(op, table, segment, leaf_mask(opened), 0)


def _scan_iter(op: phys.Scan, segment: int, ctx: ExecContext) -> RowIter:
    return _scan_rows(op, segment, ctx, op.table.all_leaves)


def _leaf_scan_iter(op: phys.LeafScan, segment: int, ctx: ExecContext) -> RowIter:
    mask = op.table.leaf_mask((op.leaf_oid,))
    if op.guard_scan_id is not None:
        # Several LeafScans share one guard channel — read, don't consume.
        selected = ctx.channel(op.guard_scan_id, segment).peek()
        if not mask & selected:
            return
    yield from _scan_rows(op, segment, ctx, mask)


def _dynamic_scan_iter(op: phys.DynamicScan, segment: int, ctx: ExecContext) -> RowIter:
    ctx.metrics.node(op).part_scan_id = op.part_scan_id
    yield from _scan_rows(op, segment, ctx, ctx.channel(op.part_scan_id, segment).consume())


# -- selectors -----------------------------------------------------------------


def _partition_selector_iter(
    op: phys.PartitionSelector, segment: int, ctx: ExecContext
) -> RowIter:
    program = _open_selector(op, segment, ctx)
    if program is None:
        if op.children:
            yield from build_iterator(op.children[0], segment, ctx)
        return
    # Dynamic selection: apply the selection function per streamed tuple,
    # each row propagating every OID it selects.
    scan_id = op.spec.part_scan_id
    for row in build_iterator(op.children[0], segment, ctx):
        [values] = program.values([row])
        partition_propagation(ctx, scan_id, segment, program.mask_for(values))
        yield row
    _close_selector(scan_id, segment, ctx)


def _sequence_iter(op: phys.Sequence, segment: int, ctx: ExecContext) -> RowIter:
    for child in op.children[:-1]:
        for _ in build_iterator(child, segment, ctx):
            pass
    yield from build_iterator(op.children[-1], segment, ctx)


def _constraints_scan_iter(op: ConstraintsFunctionScan, segment: int, ctx: ExecContext):
    for row in partition_constraints(ctx.catalog, op.table.oid):
        yield (
            row.oid,
            row.min_values[0],
            row.min_inclusive[0],
            row.max_values[0],
            row.max_inclusive[0],
        )


def _propagating_project_iter(op: PropagatingProject, segment: int, ctx: ExecContext):
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
        layout = child.output_layout()
        oid_index = layout.resolve(ColumnRef(OID_COLUMN))
        for row in build_iterator(child, segment, ctx):
            partition_propagation(ctx, scan_id, segment, op.table.leaf_mask([row[oid_index]]))
            yield row
    else:
        key_fn = compile_expression(op.key_expr, child.output_layout(), ctx.params)
        for row in build_iterator(child, segment, ctx):
            oid = partition_selection(ctx.catalog, op.table.oid, key_fn(row))
            if oid is not None:
                partition_propagation(ctx, scan_id, segment, op.table.leaf_mask([oid]))
            yield row
    if ctx.faults.active:
        ctx.faults.maybe_fire(CHANNEL_CLOSE, segment)
    channel.close()


# -- row operators -------------------------------------------------------------


def _filter_iter(op: phys.Filter, segment: int, ctx: ExecContext) -> RowIter:
    layout = op.children[0].output_layout()
    predicate = compile_predicate(op.predicate, layout, ctx.params)
    for row in build_iterator(op.children[0], segment, ctx):
        if predicate(row):
            yield row


def _project_iter(op: phys.Project, segment: int, ctx: ExecContext) -> RowIter:
    layout = op.children[0].output_layout()
    funcs = [compile_expression(expr, layout, ctx.params) for expr, _ in op.items]
    for row in build_iterator(op.children[0], segment, ctx):
        yield tuple(func(row) for func in funcs)


def _hash_join_iter(op: phys.HashJoin, segment: int, ctx: ExecContext) -> RowIter:
    build_layout = op.build.output_layout()
    probe_layout = op.probe.output_layout()
    build_fns = [compile_expression(k, build_layout, ctx.params) for k in op.build_keys]
    probe_fns = [compile_expression(k, probe_layout, ctx.params) for k in op.probe_keys]
    residual = None
    if op.residual is not None:
        residual = compile_predicate(
            op.residual, build_layout.concat(probe_layout), ctx.params
        )

    charge = ctx.limits.charge_rows if ctx.limits.active else None
    table: dict[tuple, list[tuple]] = {}
    for row in build_iterator(op.build, segment, ctx):
        key = tuple(fn(row) for fn in build_fns)
        if any(v is None for v in key):
            continue  # NULL keys never join
        table.setdefault(key, []).append(row)
        if charge is not None:
            charge(1)  # build side is materialized: memory proxy

    semi = op.kind == "semi"
    for probe_row in build_iterator(op.probe, segment, ctx):
        key = tuple(fn(probe_row) for fn in probe_fns)
        if any(v is None for v in key):
            continue
        matches = table.get(key)
        if not matches:
            continue
        if semi:
            if residual is None:
                yield probe_row
            else:
                for build_row in matches:
                    if residual(build_row + probe_row):
                        yield probe_row
                        break
        else:
            for build_row in matches:
                combined = build_row + probe_row
                if residual is None or residual(combined):
                    yield combined


def _nl_join_iter(op: phys.NLJoin, segment: int, ctx: ExecContext) -> RowIter:
    outer_rows = list(build_iterator(op.outer, segment, ctx))
    inner_rows = list(build_iterator(op.inner, segment, ctx))
    if ctx.limits.active:
        ctx.limits.charge_rows(len(outer_rows) + len(inner_rows))
    combined_layout = op.outer.output_layout().concat(op.inner.output_layout())
    predicate = (
        compile_predicate(op.predicate, combined_layout, ctx.params)
        if op.predicate is not None
        else None
    )
    semi = op.kind == "semi"
    for outer_row in outer_rows:
        for inner_row in inner_rows:
            combined = outer_row + inner_row
            if predicate is None or predicate(combined):
                if semi:
                    yield outer_row
                    break
                yield combined


class _Accumulator:
    """State of one aggregate within one group."""

    __slots__ = ("func", "count", "total", "best")

    def __init__(self, func: str):
        self.func = func
        self.count = 0
        self.total: Any = None
        self.best: Any = None

    def add(self, value: Any) -> None:
        if self.func == "count":
            # COUNT(expr) skips NULLs; COUNT(*) feeds a sentinel non-NULL.
            if value is not None:
                self.count += 1
            return
        if value is None:
            return
        self.count += 1
        if self.func in ("sum", "avg"):
            self.total = value if self.total is None else self.total + value
        elif self.func == "min":
            self.best = value if self.best is None else min(self.best, value)
        elif self.func == "max":
            self.best = value if self.best is None else max(self.best, value)

    def result(self) -> Any:
        if self.func == "count":
            return self.count
        if self.func == "sum":
            return self.total
        if self.func == "avg":
            if self.count == 0:
                return None
            return self.total / self.count
        return self.best

    def transition(self) -> Any:
        """Partial-aggregate state shipped between segments: AVG needs
        both the running sum and the count; the other functions' transition
        state is their result so far."""
        if self.func == "avg":
            return (self.total, self.count)
        return self.result()

    def combine(self, state: Any) -> None:
        """Fold another segment's transition state into this accumulator."""
        if self.func == "count":
            if state is not None:
                self.count += state
            return
        if self.func == "avg":
            if state is None:
                return
            total, count = state
            if total is not None:
                self.total = total if self.total is None else self.total + total
            self.count += count
            return
        if state is None:
            return
        if self.func == "sum":
            self.total = state if self.total is None else self.total + state
        elif self.func == "min":
            self.best = state if self.best is None else min(self.best, state)
        elif self.func == "max":
            self.best = state if self.best is None else max(self.best, state)


def _hash_agg_iter(op: phys.HashAgg, segment: int, ctx: ExecContext) -> RowIter:
    layout = op.children[0].output_layout()
    key_fns = [compile_expression(key, layout, ctx.params) for key in op.group_keys]
    charge = ctx.limits.charge_rows if ctx.limits.active else None

    def fresh() -> list[_Accumulator]:
        return [_Accumulator(agg.func) for agg, _ in op.aggregates]

    groups: dict[tuple, list[_Accumulator]] = {}
    if op.mode == "final":
        # Input rows are (keys..., transition states...): combine them.
        key_count = len(op.group_keys)
        for row in build_iterator(op.children[0], segment, ctx):
            key = row[:key_count]
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = groups[key] = fresh()
                if charge is not None:
                    charge(1)  # one buffered group ≈ one row of state
            for accumulator, state in zip(accumulators, row[key_count:]):
                accumulator.combine(state)
    else:
        agg_arg_fns: list[Callable[[tuple], Any]] = []
        for agg, _name in op.aggregates:
            if agg.arg is None:
                agg_arg_fns.append(lambda row: 1)  # COUNT(*)
            else:
                agg_arg_fns.append(compile_expression(agg.arg, layout, ctx.params))
        for row in build_iterator(op.children[0], segment, ctx):
            key = tuple(fn(row) for fn in key_fns)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = groups[key] = fresh()
                if charge is not None:
                    charge(1)
            for accumulator, arg_fn in zip(accumulators, agg_arg_fns):
                accumulator.add(arg_fn(row))

    if op.mode == "partial":
        # Emit per-segment transition rows; a scalar partial emits one row
        # per segment even on empty input so the final stage always has
        # states to combine.
        if not groups and not op.group_keys:
            yield tuple(acc.transition() for acc in fresh())
            return
        for key, accumulators in groups.items():
            yield key + tuple(acc.transition() for acc in accumulators)
        return
    if not groups and not op.group_keys:
        # Scalar aggregation over empty input yields one row; the child is
        # always gathered to the coordinator, so emit there only.
        if segment == COORDINATOR_SEGMENT:
            yield tuple(acc.result() for acc in fresh())
        return
    for key, accumulators in groups.items():
        yield key + tuple(acc.result() for acc in accumulators)


def _sort_iter(op: phys.Sort, segment: int, ctx: ExecContext) -> RowIter:
    rows = list(build_iterator(op.children[0], segment, ctx))
    if ctx.limits.active:
        ctx.limits.charge_rows(len(rows))
    layout = op.children[0].output_layout()
    fns = [compile_expression(expr, layout, ctx.params) for expr, _ in op.keys]
    wrap = _sort_key([asc for _, asc in op.keys])
    rows.sort(key=lambda row: wrap(tuple(fn(row) for fn in fns)))
    yield from rows


def _limit_iter(op: phys.Limit, segment: int, ctx: ExecContext) -> RowIter:
    remaining = op.count
    if remaining <= 0:
        return
    for row in build_iterator(op.children[0], segment, ctx):
        yield row
        remaining -= 1
        if remaining == 0:
            return


def _append_iter(op: phys.Append, segment: int, ctx: ExecContext) -> RowIter:
    for child in op.children:
        yield from build_iterator(child, segment, ctx)


# -- DML -----------------------------------------------------------------------


def _old_row_indices(op, layout) -> list[int]:
    return [
        layout.resolve(ColumnRef(name, op.target_alias))
        for name in op.target.schema.column_names
    ]


def _update_iter(op: phys.Update, segment: int, ctx: ExecContext) -> RowIter:
    child = op.children[0]
    layout = child.output_layout()
    target = op.target
    old_indices = _old_row_indices(op, layout)
    assignment_fns = {
        column: compile_expression(expr, layout, ctx.params)
        for column, expr in op.assignments
    }
    column_names = target.schema.column_names

    # the first match of a target row sets its new value
    updates: dict[tuple, tuple] = {}
    for row in build_iterator(child, segment, ctx):
        old_row = tuple(row[i] for i in old_indices)
        if old_row in updates:
            continue
        new_values = []
        for i, name in enumerate(column_names):
            fn = assignment_fns.get(name)
            new_values.append(fn(row) if fn is not None else old_row[i])
        updates[old_row] = tuple(new_values)

    if segment != COORDINATOR_SEGMENT:
        # The child stream is gathered; only the coordinator applies.
        if updates:
            raise ExecutionError("Update received rows on a non-coordinator segment")
        return
    yield (ctx.storage.store(target.oid).write(replace=updates),)


def _delete_iter(op: phys.Delete, segment: int, ctx: ExecContext) -> RowIter:
    child = op.children[0]
    old_indices = _old_row_indices(op, child.output_layout())
    victims: list[tuple] = []
    seen: set[tuple] = set()
    for row in build_iterator(child, segment, ctx):
        victim = tuple(row[i] for i in old_indices)
        # a USING join may match the same target row several times; it is
        # still deleted once (PostgreSQL semantics)
        if victim not in seen:
            seen.add(victim)
            victims.append(victim)

    if segment != COORDINATOR_SEGMENT:
        if victims:
            raise ExecutionError("Delete received rows on a non-coordinator segment")
        return
    yield (ctx.storage.store(op.target.oid).write(replace=dict.fromkeys(victims)),)


def _motion_iter(op: phys.Motion, segment: int, ctx: ExecContext) -> RowIter:
    return iter(ctx.motion_rows(id(op), segment))


_ITERATORS: dict[type, Callable[..., RowIter]] = {
    phys.GatherMotion: _motion_iter,
    phys.BroadcastMotion: _motion_iter,
    phys.RedistributeMotion: _motion_iter,
    phys.Scan: _scan_iter,
    phys.EmptyScan: lambda op, segment, ctx: iter(()),
    phys.LeafScan: _leaf_scan_iter,
    phys.DynamicScan: _dynamic_scan_iter,
    phys.PartitionSelector: _partition_selector_iter,
    phys.Sequence: _sequence_iter,
    phys.Filter: _filter_iter,
    phys.Project: _project_iter,
    phys.HashJoin: _hash_join_iter,
    phys.NLJoin: _nl_join_iter,
    phys.HashAgg: _hash_agg_iter,
    phys.Sort: _sort_iter,
    phys.Limit: _limit_iter,
    phys.Append: _append_iter,
    phys.Update: _update_iter,
    phys.Delete: _delete_iter,
    ConstraintsFunctionScan: _constraints_scan_iter,
    PropagatingProject: _propagating_project_iter,
}


# -- slicing -------------------------------------------------------------------


def _send_rows(motion: phys.Motion, segment: int, ctx: ExecContext) -> None:
    """One producer instance, one row at a time: each row is routed,
    recorded and charged on its own."""
    buffer = ctx.motion_buffer(id(motion))
    record = ctx.metrics.record_motion_batch
    row_bytes = 8 + 8 * len(motion.output_layout())  # the Motion byte measure
    faults = ctx.faults if ctx.faults.active else None
    charge = ctx.limits.charge_rows if ctx.limits.active else None
    segments = range(ctx.num_segments)
    hash_fns = None
    if isinstance(motion, phys.RedistributeMotion):
        layout = motion.children[0].output_layout()
        hash_fns = [
            compile_expression(expr, layout, ctx.params) for expr in motion.hash_exprs
        ]
    if faults is not None:
        faults.maybe_fire(SLICE_START, segment)
    for row in build_iterator(motion.children[0], segment, ctx):
        if faults is not None:
            faults.maybe_fire(MOTION_SEND, segment)
        if isinstance(motion, phys.GatherMotion):
            kind, targets = "gather", [COORDINATOR_SEGMENT]
        elif isinstance(motion, phys.BroadcastMotion):
            kind, targets = "broadcast", segments
        else:
            values = tuple(fn(row) for fn in hash_fns)
            if len(values) == 1:
                target = segment_for(values[0], ctx.num_segments)
            else:
                target = sum(stable_hash(v) for v in values) % ctx.num_segments
            kind, targets = "redistribute", [target]
        for target in targets:
            buffer.send_batch(target, [row], segment)
            record(motion, kind, segment, target, 1, row_bytes)
        if charge is not None:
            charge(len(targets))


def run_plan(db, plan, params=None, limits=None):
    """Execute ``plan`` serially through the row operators; returns
    ``(rows, ctx)`` with the per-node counters in ``ctx.metrics``.  Direct
    dispatch is honoured (it decides which segments hold the answer)."""
    plan.validate()
    metrics = MetricsCollector(db.num_segments)
    metrics.register_plan(plan)
    ctx = ExecContext(
        db.catalog, db.storage, db.num_segments, params, metrics,
        limits=limits, settings=QuerySettings(batch_size=1),
    )
    ctx.limits.start()
    motions: list[phys.Motion] = []

    def visit(op):
        for child in op.children:
            visit(child)
        if isinstance(op, phys.Motion):
            motions.append(op)

    visit(plan.root)
    for motion in motions:
        segments = None
        if motion.dispatch is not None:
            segments = motion.dispatch.segments(ctx.params, db.num_segments)
        for segment in segments if segments is not None else range(db.num_segments):
            _send_rows(motion, segment, ctx)
        ctx.motion_buffer(id(motion)).close()
    rows = [
        row
        for segment in range(db.num_segments)
        for row in build_iterator(plan.root, segment, ctx)
    ]
    return rows, ctx
