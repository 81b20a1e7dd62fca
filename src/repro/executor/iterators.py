"""Volcano-style batch iterators for every physical operator.

:func:`build_batches` turns a plan subtree into a generator of row batches
(lists of tuples, at most ``ctx.settings.batch_size`` rows each) for one
segment.  There is one pipeline: width 1 is row-at-a-time execution, a one-row batch
having per-row granularity by construction.  Motion nodes are never
executed here — the executor pre-materializes their output into
per-segment buffers, and this module simply reads the buffer
(slice-at-a-time execution).

An operator never mutates a batch it receives: it builds a new list, or
passes the one it got on unchanged (a Project of its input's own slots
returns its input).  So a batch may be shared by several operators, Motion
buffers included, with no copy.

Accounting is exact at every width: metrics charge ``len(batch)`` per
node, guardrail ticks advance by ``len(batch)``, ``max_rows`` charges stop
at the first crossing charge, and Limit truncates its final batch.  The
``scan_row`` / ``motion_send`` fault points fire once per batch.  What a
LIMIT that abandons its child may over-read is stated in
docs/observability.md ("Width invariance").

The PartitionSelector iterator realises both selection modes uniformly,
as Section 3.2 requires:

* constant predicates (including prepared-statement parameters) are
  evaluated once, the selected leaves pushed, and the channel closed before
  any tuple flows — static elimination;
* join predicates are evaluated per streamed batch, pushing the leaves its
  tuples select — dynamic elimination.  The channel closes when the input
  is exhausted, which the engine's left-before-right execution order
  guarantees happens before the consuming DynamicScan opens.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterator

from ..catalog import TableDescriptor
from ..catalog.constraints import IntervalSet
from ..errors import ExecutionError
from ..expr.analysis import (
    conjuncts,
    derive_interval_set,
    interval_for_comparison,
    join_comparison_on_key,
)
from ..expr.ast import ColumnRef
from ..expr.eval import compile_predicate
from ..physical import ops as phys
from ..physical.properties import PartSelectorSpec
from ..resilience.faults import CHANNEL_CLOSE, SCAN_ROW
from .context import COORDINATOR_SEGMENT, ExecContext
from .kernels import (
    filter_kernel,
    hash_agg_kernels,
    hash_join_kernels,
    project_kernel,
    sort_key_kernel,
)
from .runtime_funcs import partition_propagation

#: what every operator yields: lists of row tuples
BatchIter = Iterator[list]

#: the operator registry: operator type -> iterator factory
#: ``(op, segment, ctx)``.  The built-in operators are listed at the end of
#: this module; a module outside it may register more (the Section 3.2
#: lowering oracle in ``tests/oracles`` adds its two function-based
#: operators), importing this module, not the reverse.
OPERATORS: dict[type, Callable[..., BatchIter]] = {}

#: the kernel registry: operator type -> ``(op, params) -> kernel`` (the
#: operator's generated function(s), or None), listed after
#: :data:`OPERATORS` at the end of this module.  A prepared plan renders
#: every operator's kernel once from here; :func:`kernel` renders one for
#: a context that was handed none.
KERNELS: dict[type, Callable[[Any, Any], Any]] = {}


def kernel(op: phys.PhysicalOp, ctx: ExecContext) -> Any:
    """The statement's kernel for ``op``: the prepared one, or rendered on
    first use and shared by the op's later instances.  Kernels keep no
    state between calls."""
    kernels = ctx.kernels
    if id(op) not in kernels:
        kernels[id(op)] = KERNELS[type(op)](op, ctx.params)
    return kernels[id(op)]


def build_batches(
    op: phys.PhysicalOp, segment: int, ctx: ExecContext
) -> BatchIter:
    """Instantiate the iterator tree for ``op`` on one segment.

    Every node's iterator is wrapped by the metrics collector: rows out
    and loops are always counted; per-node wall time is accumulated when
    the query runs with ``analyze=True``.  When guardrails are configured
    every node additionally passes its rows through the cooperative
    checkpoint (cancellation, timeout)."""
    factory = OPERATORS.get(type(op))
    if factory is None:
        raise ExecutionError(f"no iterator for operator {op.name}")
    inner = ctx.metrics.instrument_batches(
        op, segment, factory(op, segment, ctx)
    )
    if ctx.limits.active:
        return _guarded_batches(ctx.limits, inner)
    return inner


def _guarded_batches(limits, inner: BatchIter) -> BatchIter:
    tick_rows = limits.tick_rows
    for batch in inner:
        tick_rows(len(batch))
        yield batch


def drain(op: phys.PhysicalOp, segment: int, ctx: ExecContext) -> list[tuple]:
    """Every row ``op`` produces on ``segment``, as one list."""
    rows: list[tuple] = []
    for batch in build_batches(op, segment, ctx):
        rows.extend(batch)
    return rows


def _slice_batches(rows: list, batch_size: int) -> BatchIter:
    """Batches sliced out of an already-materialized row list."""
    for start in range(0, len(rows), batch_size):
        yield rows[start : start + batch_size]


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


def _scan_batches(op, segment: int, ctx: ExecContext) -> BatchIter:
    """The scan loop of Scan, LeafScan and DynamicScan, which differ only
    in the leaf mask they open: every leaf (an unpartitioned table's rows
    live under its root OID), one guarded leaf, or the channel's mask,
    expanded here into the OIDs storage reads, in ascending order.

    Storage fills every batch to the width across leaves.  Each batch is
    recorded as it is emitted, with the mask's leaves up to the last one
    opened to fill it, so the live activity registry sees rows-so-far
    advance mid-scan at one call per batch, never per leaf or row."""
    table = op.table
    if isinstance(op, phys.DynamicScan):
        ctx.metrics.node(op).part_scan_id = op.part_scan_id
        mask = ctx.channel(op.part_scan_id, segment).consume()
    elif isinstance(op, phys.LeafScan):
        mask = table.leaf_mask((op.leaf_oid,))
        # Several LeafScans share one guard channel — read, don't consume.
        if (
            op.guard_scan_id is not None
            and not mask & ctx.channel(op.guard_scan_id, segment).peek()
        ):
            return
    else:
        mask = table.all_leaves
    oids = table.leaf_oids(mask) if table.is_partitioned else [table.oid]
    faults = ctx.faults if ctx.faults.active else None
    record = ctx.metrics.record_scan
    opened: list[int] = []  # filled by storage, emptied per batch here
    seen = 0
    for batch in ctx.storage.scan_table_batches(
        segment, table.oid, oids, ctx.settings.batch_size, opened
    ):
        if faults is not None:
            faults.maybe_fire(SCAN_ROW, segment)
        if opened:
            seen = mask & table.leaves_through(opened[-1])
            opened.clear()
        record(op, table, segment, seen, len(batch))
        yield batch
    if opened:
        record(op, table, segment, mask, 0)


def _motion_batches(op: phys.Motion, segment: int, ctx: ExecContext) -> BatchIter:
    return _slice_batches(
        ctx.motion_rows(id(op), segment), ctx.settings.batch_size
    )


# ---------------------------------------------------------------------------
# PartitionSelector
# ---------------------------------------------------------------------------


class _SelectorProgram:
    """Compiled form of a PartSelectorSpec for one execution: one program
    per statement, shared by the selector's instances on every segment
    (:meth:`ExecContext.selector_program`).

    Splits every level's predicate into a constant part (derived once into
    an IntervalSet) and streaming comparisons, whose right-hand sides are
    rendered into one generated kernel (:attr:`values`: a batch's rows ->
    their streamed value tuples).  Unsupported streaming shapes contribute
    no restriction — degrading to more partitions, never fewer.

    A selection is a leaf mask (:mod:`repro.catalog.catalog`).  Dynamic
    selection routes each distinct value tuple, not each row, and
    :meth:`mask_for` memoises the answer per tuple for the statement; the
    common pure-equality case routes with the level's binary search (the
    ``partition_selection`` built-in's fast path) instead of constructing
    interval sets.
    """

    def __init__(
        self,
        spec: PartSelectorSpec,
        streamed: bool,
        params,
        values: Callable[[list], list] | None,
    ):
        self.spec = spec
        self.table: TableDescriptor = spec.table
        self.constant_sets: list[IntervalSet | None] = []
        #: per level, the operator of each streaming comparison
        self.streaming: list[list[str]] = []
        schema = self.table.schema
        for key, predicate in zip(spec.part_keys, spec.part_predicates):
            if predicate is None:
                self.constant_sets.append(None)
                self.streaming.append([])
                continue
            key_type = schema.column(key.name).data_type
            constant_parts = []
            streaming_ops: list[str] = []
            for conjunct in conjuncts(predicate):
                derived = derive_interval_set(
                    conjunct, key, params=params, key_type=key_type
                )
                if derived is not None:
                    constant_parts.append(derived)
                    continue
                if streamed:
                    streaming_ops += [
                        c.op for c in join_comparison_on_key(conjunct, key)
                    ]
                # else: unsupported shape — no restriction.
            constant: IntervalSet | None = None
            for part in constant_parts:
                constant = part if constant is None else constant.intersect(part)
            self.constant_sets.append(constant)
            self.streaming.append(streaming_ops)
        #: rows -> one tuple of streamed values per row, in level order
        #: (:func:`_selector_values_kernel`)
        self.values = values

        scheme = self.table.partition_scheme
        assert scheme is not None
        # Align scheme levels with the spec's key order.
        levels_by_key = {level.key: level for level in scheme.levels}
        self._levels = [levels_by_key[key.name] for key in spec.part_keys]
        #: slot indices admitted by the constant parts alone, per level
        self._constant_slots = [
            level.select(constant)
            for level, constant in zip(self._levels, self.constant_sets)
        ]
        self._eq_only = [
            bool(ops) and all(op_name == "=" for op_name in ops)
            for ops in self.streaming
        ]
        #: shared by every segment instance of the statement, which run one
        #: after another on the statement's thread; entries are pure
        #: functions of the streamed values
        self._memo: dict[tuple, int] = {}
        #: what a selector with no streaming part selects — the same mask
        #: on every segment, built once here; instances only propagate it
        self.static_mask: int | None = None
        if not self.has_streaming:
            self.static_mask = (
                scheme.slots_mask(self._constant_slots)
                if spec.has_predicates
                else self.table.all_leaves
            )

    @property
    def has_streaming(self) -> bool:
        return self.values is not None

    def _select(self, values: tuple) -> int:
        """The leaf mask of one streamed value combination's slot lists
        per level."""
        slots_per_level: list[list[int]] = []
        cursor = 0
        for index, streaming in enumerate(self.streaming):
            if not streaming:
                slots_per_level.append(self._constant_slots[index])
                continue
            level = self._levels[index]
            level_values = values[cursor : cursor + len(streaming)]
            cursor += len(streaming)
            constant = self.constant_sets[index]
            if self._eq_only[index]:
                # All equality comparisons: the value(s) must agree, lie in
                # the constant set, and route to a single slot (bisect).
                distinct = set(level_values)
                if len(distinct) != 1:
                    slots_per_level.append([])
                    continue
                value = next(iter(distinct))
                if value is None or (
                    constant is not None and not constant.contains(value)
                ):
                    slots_per_level.append([])
                    continue
                slot = level.route(value)
                slots_per_level.append([slot] if slot is not None else [])
                continue
            level_set = constant
            for op_name, value in zip(streaming, level_values):
                comparison_set = interval_for_comparison(op_name, value)
                level_set = (
                    comparison_set
                    if level_set is None
                    else level_set.intersect(comparison_set)
                )
            slots_per_level.append(level.select(level_set))
        return self.table.partition_scheme.slots_mask(slots_per_level)

    def mask_for(self, values: tuple) -> int:
        """The leaf mask one tuple of streamed values selects."""
        mask = self._memo.get(values)
        if mask is None:
            mask = self._memo[values] = self._select(values)
        return mask


def _open_selector(
    op: phys.PartitionSelector, segment: int, ctx: ExecContext
) -> _SelectorProgram | None:
    """What a selector instance does before any tuple flows.

    A static selection pushes its leaves and closes the channel here, and
    ``None`` is returned: the child's tuples only pass through.  A
    streaming selector gets its program back with the channel still open.
    The program is the statement's, not the instance's
    (:meth:`ExecContext.selector_program`): deriving interval sets and
    running ``f*_T`` happen once, and each segment only propagates the
    result into its own channel.
    """
    spec = op.spec
    scan_id = spec.part_scan_id
    ctx.metrics.node(op).part_scan_id = scan_id
    program = ctx.selector_program(
        scan_id,
        lambda: _SelectorProgram(
            spec, bool(op.children), ctx.params, kernel(op, ctx)
        ),
    )
    if program.has_streaming:
        if not op.children:
            raise ExecutionError(
                "streaming PartitionSelector requires an input (join "
                "predicate over no tuples)"
            )
        ctx.metrics.record_selector(scan_id, "dynamic", spec.table.num_leaves)
        return program
    # Static selection (constant predicates, parameters, or Φ): propagate
    # and close before any tuple flows.
    ctx.metrics.record_selector(scan_id, "static", spec.table.num_leaves)
    partition_propagation(ctx, scan_id, segment, program.static_mask)
    _close_selector(scan_id, segment, ctx)
    return None


def _selector_values_kernel(op: phys.PartitionSelector, params):
    """A streaming selector's kernel: rows -> the tuple of streamed values
    each row selects by — the right-hand sides of its join-form conjuncts
    in level order (None for a selector with no input or none of them)."""
    spec = op.spec
    rights = [
        comparison.right
        for key, predicate in zip(spec.part_keys, spec.part_predicates)
        for conjunct in conjuncts(predicate)
        for comparison in join_comparison_on_key(conjunct, key)
    ]
    if not rights or not op.children:
        return None
    return project_kernel(rights, op.children[0].output_layout(), params)


def _close_selector(scan_id: int, segment: int, ctx: ExecContext) -> None:
    if ctx.faults.active:
        ctx.faults.maybe_fire(CHANNEL_CLOSE, segment)
    ctx.channel(scan_id, segment).close()


def _partition_selector_batches(
    op: phys.PartitionSelector, segment: int, ctx: ExecContext
) -> BatchIter:
    program = _open_selector(op, segment, ctx)
    if program is None:
        if op.children:
            yield from build_batches(op.children[0], segment, ctx)
        return
    # Dynamic selection, one batch at a time: each distinct tuple of
    # streamed values is routed once, only leaves this instance has not
    # pushed yet reach the channel, and every (row, leaf) pair is counted.
    scan_id = op.spec.part_scan_id
    values_of, mask_for = program.values, program.mask_for
    pushed = 0
    for batch in build_batches(op.children[0], segment, ctx):
        selected = pairs = 0
        for values, times in Counter(values_of(batch)).items():
            mask = mask_for(values)
            selected |= mask
            pairs += times * mask.bit_count()
        if pairs:
            partition_propagation(
                ctx, scan_id, segment, selected & ~pushed, pairs
            )
            pushed |= selected
        yield batch
    _close_selector(scan_id, segment, ctx)


def _sequence_batches(
    op: phys.Sequence, segment: int, ctx: ExecContext
) -> BatchIter:
    for child in op.children[:-1]:
        for _ in build_batches(child, segment, ctx):
            pass
    yield from build_batches(op.children[-1], segment, ctx)


# ---------------------------------------------------------------------------
# Row operators
# ---------------------------------------------------------------------------


def _filter_batches(
    op: phys.Filter, segment: int, ctx: ExecContext
) -> BatchIter:
    keep = kernel(op, ctx)
    for batch in build_batches(op.children[0], segment, ctx):
        out = keep(batch)
        if out:
            yield out


def _project_batches(
    op: phys.Project, segment: int, ctx: ExecContext
) -> BatchIter:
    project = kernel(op, ctx)
    for batch in build_batches(op.children[0], segment, ctx):
        yield project(batch)


def _hash_join_batches(
    op: phys.HashJoin, segment: int, ctx: ExecContext
) -> BatchIter:
    build, probe = kernel(op, ctx)
    limits = ctx.limits if ctx.limits.active else None
    table: dict = {}
    for batch in build_batches(op.build, segment, ctx):
        added = build(batch, table)
        if limits is not None and added:
            limits.charge_rows_batch(added)  # build side is materialized

    batch_size = ctx.settings.batch_size
    out: list[tuple] = []
    for batch in build_batches(op.probe, segment, ctx):
        probe(batch, table, out)
        # never more than the width at once: a LIMIT above reads no
        # further than it must, and exactly its count at width 1
        while len(out) >= batch_size:
            yield out[:batch_size]
            del out[:batch_size]
    if out:
        yield out


def _nl_join_batches(
    op: phys.NLJoin, segment: int, ctx: ExecContext
) -> BatchIter:
    outer_rows = drain(op.outer, segment, ctx)
    inner_rows = drain(op.inner, segment, ctx)
    if ctx.limits.active:
        # both inputs are materialized: one gulp charge, the same at
        # every width
        ctx.limits.charge_rows(len(outer_rows) + len(inner_rows))
    predicate = kernel(op, ctx)
    semi = op.kind == "semi"
    batch_size = ctx.settings.batch_size
    out: list[tuple] = []
    for outer_row in outer_rows:
        for inner_row in inner_rows:
            combined = outer_row + inner_row
            if predicate is None or predicate(combined):
                out.append(outer_row if semi else combined)
                if len(out) == batch_size:
                    yield out
                    out = []
                if semi:
                    break
    if out:
        yield out


class _Accumulator:
    """One aggregate of one group in a ``final`` HashAgg: folds the
    transition states the partial stage shipped (the partial and single
    stages run generated kernels)."""

    __slots__ = ("func", "count", "total", "best")

    def __init__(self, func: str):
        self.func = func
        self.count = 0
        self.total: Any = None
        self.best: Any = None

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

    def combine(self, state: Any) -> None:
        """Fold another segment's transition state into this accumulator.
        AVG ships ``(sum, count)``; the other functions their result so
        far."""
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


def _hash_agg_batches(
    op: phys.HashAgg, segment: int, ctx: ExecContext
) -> BatchIter:
    limits = ctx.limits if ctx.limits.active else None
    if op.mode == "final":
        # Input rows are (keys..., transition states...): combine them.
        key_count = len(op.group_keys)
        groups: dict[tuple, list[_Accumulator]] = {}
        for batch in build_batches(op.children[0], segment, ctx):
            new_groups = 0
            for row in batch:
                key = row[:key_count]
                accumulators = groups.get(key)
                if accumulators is None:
                    accumulators = [
                        _Accumulator(agg.func) for agg, _ in op.aggregates
                    ]
                    groups[key] = accumulators
                    new_groups += 1
                for accumulator, state in zip(accumulators, row[key_count:]):
                    accumulator.combine(state)
            if limits is not None and new_groups:
                # one buffered group ≈ one row of state
                limits.charge_rows_batch(new_groups)
        if not groups and not op.group_keys:
            if segment == COORDINATOR_SEGMENT:
                yield [
                    tuple(
                        _Accumulator(agg.func).result()
                        for agg, _ in op.aggregates
                    )
                ]
            return
        yield from _slice_batches(
            [
                key + tuple(acc.result() for acc in accumulators)
                for key, accumulators in groups.items()
            ],
            ctx.settings.batch_size,
        )
        return

    partial = op.mode == "partial"
    update, emit = kernel(op, ctx)
    groups = {}
    for batch in build_batches(op.children[0], segment, ctx):
        # one buffered group ~ one row of state; the scalar aggregate's
        # single group opens, and is charged, when its first row arrives
        new_groups = update(batch, groups) if batch else 0
        if limits is not None and new_groups:
            limits.charge_rows_batch(new_groups)

    if not groups and not op.group_keys:
        # Scalar aggregation over empty input: a partial emits the empty
        # transition on every segment so the final stage always has states
        # to combine; otherwise the empty result, on the coordinator only
        # (the child is always gathered there).
        if partial or segment == COORDINATOR_SEGMENT:
            yield emit({(): [0, None] * len(op.aggregates)})
        return
    yield from _slice_batches(emit(groups), ctx.settings.batch_size)


def _sort_key(keys_asc: list[bool]):
    """Sort key with SQL NULL placement: NULLs last ascending, first
    descending (PostgreSQL default)."""

    class _Wrapped:
        __slots__ = ("values",)

        def __init__(self, values):
            self.values = values

        def __lt__(self, other: "_Wrapped") -> bool:
            for (a, b), ascending in zip(
                zip(self.values, other.values), keys_asc
            ):
                if a == b:
                    continue
                if a is None:
                    return not ascending
                if b is None:
                    return ascending
                return (a < b) if ascending else (b < a)
            return False

    return _Wrapped


def _sort_batches(op: phys.Sort, segment: int, ctx: ExecContext) -> BatchIter:
    rows = drain(op.children[0], segment, ctx)
    if ctx.limits.active:
        ctx.limits.charge_rows(len(rows))  # one gulp charge at every width
    rows.sort(key=kernel(op, ctx))
    yield from _slice_batches(rows, ctx.settings.batch_size)


def _limit_batches(op: phys.Limit, segment: int, ctx: ExecContext) -> BatchIter:
    remaining = op.count
    if remaining <= 0:
        return
    for batch in build_batches(op.children[0], segment, ctx):
        if len(batch) >= remaining:
            # split the final batch: downstream sees exactly ``count`` rows
            yield batch[:remaining]
            return
        remaining -= len(batch)
        yield batch


def _append_batches(
    op: phys.Append, segment: int, ctx: ExecContext
) -> BatchIter:
    for child in op.children:
        yield from build_batches(child, segment, ctx)


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------


def _target_columns(op) -> list[ColumnRef]:
    """The target table's row, as the child of an Update/Delete exposes it."""
    return [
        ColumnRef(name, op.target_alias)
        for name in op.target.schema.column_names
    ]


def _update_batches(op: phys.Update, segment: int, ctx: ExecContext) -> BatchIter:
    child = op.children[0]
    old_and_new = kernel(op, ctx)
    width = len(op.target.schema.column_names)
    # a FROM join may match the same target row several times; the first
    # match sets its new value (PostgreSQL keeps an arbitrary one)
    replace: dict[tuple, tuple] = {}
    for batch in build_batches(child, segment, ctx):
        for row in old_and_new(batch):
            replace.setdefault(row[:width], row[width:])

    if segment != COORDINATOR_SEGMENT:
        # The child stream is gathered; only the coordinator applies.
        if replace:
            raise ExecutionError(
                "Update received rows on a non-coordinator segment"
            )
        return
    # storage re-routes rows whose partition or distribution key changed
    yield [(ctx.storage.store(op.target.oid).write(replace=replace),)]


def _delete_batches(op: phys.Delete, segment: int, ctx: ExecContext) -> BatchIter:
    child = op.children[0]
    victim_of = kernel(op, ctx)
    # a USING join may match the same target row several times; it is
    # still deleted once, with every stored row of its value
    victims: dict[tuple, None] = {}
    for batch in build_batches(child, segment, ctx):
        victims.update(dict.fromkeys(victim_of(batch)))

    if segment != COORDINATOR_SEGMENT:
        if victims:
            raise ExecutionError(
                "Delete received rows on a non-coordinator segment"
            )
        return
    yield [(ctx.storage.store(op.target.oid).write(replace=victims),)]


OPERATORS.update(
    {
        phys.GatherMotion: _motion_batches,
        phys.BroadcastMotion: _motion_batches,
        phys.RedistributeMotion: _motion_batches,
        phys.Scan: _scan_batches,
        phys.LeafScan: _scan_batches,
        phys.DynamicScan: _scan_batches,
        phys.EmptyScan: lambda op, segment, ctx: iter(()),
        phys.PartitionSelector: _partition_selector_batches,
        phys.Sequence: _sequence_batches,
        phys.Filter: _filter_batches,
        phys.Project: _project_batches,
        phys.HashJoin: _hash_join_batches,
        phys.NLJoin: _nl_join_batches,
        phys.HashAgg: _hash_agg_batches,
        phys.Sort: _sort_batches,
        phys.Limit: _limit_batches,
        phys.Append: _append_batches,
        phys.Update: _update_batches,
        phys.Delete: _delete_batches,
    }
)


def _layout(op: phys.PhysicalOp):
    return op.children[0].output_layout()


def _update_kernel(op: phys.Update, params):
    """rows -> one tuple per row: the target row, then its new value."""
    columns = _target_columns(op)
    assigned = dict(op.assignments)
    new = [assigned.get(column.name, column) for column in columns]
    return project_kernel(columns + new, _layout(op), params)


def _nl_join_kernel(op: phys.NLJoin, params):
    if op.predicate is None:
        return None
    layout = op.outer.output_layout().concat(op.inner.output_layout())
    return compile_predicate(op.predicate, layout, params)


KERNELS.update(
    {
        phys.RedistributeMotion: lambda op, params: project_kernel(
            op.hash_exprs, _layout(op), params
        ),
        phys.PartitionSelector: _selector_values_kernel,
        phys.Filter: lambda op, params: filter_kernel(op.predicate, _layout(op), params),
        phys.Project: lambda op, params: project_kernel(
            [expr for expr, _ in op.items], _layout(op), params
        ),
        phys.HashJoin: lambda op, params: hash_join_kernels(
            op.build_keys, op.probe_keys, op.residual, op.kind == "semi",
            op.build.output_layout(), op.probe.output_layout(), params,
        ),
        phys.NLJoin: _nl_join_kernel,
        phys.HashAgg: lambda op, params: None if op.mode == "final" else hash_agg_kernels(
            op.group_keys, [agg for agg, _ in op.aggregates], op.mode == "partial",
            _layout(op), params,
        ),
        phys.Sort: lambda op, params: sort_key_kernel(
            [expr for expr, _ in op.keys], _layout(op), params,
            _sort_key([asc for _, asc in op.keys]),
        ),
        phys.Update: _update_kernel,
        phys.Delete: lambda op, params: project_kernel(
            _target_columns(op), _layout(op), params
        ),
    }
)
