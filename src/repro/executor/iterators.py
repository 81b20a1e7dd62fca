"""Volcano-style iterators for every physical operator.

:func:`build_iterator` turns a plan subtree into a generator of tuples for
one segment.  Motion nodes are never executed here — the executor
pre-materializes their output into per-segment buffers, and this module
simply reads the buffer (slice-at-a-time execution).

The PartitionSelector iterator realises both selection modes uniformly,
as Section 3.2 requires:

* constant predicates (including prepared-statement parameters) are
  evaluated once, the selected OIDs pushed, and the channel closed before
  any tuple flows — static elimination;
* join predicates are evaluated per streamed tuple, pushing the OIDs each
  tuple selects — dynamic elimination.  The channel closes when the input
  is exhausted, which the engine's left-before-right execution order
  guarantees happens before the consuming DynamicScan opens.
"""

from __future__ import annotations

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
from ..expr.eval import RowLayout, compile_expression, compile_predicate
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
from .runtime_funcs import partition_expansion, partition_propagation

RowIter = Iterator[tuple]
#: batch-mode iterator: yields lists of row tuples
BatchIter = Iterator[list]

#: extension point: operator type -> iterator factory(op, segment, ctx).
#: Used by :mod:`repro.executor.lowering` to register the Section 3.2
#: function-based operators without creating an import cycle.
EXTRA_ITERATORS: dict[type, Callable[..., RowIter]] = {}

#: batch-mode extension point, same contract but the factory yields row
#: batches.  An operator registered only in :data:`EXTRA_ITERATORS` still
#: works in batch mode — its row iterator is re-batched.
EXTRA_BATCH_ITERATORS: dict[type, Callable[..., BatchIter]] = {}


def build_iterator(
    op: phys.PhysicalOp, segment: int, ctx: ExecContext
) -> RowIter:
    """Instantiate the iterator tree for ``op`` on one segment.

    Every node's iterator is wrapped by the metrics collector: rows out
    and loops are always counted; per-node wall time is accumulated when
    the query runs with ``analyze=True``.  When guardrails are configured
    the root of each subtree additionally passes every row through the
    cooperative checkpoint (cancellation, timeout).
    """
    inner = ctx.metrics.instrument(op, segment, _raw_iterator(op, segment, ctx))
    if ctx.limits.active:
        return _guarded_iter(ctx.limits, inner)
    return inner


def _guarded_iter(limits, inner: RowIter) -> RowIter:
    tick = limits.tick
    for row in inner:
        tick()
        yield row


def _raw_iterator(
    op: phys.PhysicalOp, segment: int, ctx: ExecContext
) -> RowIter:
    factory = EXTRA_ITERATORS.get(type(op))
    if factory is not None:
        return factory(op, segment, ctx)
    if isinstance(op, phys.Motion):
        return iter(ctx.motion_rows(id(op), segment))
    if isinstance(op, phys.Scan):
        return _scan_iter(op, segment, ctx)
    if isinstance(op, phys.EmptyScan):
        return iter(())
    if isinstance(op, phys.LeafScan):
        return _leaf_scan_iter(op, segment, ctx)
    if isinstance(op, phys.DynamicScan):
        return _dynamic_scan_iter(op, segment, ctx)
    if isinstance(op, phys.PartitionSelector):
        return _partition_selector_iter(op, segment, ctx)
    if isinstance(op, phys.Sequence):
        return _sequence_iter(op, segment, ctx)
    if isinstance(op, phys.Filter):
        return _filter_iter(op, segment, ctx)
    if isinstance(op, phys.Project):
        return _project_iter(op, segment, ctx)
    if isinstance(op, phys.HashJoin):
        return _hash_join_iter(op, segment, ctx)
    if isinstance(op, phys.NLJoin):
        return _nl_join_iter(op, segment, ctx)
    if isinstance(op, phys.HashAgg):
        return _hash_agg_iter(op, segment, ctx)
    if isinstance(op, phys.Sort):
        return _sort_iter(op, segment, ctx)
    if isinstance(op, phys.Limit):
        return _limit_iter(op, segment, ctx)
    if isinstance(op, phys.Append):
        return _append_iter(op, segment, ctx)
    if isinstance(op, phys.Update):
        return _update_iter(op, segment, ctx)
    if isinstance(op, phys.Delete):
        return _delete_iter(op, segment, ctx)
    raise ExecutionError(f"no iterator for operator {op.name}")


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


def _scan_iter(op: phys.Scan, segment: int, ctx: ExecContext) -> RowIter:
    faults = ctx.faults if ctx.faults.active else None
    count = 0
    for row in ctx.storage.scan_table(segment, op.table.oid):
        if faults is not None:
            faults.maybe_fire(SCAN_ROW, segment)
        count += 1
        yield row
    ctx.metrics.record_scan_rows(op, op.table, segment, count)


def _leaf_scan_iter(op: phys.LeafScan, segment: int, ctx: ExecContext) -> RowIter:
    if op.guard_scan_id is not None:
        # Several LeafScans share one guard channel — read, don't consume.
        selected = ctx.channel(op.guard_scan_id, segment).peek()
        if op.leaf_oid not in selected:
            return
    ctx.metrics.record_leaf(op, op.table, op.leaf_oid, segment)
    faults = ctx.faults if ctx.faults.active else None
    count = 0
    for row in ctx.storage.scan_table(segment, op.table.oid, [op.leaf_oid]):
        if faults is not None:
            faults.maybe_fire(SCAN_ROW, segment)
        count += 1
        yield row
    ctx.metrics.record_scan_rows(op, op.table, segment, count)


def _dynamic_scan_iter(
    op: phys.DynamicScan, segment: int, ctx: ExecContext
) -> RowIter:
    ctx.metrics.node(op).part_scan_id = op.part_scan_id
    oids = ctx.channel(op.part_scan_id, segment).consume()
    faults = ctx.faults if ctx.faults.active else None
    for oid in oids:
        ctx.metrics.record_leaf(op, op.table, oid, segment)
        # rows are batched per *leaf* (not per scan) so the live activity
        # registry sees rows-so-far advance while a long scan runs; still
        # one recording call per partition, never per row
        count = 0
        for row in ctx.storage.scan_table(segment, op.table.oid, [oid]):
            if faults is not None:
                faults.maybe_fire(SCAN_ROW, segment)
            count += 1
            yield row
        ctx.metrics.record_scan_rows(op, op.table, segment, count)


# ---------------------------------------------------------------------------
# PartitionSelector
# ---------------------------------------------------------------------------


class _SelectorProgram:
    """Compiled form of a PartSelectorSpec for one execution: one program
    per statement, shared by the selector's instances on every segment
    (:meth:`ExecContext.selector_program`).

    Splits every level's predicate into a constant part (derived once into
    an IntervalSet) and streaming comparisons (evaluated per input tuple).
    Unsupported streaming shapes contribute no restriction — degrading to
    more partitions, never fewer.

    Per-tuple selection is the hot path of dynamic elimination, so two
    optimisations apply: results are memoised per distinct streamed value
    combination, and the common pure-equality case routes with the level's
    binary search (the ``partition_selection`` built-in's fast path)
    instead of constructing interval sets.
    """

    def __init__(
        self,
        spec: PartSelectorSpec,
        child_layout: RowLayout | None,
        params,
        catalog,
    ):
        self.spec = spec
        self.table: TableDescriptor = spec.table
        self.constant_sets: list[IntervalSet | None] = []
        self.streaming: list[list[tuple[str, Callable[[tuple], Any]]]] = []
        schema = self.table.schema
        for key, predicate in zip(spec.part_keys, spec.part_predicates):
            if predicate is None:
                self.constant_sets.append(None)
                self.streaming.append([])
                continue
            key_type = schema.column(key.name).data_type
            constant_parts = []
            streaming_parts: list[tuple[str, Callable[[tuple], Any]]] = []
            for conjunct in conjuncts(predicate):
                derived = derive_interval_set(
                    conjunct, key, params=params, key_type=key_type
                )
                if derived is not None:
                    constant_parts.append(derived)
                    continue
                normalized = None
                for candidate in join_comparison_on_key(conjunct, key):
                    normalized = candidate
                    break
                if normalized is not None and child_layout is not None:
                    right = compile_expression(
                        normalized.right, child_layout, params
                    )
                    streaming_parts.append((normalized.op, right))
                # else: unsupported shape — no restriction.
            constant: IntervalSet | None = None
            for part in constant_parts:
                constant = part if constant is None else constant.intersect(part)
            self.constant_sets.append(constant)
            self.streaming.append(streaming_parts)

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
            bool(parts) and all(op_name == "=" for op_name, _ in parts)
            for parts in self.streaming
        ]
        #: shared by every segment instance of the statement; entries are
        #: pure functions of the streamed values, so workers racing on one
        #: key store the same list
        self._memo: dict[tuple, list[int]] = {}
        #: what a selector with no streaming part selects — the same list
        #: on every segment, built once here; instances only propagate it
        self.static_oids: list[int] | None = None
        if not self.has_streaming:
            self.static_oids = (
                self._leaves_to_oids(self._constant_slots)
                if spec.has_predicates
                else partition_expansion(catalog, self.table.oid)
            )

    @property
    def has_streaming(self) -> bool:
        return any(self.streaming)

    def _leaves_to_oids(self, slots_per_level: list[list[int]]) -> list[int]:
        leaves: list[tuple[int, ...]] = [()]
        for slots in slots_per_level:
            if not slots:
                return []
            leaves = [leaf + (slot,) for leaf in leaves for slot in slots]
        return [self.table.leaf_oid(leaf) for leaf in leaves]

    def _slots_for_values(self, values: tuple) -> list[int]:
        """Slot lists per level for one streamed value combination."""
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
            for (op_name, _), value in zip(streaming, level_values):
                comparison_set = interval_for_comparison(op_name, value)
                level_set = (
                    comparison_set
                    if level_set is None
                    else level_set.intersect(comparison_set)
                )
            slots_per_level.append(level.select(level_set))
        return self._leaves_to_oids(slots_per_level)

    def oids_for_row(self, row: tuple) -> list[int]:
        values = tuple(
            right_fn(row)
            for streaming in self.streaming
            for _, right_fn in streaming
        )
        try:
            cached = self._memo.get(values)
        except TypeError:  # unhashable streamed value: compute directly
            return self._slots_for_values(values)
        if cached is None:
            cached = self._slots_for_values(values)
            self._memo[values] = cached
        return cached


def _open_selector(
    op: phys.PartitionSelector, segment: int, ctx: ExecContext
) -> _SelectorProgram | None:
    """What a selector instance does before any tuple flows.

    A cache replay or a static selection pushes its OIDs and closes the
    channel here, and ``None`` is returned: the child's tuples only pass
    through.  A streaming selector gets its program back with the channel
    still open.  The program is the statement's, not the instance's
    (:meth:`ExecContext.selector_program`): deriving interval sets and
    running ``f*_T`` happen once, and each segment only propagates the
    result into its own channel.
    """
    spec = op.spec
    scan_id = spec.part_scan_id
    ctx.metrics.node(op).part_scan_id = scan_id
    # Cache replay: the session holds this instance's OID set from an
    # identical earlier statement (same fingerprint, literals, params and
    # plan options — see repro.cache.keys), so selection is skipped
    # entirely.  Child rows still stream unchanged: only selection work is
    # short-circuited, never data flow.
    oids = (
        ctx.cache.cached_oids(scan_id, segment)
        if ctx.cache is not None
        else None
    )
    program = None
    if oids is not None:
        mode = "cached"
    else:
        child_layout = op.children[0].output_layout() if op.children else None
        program = ctx.selector_program(
            scan_id,
            lambda: _SelectorProgram(
                spec, child_layout, ctx.params, ctx.catalog
            ),
        )
        if program.has_streaming:
            if not op.children:
                raise ExecutionError(
                    "streaming PartitionSelector requires an input (join "
                    "predicate over no tuples)"
                )
            ctx.metrics.record_selector(
                scan_id, "dynamic", spec.table.num_leaves
            )
            return program
        # Static selection (constant predicates, parameters, or Φ):
        # propagate and close before any tuple flows.
        mode = "static"
        oids = program.static_oids
    ctx.metrics.record_selector(scan_id, mode, spec.table.num_leaves)
    for oid in oids:
        partition_propagation(ctx, scan_id, segment, oid)
    _close_selector(scan_id, segment, ctx)
    return None


def _close_selector(scan_id: int, segment: int, ctx: ExecContext) -> None:
    if ctx.faults.active:
        ctx.faults.maybe_fire(CHANNEL_CLOSE, segment)
    ctx.channel(scan_id, segment).close()


def _partition_selector_iter(
    op: phys.PartitionSelector, segment: int, ctx: ExecContext
) -> RowIter:
    program = _open_selector(op, segment, ctx)
    if program is None:
        if op.children:
            yield from build_iterator(op.children[0], segment, ctx)
        return
    # Dynamic selection: apply the selection function per streamed tuple.
    scan_id = op.spec.part_scan_id
    for row in build_iterator(op.children[0], segment, ctx):
        for oid in program.oids_for_row(row):
            partition_propagation(ctx, scan_id, segment, oid)
        yield row
    _close_selector(scan_id, segment, ctx)


def _sequence_iter(op: phys.Sequence, segment: int, ctx: ExecContext) -> RowIter:
    for child in op.children[:-1]:
        for _ in build_iterator(child, segment, ctx):
            pass
    yield from build_iterator(op.children[-1], segment, ctx)


# ---------------------------------------------------------------------------
# Row operators
# ---------------------------------------------------------------------------


def _filter_iter(op: phys.Filter, segment: int, ctx: ExecContext) -> RowIter:
    layout = op.children[0].output_layout()
    predicate = compile_predicate(op.predicate, layout, ctx.params)
    for row in build_iterator(op.children[0], segment, ctx):
        if predicate(row):
            yield row


def _project_iter(op: phys.Project, segment: int, ctx: ExecContext) -> RowIter:
    layout = op.children[0].output_layout()
    funcs = [
        compile_expression(expr, layout, ctx.params) for expr, _ in op.items
    ]
    for row in build_iterator(op.children[0], segment, ctx):
        yield tuple(func(row) for func in funcs)


def _hash_join_iter(op: phys.HashJoin, segment: int, ctx: ExecContext) -> RowIter:
    build_layout = op.build.output_layout()
    probe_layout = op.probe.output_layout()
    build_fns = [
        compile_expression(k, build_layout, ctx.params) for k in op.build_keys
    ]
    probe_fns = [
        compile_expression(k, probe_layout, ctx.params) for k in op.probe_keys
    ]
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

    # -- two-stage aggregation ---------------------------------------------

    def transition(self) -> Any:
        """Partial-aggregate state shipped between segments.

        AVG needs both the running sum and the count; the other functions'
        transition state is their result so far.
        """
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
    key_fns = [
        compile_expression(key, layout, ctx.params) for key in op.group_keys
    ]
    charge = ctx.limits.charge_rows if ctx.limits.active else None
    if op.mode == "final":
        # Input rows are (keys..., transition states...): combine them.
        key_count = len(op.group_keys)
        groups: dict[tuple, list[_Accumulator]] = {}
        for row in build_iterator(op.children[0], segment, ctx):
            key = row[:key_count]
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = [
                    _Accumulator(agg.func) for agg, _ in op.aggregates
                ]
                groups[key] = accumulators
                if charge is not None:
                    charge(1)  # one buffered group ≈ one row of state
            for accumulator, state in zip(accumulators, row[key_count:]):
                accumulator.combine(state)
        if not groups and not op.group_keys:
            if segment == COORDINATOR_SEGMENT:
                yield tuple(
                    _Accumulator(agg.func).result()
                    for agg, _ in op.aggregates
                )
            return
        for key, accumulators in groups.items():
            yield key + tuple(acc.result() for acc in accumulators)
        return

    agg_arg_fns: list[Callable[[tuple], Any]] = []
    for agg, _name in op.aggregates:
        if agg.arg is None:
            agg_arg_fns.append(lambda row: 1)  # COUNT(*)
        else:
            agg_arg_fns.append(
                compile_expression(agg.arg, layout, ctx.params)
            )

    groups = {}
    for row in build_iterator(op.children[0], segment, ctx):
        key = tuple(fn(row) for fn in key_fns)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = [
                _Accumulator(agg.func) for agg, _ in op.aggregates
            ]
            groups[key] = accumulators
            if charge is not None:
                charge(1)  # one buffered group ≈ one row of state
        for accumulator, arg_fn in zip(accumulators, agg_arg_fns):
            accumulator.add(arg_fn(row))

    if op.mode == "partial":
        # Emit per-segment transition rows; a scalar partial emits one row
        # per segment even on empty input so the final stage always has
        # states to combine.
        if not groups and not op.group_keys:
            yield tuple(
                _Accumulator(agg.func).transition()
                for agg, _ in op.aggregates
            )
            return
        for key, accumulators in groups.items():
            yield key + tuple(acc.transition() for acc in accumulators)
        return

    if not groups and not op.group_keys:
        # Scalar aggregation over empty input yields one row; the child is
        # always gathered to the coordinator, so emit there only.
        if segment == COORDINATOR_SEGMENT:
            yield tuple(
                _Accumulator(agg.func).result() for agg, _ in op.aggregates
            )
        return
    for key, accumulators in groups.items():
        yield key + tuple(acc.result() for acc in accumulators)


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


def _sort_iter(op: phys.Sort, segment: int, ctx: ExecContext) -> RowIter:
    rows = list(build_iterator(op.children[0], segment, ctx))
    yield from _sorted_rows(op, rows, ctx)


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


def _update_iter(op: phys.Update, segment: int, ctx: ExecContext) -> RowIter:
    child = op.children[0]
    layout = child.output_layout()
    target = op.target
    alias = op.target_alias
    old_indices = [
        layout.resolve(ColumnRef(name, alias))
        for name in target.schema.column_names
    ]
    assignment_fns = {
        column: compile_expression(expr, layout, ctx.params)
        for column, expr in op.assignments
    }
    column_names = target.schema.column_names

    updates: list[tuple[tuple, tuple]] = []
    for row in build_iterator(child, segment, ctx):
        old_row = tuple(row[i] for i in old_indices)
        new_values = []
        for i, name in enumerate(column_names):
            fn = assignment_fns.get(name)
            new_values.append(fn(row) if fn is not None else old_row[i])
        updates.append((old_row, tuple(new_values)))

    if segment != COORDINATOR_SEGMENT:
        # The child stream is gathered; only the coordinator applies.
        if updates:
            raise ExecutionError(
                "Update received rows on a non-coordinator segment"
            )
        return

    store = ctx.storage.store(target.oid)
    _apply_updates(store, target, updates, ctx)
    yield (len(updates),)


def _apply_updates(store, target: TableDescriptor, updates, ctx: ExecContext):
    """Delete-then-insert: re-routes rows whose partition key or
    distribution key changed."""
    from ..storage.distribution import segment_for

    deletions: dict[tuple[int, int], list[tuple]] = {}
    for old_row, _ in updates:
        if target.is_partitioned:
            leaf = target.route_row(old_row)
            assert leaf is not None
            oid = target.leaf_oid(leaf)
        else:
            oid = target.oid
        dist = target.distribution
        if dist.kind == "replicated":
            segments = range(ctx.num_segments)
        else:
            col_idx = target.schema.column_index(dist.column)  # type: ignore[arg-type]
            segments = [segment_for(old_row[col_idx], ctx.num_segments)]
        for seg in segments:
            deletions.setdefault((seg, oid), []).append(old_row)
    for (seg, oid), rows in deletions.items():
        store.delete_from_leaf(seg, oid, rows)
    for _, new_row in updates:
        store.insert(new_row)


def _delete_iter(op: phys.Delete, segment: int, ctx: ExecContext) -> RowIter:
    child = op.children[0]
    layout = child.output_layout()
    target = op.target
    old_indices = [
        layout.resolve(ColumnRef(name, op.target_alias))
        for name in target.schema.column_names
    ]
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
            raise ExecutionError(
                "Delete received rows on a non-coordinator segment"
            )
        return

    from ..storage.distribution import segment_for

    store = ctx.storage.store(target.oid)
    deletions: dict[tuple[int, int], list[tuple]] = {}
    for victim in victims:
        if target.is_partitioned:
            leaf = target.route_row(victim)
            assert leaf is not None
            oid = target.leaf_oid(leaf)
        else:
            oid = target.oid
        dist = target.distribution
        if dist.kind == "replicated":
            segments = range(ctx.num_segments)
        else:
            col_idx = target.schema.column_index(dist.column)  # type: ignore[arg-type]
            segments = [segment_for(victim[col_idx], ctx.num_segments)]
        for seg in segments:
            deletions.setdefault((seg, oid), []).append(victim)
    for (seg, oid), rows in deletions.items():
        store.delete_from_leaf(seg, oid, rows)
    yield (len(victims),)


# ---------------------------------------------------------------------------
# Batch-mode (vectorized) execution
# ---------------------------------------------------------------------------
#
# The batch pipeline is the same Volcano tree pulling lists of tuples
# instead of single tuples: scans slice batches straight out of the heap
# lists, and filters / projections / joins / aggregation loop tightly over
# one batch per Python frame.  Accounting stays exact: metrics charge
# ``len(batch)`` per node, guardrail ticks advance by ``len(batch)``,
# ``max_rows`` charges replicate the row path's charge-by-charge crossing,
# and Limit truncates the final batch so downstream operators see the
# same rows as row-at-a-time execution.  Fault-injection ``scan_row`` /
# ``motion_send`` points fire once per batch.
#
# The one place batch counters can legally diverge from row counters is a
# LIMIT that abandons its child mid-stream: the child has already produced
# its current batch (up to batch_size - 1 extra rows show in that child's
# ``rows_out`` / ``rows_scanned``).  Result rows are identical.


def build_batches(
    op: phys.PhysicalOp, segment: int, ctx: ExecContext
) -> BatchIter:
    """Batch-mode counterpart of :func:`build_iterator`: the iterator
    tree for ``op`` on one segment, yielding row batches of (at most)
    ``ctx.batch_size`` rows."""
    inner = ctx.metrics.instrument_batches(
        op, segment, _raw_batches(op, segment, ctx)
    )
    if ctx.limits.active:
        return _guarded_batches(ctx.limits, inner)
    return inner


def _guarded_batches(limits, inner: BatchIter) -> BatchIter:
    tick_rows = limits.tick_rows
    for batch in inner:
        tick_rows(len(batch))
        yield batch


def _raw_batches(
    op: phys.PhysicalOp, segment: int, ctx: ExecContext
) -> BatchIter:
    factory = EXTRA_BATCH_ITERATORS.get(type(op))
    if factory is not None:
        return factory(op, segment, ctx)
    if type(op) in EXTRA_ITERATORS:
        return _rebatch(
            EXTRA_ITERATORS[type(op)](op, segment, ctx), ctx.batch_size
        )
    if isinstance(op, phys.Motion):
        return _slice_batches(
            ctx.motion_rows(id(op), segment), ctx.batch_size
        )
    if isinstance(op, phys.Scan):
        return _scan_batches(op, segment, ctx)
    if isinstance(op, phys.EmptyScan):
        return iter(())
    if isinstance(op, phys.LeafScan):
        return _leaf_scan_batches(op, segment, ctx)
    if isinstance(op, phys.DynamicScan):
        return _dynamic_scan_batches(op, segment, ctx)
    if isinstance(op, phys.PartitionSelector):
        return _partition_selector_batches(op, segment, ctx)
    if isinstance(op, phys.Sequence):
        return _sequence_batches(op, segment, ctx)
    if isinstance(op, phys.Filter):
        return _filter_batches(op, segment, ctx)
    if isinstance(op, phys.Project):
        return _project_batches(op, segment, ctx)
    if isinstance(op, phys.HashJoin):
        return _hash_join_batches(op, segment, ctx)
    if isinstance(op, phys.HashAgg):
        return _hash_agg_batches(op, segment, ctx)
    if isinstance(op, phys.Sort):
        return _sort_batches(op, segment, ctx)
    if isinstance(op, phys.Limit):
        return _limit_batches(op, segment, ctx)
    if isinstance(op, phys.Append):
        return _append_batches(op, segment, ctx)
    # NLJoin, Update, Delete and anything unknown keep their row-at-a-time
    # implementation (they materialize or mutate — batching buys nothing);
    # re-batching preserves their exact counter behaviour.
    return _rebatch(_raw_iterator(op, segment, ctx), ctx.batch_size)


def _slice_batches(rows: list, batch_size: int) -> BatchIter:
    """Batches sliced out of an already-materialized row list."""
    for start in range(0, len(rows), batch_size):
        yield rows[start : start + batch_size]


def _rebatch(inner: RowIter, batch_size: int) -> BatchIter:
    """Accumulate a row iterator into batches (compat shim for operators
    without a native batch implementation)."""
    batch: list = []
    append = batch.append
    for row in inner:
        append(row)
        if len(batch) >= batch_size:
            yield batch
            batch = []
            append = batch.append
    if batch:
        yield batch


def _scan_batches(op: phys.Scan, segment: int, ctx: ExecContext) -> BatchIter:
    faults = ctx.faults if ctx.faults.active else None
    count = 0
    for batch in ctx.storage.scan_table_batches(
        segment, op.table.oid, batch_size=ctx.batch_size
    ):
        if faults is not None:
            faults.maybe_fire(SCAN_ROW, segment)
        count += len(batch)
        yield batch
    ctx.metrics.record_scan_rows(op, op.table, segment, count)


def _leaf_scan_batches(
    op: phys.LeafScan, segment: int, ctx: ExecContext
) -> BatchIter:
    if op.guard_scan_id is not None:
        selected = ctx.channel(op.guard_scan_id, segment).peek()
        if op.leaf_oid not in selected:
            return
    ctx.metrics.record_leaf(op, op.table, op.leaf_oid, segment)
    faults = ctx.faults if ctx.faults.active else None
    count = 0
    for batch in ctx.storage.scan_table_batches(
        segment, op.table.oid, [op.leaf_oid], ctx.batch_size
    ):
        if faults is not None:
            faults.maybe_fire(SCAN_ROW, segment)
        count += len(batch)
        yield batch
    ctx.metrics.record_scan_rows(op, op.table, segment, count)


def _dynamic_scan_batches(
    op: phys.DynamicScan, segment: int, ctx: ExecContext
) -> BatchIter:
    ctx.metrics.node(op).part_scan_id = op.part_scan_id
    oids = ctx.channel(op.part_scan_id, segment).consume()
    faults = ctx.faults if ctx.faults.active else None
    for oid in oids:
        ctx.metrics.record_leaf(op, op.table, oid, segment)
        count = 0
        for batch in ctx.storage.scan_table_batches(
            segment, op.table.oid, [oid], ctx.batch_size
        ):
            if faults is not None:
                faults.maybe_fire(SCAN_ROW, segment)
            count += len(batch)
            yield batch
        ctx.metrics.record_scan_rows(op, op.table, segment, count)


def _partition_selector_batches(
    op: phys.PartitionSelector, segment: int, ctx: ExecContext
) -> BatchIter:
    program = _open_selector(op, segment, ctx)
    if program is None:
        if op.children:
            yield from build_batches(op.children[0], segment, ctx)
        return
    scan_id = op.spec.part_scan_id
    oids_for_row = program.oids_for_row
    for batch in build_batches(op.children[0], segment, ctx):
        for row in batch:
            for oid in oids_for_row(row):
                partition_propagation(ctx, scan_id, segment, oid)
        yield batch
    _close_selector(scan_id, segment, ctx)


def _sequence_batches(
    op: phys.Sequence, segment: int, ctx: ExecContext
) -> BatchIter:
    for child in op.children[:-1]:
        for _ in build_batches(child, segment, ctx):
            pass
    yield from build_batches(op.children[-1], segment, ctx)


def _filter_batches(
    op: phys.Filter, segment: int, ctx: ExecContext
) -> BatchIter:
    keep = ctx.kernel(
        op,
        lambda: filter_kernel(
            op.predicate, op.children[0].output_layout(), ctx.params
        ),
    )
    for batch in build_batches(op.children[0], segment, ctx):
        out = keep(batch)
        if out:
            yield out


def _project_batches(
    op: phys.Project, segment: int, ctx: ExecContext
) -> BatchIter:
    project = ctx.kernel(
        op,
        lambda: project_kernel(
            [expr for expr, _ in op.items],
            op.children[0].output_layout(),
            ctx.params,
        ),
    )
    for batch in build_batches(op.children[0], segment, ctx):
        yield project(batch)


def _hash_join_batches(
    op: phys.HashJoin, segment: int, ctx: ExecContext
) -> BatchIter:
    build, probe = ctx.kernel(
        op,
        lambda: hash_join_kernels(
            op.build_keys,
            op.probe_keys,
            op.residual,
            op.kind == "semi",
            op.build.output_layout(),
            op.probe.output_layout(),
            ctx.params,
        ),
    )
    limits = ctx.limits if ctx.limits.active else None
    table: dict = {}
    for batch in build_batches(op.build, segment, ctx):
        added = build(batch, table)
        if limits is not None and added:
            limits.charge_rows_batch(added)  # build side is materialized

    batch_size = ctx.batch_size
    out: list[tuple] = []
    for batch in build_batches(op.probe, segment, ctx):
        probe(batch, table, out)
        if len(out) >= batch_size:
            yield out
            out = []
    if out:
        yield out


def _hash_agg_batches(
    op: phys.HashAgg, segment: int, ctx: ExecContext
) -> BatchIter:
    limits = ctx.limits if ctx.limits.active else None
    if op.mode == "final":
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
            ctx.batch_size,
        )
        return

    aggregates = [agg for agg, _ in op.aggregates]
    partial = op.mode == "partial"
    update, emit = ctx.kernel(
        op,
        lambda: hash_agg_kernels(
            op.group_keys,
            aggregates,
            partial,
            op.children[0].output_layout(),
            ctx.params,
        ),
    )
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
        # to combine; otherwise the empty result, on the coordinator only.
        if partial or segment == COORDINATOR_SEGMENT:
            yield emit({(): [0, None] * len(aggregates)})
        return
    yield from _slice_batches(emit(groups), ctx.batch_size)


def _sorted_rows(op: phys.Sort, rows: list[tuple], ctx: ExecContext) -> list:
    """``rows`` sorted in place by the Sort's keys, after one gulp charge
    (the same at every batch width)."""
    if ctx.limits.active:
        ctx.limits.charge_rows(len(rows))
    rows.sort(
        key=ctx.kernel(
            op,
            lambda: sort_key_kernel(
                [expr for expr, _ in op.keys],
                op.children[0].output_layout(),
                ctx.params,
                _sort_key([asc for _, asc in op.keys]),
            ),
        )
    )
    return rows


def _sort_batches(op: phys.Sort, segment: int, ctx: ExecContext) -> BatchIter:
    rows: list[tuple] = []
    for batch in build_batches(op.children[0], segment, ctx):
        rows.extend(batch)
    yield from _slice_batches(_sorted_rows(op, rows, ctx), ctx.batch_size)


def _limit_batches(op: phys.Limit, segment: int, ctx: ExecContext) -> BatchIter:
    remaining = op.count
    if remaining <= 0:
        return
    for batch in build_batches(op.children[0], segment, ctx):
        if len(batch) >= remaining:
            # split the final batch: downstream sees exactly the same rows
            # as row-at-a-time execution
            yield batch[:remaining]
            return
        remaining -= len(batch)
        yield batch


def _append_batches(
    op: phys.Append, segment: int, ctx: ExecContext
) -> BatchIter:
    for child in op.children:
        yield from build_batches(child, segment, ctx)
