"""Slice-at-a-time MPP execution with fault tolerance.

A plan is cut at Motion boundaries.  Motions are executed deepest-first:
the child subtree runs once per segment and its output is routed into
the Motion's :class:`~repro.executor.queues.MotionBuffer` —

* **Gather** → everything to the coordinator (segment 0);
* **Broadcast** → a copy to every segment;
* **Redistribute** → by hash of the motion's key expressions.

The consuming slice then runs on every segment, reading buffered rows at
the Motion node.  Because producer PartitionSelectors and consumer
DynamicScans are never separated by a Motion (the plan validator enforces
the paper's Figure 12 rule), every OID channel is filled and closed within
one (slice, segment) instance before its consumer opens — the shared-memory
contract of Section 2.2.

**One execution order.**  A statement runs on one thread: slices run one
after another, and each slice's per-segment instances run in ascending
segment order.  In the paper a slice runs once per segment as separate
processes on separate hosts (Section 2.2); here the instances share the
statement's thread, and what runs concurrently is statements of
different sessions (docs/parallelism.md).

**Failure handling** rides on the Figure 12 invariant: when a segment
instance dies (a :class:`~repro.errors.SegmentFailure`, real or injected),
only that *instance* is retried.  The failed segment's partition-OID
channels and its producer runs in the Motion buffer are discarded and
rebuilt locally on the re-run — no cross-segment coordination is needed,
because no channel ever crosses a Motion and every buffer keeps
per-producer runs.  Transient failures retry in place with exponential backoff;
persistent ones first fail the segment over to its mirror
(:class:`~repro.resilience.SegmentHealth`), after which storage reads for
that segment are served from the mirror copy and the retry produces
results identical to a fault-free run.  Healthy segments' instances are
never re-run.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from ..catalog import Catalog
from ..errors import SegmentFailure
from ..expr.ast import Parameter
from ..obs import trace as obs_trace
from ..obs.metrics import MetricsCollector
from ..obs.render import render_explain_analyze
from ..physical import ops as phys
from ..physical.plan import Plan, _producer_id
from ..resilience.faults import MOTION_SEND, SLICE_START, FaultInjector
from ..resilience.guardrails import QueryLimits, RetryPolicy
from ..settings import DEFAULT_SETTINGS, QuerySettings
from ..storage import StorageManager
from ..storage.distribution import segment_for, stable_hash
from .context import COORDINATOR_SEGMENT, ExecContext
from .iterators import KERNELS, build_batches, drain, kernel
from .queues import MotionBuffer


class ExecutionResult:
    """Rows plus the measurements the paper's experiments report.

    ``metrics`` is the full per-node :class:`MetricsCollector`;
    ``partitions_scanned`` and ``rows_scanned`` are thin aliases over it,
    kept for older callers.
    """

    def __init__(
        self,
        rows: list[tuple],
        column_names: list[str],
        metrics: MetricsCollector,
        elapsed_seconds: float,
    ):
        self.rows = rows
        self.column_names = column_names
        self.metrics = metrics
        self.elapsed_seconds = elapsed_seconds
        #: the lifecycle :class:`~repro.obs.Tracer` when the statement ran
        #: with ``trace=True``; ``None`` otherwise
        self.trace = None

    def partitions_scanned(self, table_name: str | None = None) -> int:
        return self.metrics.partitions_scanned(table_name)

    @property
    def rows_scanned(self) -> int:
        return self.metrics.total_rows_scanned

    def explain_analyze(self) -> str:
        """The executed plan annotated with this run's actuals."""
        return render_explain_analyze(self.metrics)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return (
            f"ExecutionResult({len(self.rows)} rows, "
            f"{self.rows_scanned} rows scanned)"
        )


class PreparedPlan:
    """A validated plan with every operator's kernel rendered once.

    Nothing in it changes once built, so one instance serves every
    statement of its shape on any thread.  :meth:`instance` gives a
    statement its plan, with its own values in the template's literal
    slots (:meth:`~repro.physical.plan.Plan.with_literals`), and its
    kernels, each made by the cached factory from the statement's
    constants: nothing is validated or rendered again.
    """

    __slots__ = ("plan", "slots", "_holders", "_kernels")

    def __init__(self, plan: Plan, params: Sequence[Any] | None = None):
        plan.validate()
        self.plan = plan
        #: the literal slots the plan holds, and the nodes holding them
        self.slots, self._holders = plan.literal_sites()
        #: (walk position, kernel as rendered, its recipe or None)
        self._kernels = tuple(
            (position, made, _recipe(made))
            for position, op in enumerate(plan.walk())
            if type(op) in KERNELS
            for made in [KERNELS[type(op)](op, params)]
        )

    def instance(
        self,
        values: Sequence[Any] | None = None,
        params: Sequence[Any] | None = None,
    ) -> tuple[Plan, dict[int, Any]]:
        """``(plan, kernels by id(op))`` for one execution: the template's
        own when ``values`` is None, else those of the statement whose
        literal values (by slot) and parameters these are."""
        if values is None:
            plan = self.plan
        else:
            plan = self.plan.with_literals(values, self._holders)
        ops = list(plan.walk())
        kernels = {}
        for position, made, recipe in self._kernels:
            if values is not None and recipe is not None:
                make, consts, origins = recipe
                made = make(*[
                    const if origin is None
                    else params[origin.index - 1]  # type: ignore[index]
                    if isinstance(origin, Parameter)
                    else values[origin]
                    for const, origin in zip(consts, origins)
                ])
            kernels[id(ops[position])] = made
        return plan, kernels


def _recipe(made: Any):
    """The ``__recipe__`` of a rendered kernel (None for no kernel)."""
    return getattr(made[0] if isinstance(made, tuple) else made, "__recipe__", None)


class MppExecutor:
    """Executes validated physical plans over the segment simulator."""

    def __init__(
        self,
        catalog: Catalog,
        storage: StorageManager,
        num_segments: int,
        faults: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        self.catalog = catalog
        self.storage = storage
        self.num_segments = num_segments
        self.faults = faults if faults is not None else FaultInjector()
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )

    def execute(
        self,
        plan: Plan,
        params: Sequence[Any] | None = None,
        settings: QuerySettings = DEFAULT_SETTINGS,
        limits: QueryLimits | None = None,
        faults: FaultInjector | None = None,
        activity=None,
        kernels: dict[int, Any] | None = None,
    ) -> ExecutionResult:
        """Run the plan as ``settings`` says: batches of ``batch_size``
        rows, per-node wall-clock timings when ``analyze`` (row and
        partition counters are always on).  ``limits`` is the run's
        guardrail state (cancel token, deadline, buffered-row count); None
        builds it from ``settings.timeout`` / ``settings.max_rows``.
        ``faults`` overrides the executor-wide injector for this query
        (serving sessions each carry their own).  ``activity`` is the
        statement's live :class:`~repro.obs.live.QueryActivity` record (None = not
        registered): the executor attaches the collector to it once, so
        activity snapshots can read rows/partitions-so-far — a pull
        model, with zero per-row writes.  ``kernels`` are those of a
        :class:`PreparedPlan` instance for ``plan``; None prepares the plan
        here (validation and rendering)."""
        if kernels is None:
            plan, kernels = PreparedPlan(plan, params).instance()
        metrics = MetricsCollector(self.num_segments, timing=settings.analyze)
        metrics.register_plan(plan)
        metrics.record_settings(settings)
        if activity is not None:
            activity.metrics = metrics
        if limits is None:
            limits = QueryLimits(settings.timeout, settings.max_rows)
        limits.start()
        started = time.perf_counter()
        ctx = ExecContext(
            self.catalog,
            self.storage,
            self.num_segments,
            params,
            metrics,
            faults=faults if faults is not None else self.faults,
            limits=limits,
            settings=settings,
            kernels=kernels,
        )
        # Slice k (k >= 1) is the subtree below the k-th Motion in
        # post-order; slice 0 is the root slice.
        for slice_id, motion in enumerate(
            _motions_deepest_first(plan.root), start=1
        ):
            limits.check()
            slice_started = time.perf_counter()
            slice_scan_ids = _slice_part_scan_ids(motion.children[0])
            segments = self._dispatched_segments(motion, ctx)
            with obs_trace.span(f"slice:{slice_id}", motion=motion.name):
                self._run_motion_slice(
                    motion, ctx, slice_id, slice_scan_ids, segments
                )
            metrics.record_slice(
                slice_id,
                f"below {motion.name}",
                time.perf_counter() - slice_started,
                segments,
            )
        limits.check()
        root_started = time.perf_counter()
        root_scan_ids = _slice_part_scan_ids(plan.root)
        with obs_trace.span("slice:0", motion="root"):
            rows = self._run_root_slice(plan.root, ctx, root_scan_ids)
        metrics.record_slice(
            0,
            "root",
            time.perf_counter() - root_started,
            range(self.num_segments),
        )
        limits.check()
        elapsed = time.perf_counter() - started
        metrics.fault_points = ctx.faults.snapshot()
        metrics.segment_health = self.storage.health.status()
        metrics.finish(elapsed)
        names = [name for _, name in plan.root.output_layout().slots]
        return ExecutionResult(rows, names, metrics, elapsed)

    # -- slices ---------------------------------------------------------------

    def _run_root_slice(
        self,
        root: phys.PhysicalOp,
        ctx: ExecContext,
        scan_ids: set[int],
    ) -> list[tuple]:
        """Run the root slice's per-segment instances and concatenate
        their rows in segment order (the Gather contract)."""

        def work(segment: int) -> list[tuple]:
            faults = ctx.faults if ctx.faults.active else None
            if faults is not None:
                faults.maybe_fire(SLICE_START, segment)
            return drain(root, segment, ctx)

        rows: list[tuple] = []
        for segment in range(self.num_segments):
            rows += self._run_instance_with_retry(
                ctx, 0, segment, scan_ids, None, lambda: work(segment)
            )
        return rows

    def _dispatched_segments(
        self, motion: phys.Motion, ctx: ExecContext
    ) -> Sequence[int]:
        """The segments the slice below ``motion`` runs on: every segment,
        unless the slice carries a direct-dispatch restriction whose
        run-time values prove its rows live on fewer."""
        if motion.dispatch is not None:
            pinned = motion.dispatch.segments(ctx.params, self.num_segments)
            if pinned is not None:
                return pinned
        return range(self.num_segments)

    def _run_motion_slice(
        self,
        motion: phys.Motion,
        ctx: ExecContext,
        slice_id: int,
        scan_ids: set[int],
        segments: Sequence[int],
    ) -> None:
        """Run one motion slice's producer instances on ``segments``, then
        seal the Motion buffer so the consuming slice may read it.  A
        segment that is not dispatched simply has no producer run: the
        buffer still closes, and retry and failover see only the instances
        that exist."""
        buffer = ctx.motion_buffer(id(motion))
        for segment in segments:
            self._run_instance_with_retry(
                ctx,
                slice_id,
                segment,
                scan_ids,
                id(motion),
                lambda: self._send_segment(motion, ctx, segment, buffer),
            )
        buffer.close()

    def _run_instance_with_retry(
        self,
        ctx: ExecContext,
        slice_id: int,
        segment: int,
        scan_ids: set[int],
        motion_id: int | None,
        work: Callable[[], Any],
    ) -> Any:
        """Run one (slice, segment) instance, retrying it — and only it —
        on :class:`SegmentFailure`.

        A transient failure retries in place after exponential backoff; a
        persistent one fails the segment over to its mirror first.  Before
        each retry exactly the failed instance's state is discarded: its
        segment's OID channels (instance-local by the Figure 12 invariant)
        and its producer runs in the Motion buffer.  The slice's other
        instances — those that already ran — are untouched.  Counters stay
        cumulative across attempts: a retry records into the same slots as
        the attempt it replaces."""
        policy = self.retry_policy
        attempt = 0
        slept: float | None = None
        started = time.perf_counter()
        try:
            while True:
                try:
                    return work()
                except SegmentFailure as failure:
                    attempt += 1
                    if attempt > policy.max_retries:
                        raise
                    if not self._recover(failure, ctx):
                        raise
                    ctx.metrics.record_retry(
                        slice_id, attempt, failure.segment, failure.point
                    )
                    ctx.reset_instance(
                        scan_ids, segment, motion_id=motion_id
                    )
                    # decorrelated jitter: this wait seeds the next draw
                    slept = policy.backoff(attempt, previous=slept)
        finally:
            ctx.metrics.record_instance(
                slice_id, segment, time.perf_counter() - started
            )

    def _recover(self, failure: SegmentFailure, ctx: ExecContext) -> bool:
        """Attempt recovery from one segment failure.

        Transient faults need no state change — the retry itself is the
        recovery.  Persistent faults mark the primary down; recovery
        succeeds iff the mirror can take over.  A shared log's failure
        (segment -1: the catalog or commit log) has no mirror to take over.
        """
        if failure.transient:
            return True
        if not 0 <= failure.segment < self.num_segments:
            return False
        health = self.storage.health
        reason = failure.point or "segment failure"
        mirror_ok = health.failover(failure.segment, reason)
        ctx.metrics.record_failover(failure.segment, reason)
        return mirror_ok

    # -- motions ------------------------------------------------------------

    def _send_segment(
        self,
        motion: phys.Motion,
        ctx: ExecContext,
        segment: int,
        buffer: MotionBuffer,
    ) -> None:
        """One producer instance: run the motion's child subtree on
        ``segment`` and route every batch into the Motion buffer, tagged
        with this segment as the producer (the deterministic-merge key).
        A batch is one list extend per target and is sized from the
        layout alone; the ``motion_send`` fault point fires once per
        batch, and the buffered-row charges stop at the first one that
        crosses ``max_rows``, whatever the width."""
        child = motion.children[0]
        row_bytes = motion_row_bytes(motion)
        record = ctx.metrics.record_motion_batch
        faults = ctx.faults if ctx.faults.active else None
        limits = ctx.limits if ctx.limits.active else None
        gather = isinstance(motion, phys.GatherMotion)
        broadcast = isinstance(motion, phys.BroadcastMotion)
        if faults is not None:
            faults.maybe_fire(SLICE_START, segment)
        for batch in build_batches(child, segment, ctx):
            if faults is not None:
                faults.maybe_fire(MOTION_SEND, segment)
            if gather:
                buffer.send_batch(COORDINATOR_SEGMENT, batch, segment)
                nbytes = row_bytes * len(batch)
                record(motion, "gather", segment, COORDINATOR_SEGMENT, len(batch), nbytes)
                if limits is not None:
                    limits.charge_rows_batch(len(batch))
            elif broadcast:
                nbytes = row_bytes * len(batch)
                for target in range(self.num_segments):
                    buffer.send_batch(target, batch, segment)
                    record(motion, "broadcast", segment, target, len(batch), nbytes)
                if limits is not None:
                    limits.charge_rows_batch(
                        len(batch), per_row=self.num_segments
                    )
            else:
                by_target: dict[int, list[tuple]] = {}
                for values, row in zip(kernel(motion, ctx)(batch), batch):
                    if len(values) == 1:
                        target = segment_for(values[0], self.num_segments)
                    else:
                        target = (
                            sum(stable_hash(v) for v in values)
                            % self.num_segments
                        )
                    by_target.setdefault(target, []).append(row)
                for target in sorted(by_target):
                    rows = by_target[target]
                    buffer.send_batch(target, rows, segment)
                    nbytes = row_bytes * len(rows)
                    record(motion, "redistribute", segment, target, len(rows), nbytes)
                if limits is not None:
                    limits.charge_rows_batch(len(batch))


def motion_row_bytes(motion: phys.Motion) -> int:
    """Bytes one row of ``motion`` moves by the Motion byte measure
    (docs/observability.md): 8 of framing and 8 per slot, whatever its
    type or value."""
    return 8 + 8 * len(motion.output_layout())


def _motions_deepest_first(root: phys.PhysicalOp) -> list[phys.Motion]:
    """Motions in post-order, so producers are buffered before consumers."""
    found: list[phys.Motion] = []

    def visit(op: phys.PhysicalOp) -> None:
        for child in op.children:
            visit(child)
        if isinstance(op, phys.Motion):
            found.append(op)

    visit(root)
    return found


def _slice_part_scan_ids(root: phys.PhysicalOp) -> set[int]:
    """Partition-OID channel ids owned by one slice.

    Walks the subtree without descending through Motions (their subtrees
    are other slices, already complete).  Because no Motion separates a
    PartitionSelector from its DynamicScan, these ids are exactly the
    channels an instance retry must discard and rebuild (scoped to the
    failed segment).
    """
    ids: set[int] = set()

    def visit(op: phys.PhysicalOp) -> None:
        produced = _producer_id(op)
        if produced is not None:
            ids.add(produced)
        elif isinstance(op, phys.DynamicScan):
            ids.add(op.part_scan_id)
        elif (
            isinstance(op, phys.LeafScan) and op.guard_scan_id is not None
        ):
            ids.add(op.guard_scan_id)
        for child in op.children:
            if not isinstance(child, phys.Motion):
                visit(child)

    # A Motion as slice root reads its buffer only; no channels.
    if not isinstance(root, phys.Motion):
        visit(root)
    return ids
