"""Execution context: everything one query run needs.

The MPP simulator's conventions:

* Segments are numbered ``0 .. num_segments-1``; **segment 0 doubles as the
  coordinator** — GatherMotion routes all rows there, and
  coordinator-only operators (scalar aggregation over a gathered stream,
  Update's count row) emit on segment 0 only.
* Motion outputs are materialized into one
  :class:`~repro.executor.queues.MotionBuffer` per Motion before the
  consuming slice runs (slice-at-a-time execution); each producer
  instance writes only its own runs, and a target's rows are read in
  producer-segment order.
* Partition-OID channels are per (part scan id, segment).
* The context's :class:`~repro.obs.metrics.MetricsCollector` records
  which leaf partitions every scan touched — the measurement behind the
  paper's Figure 16 and Table 3.  Each counter slot belongs to one
  (slice, segment) instance, so there is nothing to merge.
* The context carries the run's :class:`~repro.resilience.FaultInjector`
  and :class:`~repro.resilience.QueryLimits`; iterators consult both on
  their hot paths (guarded by cheap ``active`` flags).
* The context carries the statement's
  :class:`~repro.settings.QuerySettings`; operators read the batch width
  from it.
* One thread per statement: the statement's thread runs every slice,
  and each slice's segment instances in segment order, so the context
  and everything it holds (channels, memos, metrics, limits) has one
  writer and no lock.  The locks a statement meets guard state shared
  *between* statements: segment health, fault injection, the retry
  jitter, the caches, storage and durability.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..catalog import Catalog
from ..obs.metrics import MetricsCollector
from ..resilience.faults import FaultInjector
from ..resilience.guardrails import QueryLimits
from ..settings import DEFAULT_SETTINGS, QuerySettings
from ..storage import StorageManager
from .channels import ChannelRegistry, OidChannel
from .queues import MotionBuffer

__all__ = ["COORDINATOR_SEGMENT", "ExecContext"]

COORDINATOR_SEGMENT = 0


class ExecContext:
    """State shared by all iterators of one query execution."""

    def __init__(
        self,
        catalog: Catalog,
        storage: StorageManager,
        num_segments: int,
        params: Sequence[Any] | None = None,
        metrics: MetricsCollector | None = None,
        faults: FaultInjector | None = None,
        limits: QueryLimits | None = None,
        settings: QuerySettings = DEFAULT_SETTINGS,
    ):
        self.catalog = catalog
        self.storage = storage
        self.num_segments = num_segments
        self.params = list(params) if params is not None else []
        self.channels = ChannelRegistry()
        #: id(motion op) -> that Motion's rows, per (target, producer)
        self.motion_buffers: dict[int, MotionBuffer] = {}
        self.metrics = (
            metrics if metrics is not None else MetricsCollector(num_segments)
        )
        self.faults = faults if faults is not None else FaultInjector()
        self.limits = limits if limits is not None else QueryLimits()
        #: how the statement runs: batch width, limits, timing
        self.settings = settings
        #: part_scan_id -> the statement's compiled selector program
        self._selector_programs: dict[int, Any] = {}
        #: id(operator) -> the statement's generated kernel(s) for it
        self._kernels: dict[int, Any] = {}

    def cancel(self) -> None:
        """Cooperatively cancel this execution: the next guardrail
        checkpoint raises :class:`~repro.errors.QueryCancelled`."""
        from ..resilience.guardrails import CancelToken

        if self.limits.cancel_token is None:
            self.limits.cancel_token = CancelToken()
        self.limits.cancel_token.cancel()

    def channel(self, part_scan_id: int, segment: int) -> OidChannel:
        return self.channels.channel(part_scan_id, segment)

    def selector_program(self, part_scan_id: int, build):
        """The one selector program of ``part_scan_id`` for this statement,
        built by the first segment instance that asks (``build()``) and
        shared by the rest: nothing in it depends on the segment, and a
        retried instance reuses it."""
        program = self._selector_programs.get(part_scan_id)
        if program is None:
            program = self._selector_programs[part_scan_id] = build()
        return program

    def kernel(self, op, build):
        """The statement's generated kernel(s) for ``op``: rendered by the
        first segment instance that asks (``build()``) and shared by the
        rest.  Kernels keep no state between calls."""
        made = self._kernels.get(id(op))
        if made is None:
            made = self._kernels[id(op)] = build()
        return made

    def motion_buffer(self, motion_id: int) -> MotionBuffer:
        buffer = self.motion_buffers.get(motion_id)
        if buffer is None:
            buffer = self.motion_buffers[motion_id] = MotionBuffer(
                self.num_segments
            )
        return buffer

    def motion_rows(self, motion_id: int, segment: int) -> list[tuple]:
        """The merged, deterministic row sequence one Motion delivered to
        ``segment`` (requires the producing slice to have closed the
        buffer — the ChannelError contract)."""
        return self.motion_buffer(motion_id).rows(segment)

    def reset_instance(
        self,
        part_scan_ids,
        segment: int,
        motion_id: int | None = None,
    ) -> None:
        """Discard one failed (slice, segment) instance's state before its
        retry, leaving every other segment's work intact: only the failed
        segment's partition-OID channels (the Figure 12 invariant makes
        them instance-local) and only that producer's runs in the Motion's
        buffer."""
        self.channels.discard(part_scan_ids, segment=segment)
        if motion_id is not None:
            buffer = self.motion_buffers.get(motion_id)
            if buffer is not None:
                buffer.discard_producer(segment)

