"""Deterministic fault injection, modelled on Greenplum's ``gp_inject_fault``.

A :class:`FaultInjector` holds a set of armed :class:`FaultSpec` entries,
each naming an **injection point** — a well-known place in the executor
where real MPP systems die (a segment process starting its slice, a Motion
send, a scan producing a row, a partition-OID channel closing).  The
executor calls :meth:`FaultInjector.maybe_fire` at every point; when an
armed spec matches, a typed :class:`~repro.errors.SegmentFailure` is
raised, which the executor's retry/failover machinery then handles exactly
as it would a real crash.

Injection is deterministic: triggers are counter-based (``fail_once``,
``fail_n``, ``always``, with an optional number of hits to ``skip``
first), and the optional ``probability`` mode draws from a seeded RNG so
a run is reproducible from ``FaultInjector(seed=...)``.
"""

from __future__ import annotations

import random
import threading

from ..errors import ExecutionError, SegmentFailure

#: a (slice, segment) instance begins running
SLICE_START = "slice_start"
#: a Motion routes one row to a target segment
MOTION_SEND = "motion_send"
#: a scan produces one row from storage
SCAN_ROW = "scan_row"
#: a partition-OID channel is about to close
CHANNEL_CLOSE = "channel_close"
#: a row is about to be inserted into a segment's buckets (mutation path)
INSERT_ROW = "insert_row"
#: rows are about to be deleted from a segment's leaf (mutation path)
DELETE_ROWS = "delete_rows"
#: a WAL record is about to be appended (segment, or -1 for shared logs)
WAL_APPEND = "wal_append"
#: a WAL file is about to be fsynced
WAL_FSYNC = "wal_fsync"
#: a checkpoint snapshot is about to be written to disk
CHECKPOINT_WRITE = "checkpoint_write"
#: a WAL record is about to be replayed during restart recovery / resync
RECOVERY_REPLAY = "recovery_replay"

INJECTION_POINTS = (
    SLICE_START,
    MOTION_SEND,
    SCAN_ROW,
    CHANNEL_CLOSE,
    INSERT_ROW,
    DELETE_ROWS,
    WAL_APPEND,
    WAL_FSYNC,
    CHECKPOINT_WRITE,
    RECOVERY_REPLAY,
)

FAIL_ONCE = "fail_once"
FAIL_N = "fail_n"
ALWAYS = "always"

TRIGGER_MODES = (FAIL_ONCE, FAIL_N, ALWAYS)


class FaultSpec:
    """One armed fault: where it fires, how often, and how it presents."""

    __slots__ = (
        "point",
        "segment",
        "mode",
        "n",
        "skip",
        "transient",
        "probability",
        "hits",
        "fired",
    )

    def __init__(
        self,
        point: str,
        segment: int | None = None,
        mode: str = FAIL_ONCE,
        n: int = 1,
        skip: int = 0,
        transient: bool = False,
        probability: float = 1.0,
    ):
        if point not in INJECTION_POINTS:
            raise ExecutionError(
                f"unknown injection point {point!r} "
                f"(one of {', '.join(INJECTION_POINTS)})"
            )
        if mode not in TRIGGER_MODES:
            raise ExecutionError(
                f"unknown fault trigger {mode!r} "
                f"(one of {', '.join(TRIGGER_MODES)})"
            )
        if n < 1:
            raise ExecutionError("fail_n requires n >= 1")
        if skip < 0:
            raise ExecutionError("skip must be >= 0")
        if not 0.0 < probability <= 1.0:
            raise ExecutionError("probability must be in (0, 1]")
        self.point = point
        self.segment = segment
        self.mode = mode
        self.n = n
        self.skip = skip
        self.transient = transient
        self.probability = probability
        #: matching evaluations of this spec (including skipped ones)
        self.hits = 0
        #: times this spec actually raised
        self.fired = 0

    def matches(self, point: str, segment: int) -> bool:
        return self.point == point and (
            self.segment is None or self.segment == segment
        )

    @property
    def exhausted(self) -> bool:
        if self.mode == ALWAYS:
            return False
        limit = 1 if self.mode == FAIL_ONCE else self.n
        return self.fired >= limit

    def __repr__(self) -> str:
        where = "any" if self.segment is None else str(self.segment)
        return (
            f"FaultSpec({self.point}, seg={where}, {self.mode}, "
            f"fired={self.fired})"
        )


class FaultInjector:
    """The set of armed faults plus per-point hit accounting."""

    def __init__(self, seed: int = 0):
        self._specs: list[FaultSpec] = []
        self._rng = random.Random(seed)
        #: serializes trigger evaluation so counter-based modes stay exact
        #: when statements of different sessions share one injector (two
        #: threads must not both fire a FAIL_ONCE spec); the fault-free
        #: fast path in :meth:`maybe_fire` never takes it
        self._lock = threading.Lock()
        #: injection point -> evaluations that matched an armed spec
        self.hits_by_point: dict[str, int] = {}
        #: injection point -> faults actually raised
        self.fired_by_point: dict[str, int] = {}

    @property
    def active(self) -> bool:
        """Cheap guard for hot paths: anything armed at all?"""
        return bool(self._specs)

    def arm(
        self,
        point: str,
        segment: int | None = None,
        mode: str = FAIL_ONCE,
        n: int = 1,
        skip: int = 0,
        transient: bool = False,
        probability: float = 1.0,
    ) -> FaultSpec:
        """Arm one fault; returns the spec so tests can inspect counters."""
        spec = FaultSpec(point, segment, mode, n, skip, transient, probability)
        self._specs.append(spec)
        return spec

    def disarm(self, point: str | None = None) -> int:
        """Disarm faults at ``point`` (all points when ``None``); returns
        how many specs were removed.  Hit counters are preserved."""
        kept = [
            s for s in self._specs if point is not None and s.point != point
        ]
        removed = len(self._specs) - len(kept)
        self._specs = kept
        return removed

    def reset(self) -> None:
        """Disarm everything and clear all counters."""
        self._specs.clear()
        self.hits_by_point.clear()
        self.fired_by_point.clear()

    def specs(self) -> list[FaultSpec]:
        return list(self._specs)

    def maybe_fire(self, point: str, segment: int) -> None:
        """Raise :class:`SegmentFailure` when an armed spec decides to fire.

        Called by the executor at every injection point; a no-op unless a
        matching spec is armed and its trigger condition is met.
        """
        if not self._specs:
            return
        with self._lock:
            for spec in self._specs:
                if not spec.matches(point, segment) or spec.exhausted:
                    continue
                spec.hits += 1
                self.hits_by_point[point] = (
                    self.hits_by_point.get(point, 0) + 1
                )
                if spec.hits <= spec.skip:
                    continue
                if (
                    spec.probability < 1.0
                    and self._rng.random() >= spec.probability
                ):
                    continue
                spec.fired += 1
                self.fired_by_point[point] = (
                    self.fired_by_point.get(point, 0) + 1
                )
                raise SegmentFailure(
                    f"injected fault at {point} on segment {segment} "
                    f"({spec.mode}, fault #{spec.fired})",
                    segment=segment,
                    point=point,
                    transient=spec.transient,
                )

    def snapshot(self) -> dict:
        """Per-point counters for the metrics export (schema v2)."""
        points = sorted(
            set(self.hits_by_point) | set(self.fired_by_point)
        )
        return {
            point: {
                "hits": self.hits_by_point.get(point, 0),
                "fired": self.fired_by_point.get(point, 0),
            }
            for point in points
        }
