"""Fault-tolerant execution: fault injection, segment mirroring/failover,
and per-query guardrails.

Real MPP deployments survive segment crashes; this package gives the
simulator the same failure path.  Three pieces:

* :class:`FaultInjector` — deterministic, seedable fault injection at
  named executor points (``slice_start``, ``motion_send``, ``scan_row``,
  ``channel_close``), modelled on Greenplum's ``gp_inject_fault``;
* :class:`SegmentHealth` — per-segment primary/mirror up-down state; the
  storage layer serves reads for a down primary from its mirror copy and
  the executor retries the failed slice (paper Figure 12 guarantees the
  slice's partition-OID channels are rebuildable locally, because no
  Motion ever separates a PartitionSelector from its DynamicScan);
* :class:`QueryLimits` / :class:`CancelToken` / :class:`RetryPolicy` —
  per-query timeout, buffered-row budget, cooperative cancellation and
  the bounded-retry/backoff policy.
"""

from .faults import (
    ALWAYS,
    CHANNEL_CLOSE,
    CHECKPOINT_WRITE,
    DELETE_ROWS,
    FAIL_N,
    FAIL_ONCE,
    INJECTION_POINTS,
    INSERT_ROW,
    MOTION_SEND,
    RECOVERY_REPLAY,
    SCAN_ROW,
    SLICE_START,
    TRIGGER_MODES,
    WAL_APPEND,
    WAL_FSYNC,
    FaultInjector,
    FaultSpec,
)
from .guardrails import CancelToken, QueryLimits, RetryPolicy
from .health import DOWN, MIRROR, PRIMARY, RESYNCING, UP, SegmentHealth

__all__ = [
    "ALWAYS",
    "CHANNEL_CLOSE",
    "CHECKPOINT_WRITE",
    "DELETE_ROWS",
    "DOWN",
    "FAIL_N",
    "FAIL_ONCE",
    "INJECTION_POINTS",
    "INSERT_ROW",
    "MIRROR",
    "MOTION_SEND",
    "PRIMARY",
    "RECOVERY_REPLAY",
    "RESYNCING",
    "SCAN_ROW",
    "SLICE_START",
    "TRIGGER_MODES",
    "UP",
    "WAL_APPEND",
    "WAL_FSYNC",
    "CancelToken",
    "FaultInjector",
    "FaultSpec",
    "QueryLimits",
    "RetryPolicy",
    "SegmentHealth",
]
