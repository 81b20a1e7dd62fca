"""Typed optimizer search events — the trace's view inside the Memo.

The Cascades search (`repro.optimizer.orca` / `memo.py`)
emits one event per interesting step into the active tracer's
:class:`OptimizerEventLog`:

* :class:`GroupCreated` / :class:`ExpressionAdded` — Memo growth;
* :class:`RuleFired` — exploration (``join_commute``) and implementation
  rules, by name;
* :class:`PropertyRequest` — an ``(distribution, partition propagation)``
  optimization request submitted to a group (Section 3.1);
* :class:`EnforcerAdded` — an enforcer candidate generated for a request,
  with ``kind`` distinguishing Motion from PartitionSelector (and
  ``placement`` separating on-top selectors from the Figure 5 scan unit);
* :class:`WinnerCosted` — a request resolved to its best plan, with the
  winning cost and how many costed alternatives were pruned.

Every emission site guards on :func:`log` returning None, so the
instrumentation is free when tracing is off.  Event volume is bounded by
the search itself (groups × requests), never by data size.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import trace

#: EnforcerAdded.kind values
MOTION = "Motion"
PARTITION_SELECTOR = "PartitionSelector"


def log() -> "OptimizerEventLog | None":
    """The active tracer's event log, or None when tracing is off."""
    tracer = trace.current()
    if tracer is None:
        return None
    return tracer.optimizer


@dataclass(frozen=True)
class GroupCreated:
    group_id: int
    rows_estimate: float


@dataclass(frozen=True)
class ExpressionAdded:
    group_id: int
    expression: str
    logical: bool


@dataclass(frozen=True)
class RuleFired:
    rule: str
    group_id: int


@dataclass(frozen=True)
class PropertyRequest:
    group_id: int
    request: str


@dataclass(frozen=True)
class EnforcerAdded:
    kind: str  # MOTION | PARTITION_SELECTOR
    group_id: int
    detail: str  # motion kind, or "part_scan <id>" for selectors
    placement: str  # "on_top" | "scan_unit" for selectors; "" for motions


@dataclass(frozen=True)
class WinnerCosted:
    group_id: int
    request: str
    cost: float
    kind: str  # BestInfo kind of the winner ("gexpr", "motion", ...)
    alternatives_pruned: int


class OptimizerEventLog:
    """Accumulates typed events for one optimization and summarises them."""

    def __init__(self):
        self.events: list = []
        #: wall time of the optimize phase, seconds (set by the optimizer)
        self.optimization_seconds: float | None = None

    # -- emission (one helper per event type keeps call sites short) -------

    def group_created(self, group_id: int, rows_estimate: float) -> None:
        self.events.append(GroupCreated(group_id, rows_estimate))

    def expression_added(
        self, group_id: int, expression: str, logical: bool
    ) -> None:
        self.events.append(ExpressionAdded(group_id, expression, logical))

    def rule_fired(self, rule: str, group_id: int) -> None:
        self.events.append(RuleFired(rule, group_id))

    def property_request(self, group_id: int, request: str) -> None:
        self.events.append(PropertyRequest(group_id, request))

    def enforcer_added(
        self, kind: str, group_id: int, detail: str, placement: str = ""
    ) -> None:
        self.events.append(EnforcerAdded(kind, group_id, detail, placement))

    def winner_costed(
        self,
        group_id: int,
        request: str,
        cost: float,
        kind: str,
        alternatives_pruned: int,
    ) -> None:
        self.events.append(
            WinnerCosted(group_id, request, cost, kind, alternatives_pruned)
        )

    def set_optimization_seconds(self, seconds: float) -> None:
        self.optimization_seconds = seconds

    # -- typed views --------------------------------------------------------

    def of_type(self, event_type: type) -> list:
        return [e for e in self.events if isinstance(e, event_type)]

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """The ``optimizer`` section of the metrics export (schema v3).

        All mappings are key-sorted so the export is deterministic.
        """
        rule_firings: dict[str, int] = {}
        for event in self.of_type(RuleFired):
            rule_firings[event.rule] = rule_firings.get(event.rule, 0) + 1
        enforcers = {MOTION: 0, PARTITION_SELECTOR: 0}
        selector_events = []
        for event in self.of_type(EnforcerAdded):
            enforcers[event.kind] = enforcers.get(event.kind, 0) + 1
            if event.kind == PARTITION_SELECTOR:
                selector_events.append(
                    {
                        "group_id": event.group_id,
                        "detail": event.detail,
                        "placement": event.placement,
                    }
                )
        winners = self.of_type(WinnerCosted)
        return {
            "groups": len(self.of_type(GroupCreated)),
            "group_expressions": len(self.of_type(ExpressionAdded)),
            "rule_firings": dict(sorted(rule_firings.items())),
            "property_requests": len(self.of_type(PropertyRequest)),
            "winners_costed": len(winners),
            "alternatives_pruned": sum(w.alternatives_pruned for w in winners),
            "enforcers": dict(sorted(enforcers.items())),
            "partition_selector_events": selector_events,
            "optimization_seconds": self.optimization_seconds,
        }

    def render(self) -> str:
        """Human-readable search summary (for ``EXPLAIN (TRACE)``)."""
        s = self.summary()
        lines = ["Search summary:"]
        lines.append(
            f"  groups: {s['groups']}, group expressions: "
            f"{s['group_expressions']}"
        )
        lines.append(
            f"  property requests: {s['property_requests']} "
            f"(winners costed: {s['winners_costed']}, alternatives "
            f"pruned: {s['alternatives_pruned']})"
        )
        if s["rule_firings"]:
            fired = ", ".join(
                f"{rule}={count}" for rule, count in s["rule_firings"].items()
            )
            lines.append(f"  rule firings: {fired}")
        enforcers = ", ".join(
            f"{kind}={count}" for kind, count in s["enforcers"].items()
        )
        lines.append(f"  enforcers: {enforcers}")
        for event in s["partition_selector_events"]:
            lines.append(
                f"    PartitionSelector at group {event['group_id']}: "
                f"{event['detail']} ({event['placement']})"
            )
        if s["optimization_seconds"] is not None:
            lines.append(
                f"  optimization time: "
                f"{s['optimization_seconds'] * 1000:.2f} ms"
            )
        return "\n".join(lines)
