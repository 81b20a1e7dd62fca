"""Physical plan operators.

The operator set follows the paper:

* ``DynamicScan`` / ``PartitionSelector`` / ``Sequence`` — the partitioned
  table query model of Section 2.2 (producer/consumer over an OID channel).
* ``GatherMotion`` / ``RedistributeMotion`` / ``BroadcastMotion`` — the MPP
  Motion operators of Section 3.1 (process boundaries between slices).
* ``LeafScan`` + ``Append`` — how the legacy Planner represents partitioned
  scans: every leaf partition enumerated explicitly in the plan, which is
  what makes Planner plan size grow with the partition count (Section 4.4).
  A ``LeafScan`` may carry a ``guard_scan_id``: Planner's rudimentary
  dynamic elimination checks the leaf's OID against a run-time OID set
  before scanning (the "parameter" mechanism of Section 4.4.2).
* Conventional operators: Filter, Project, HashJoin, NLJoin, HashAgg, Sort,
  Limit, Update.

**Execution-order convention**: the left child of every join is executed to
completion before the right child starts (hash join: left = build side).
This realises the paper's "implicit execution order of join children (left
to right)" and is what makes a PartitionSelector on the left side a valid
producer for a DynamicScan on the right side.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..catalog import TableDescriptor
from ..expr.ast import AggCall, ColumnRef, Expression
from ..expr.eval import RowLayout
from .properties import DispatchSpec, DistributionSpec, PartSelectorSpec


class PhysicalOp:
    """Base class for physical plan operators."""

    children: tuple["PhysicalOp", ...] = ()
    #: delivered distribution, filled in by the optimizer (explain only)
    distribution: DistributionSpec | None = None
    #: cardinality estimate, filled in by the optimizer (explain only)
    estimated_rows: float | None = None

    def output_layout(self) -> RowLayout:
        raise NotImplementedError

    def walk(self) -> Iterator["PhysicalOp"]:
        yield self
        for child in self.children:
            yield from child.walk()

    @property
    def name(self) -> str:
        return type(self).__name__

    def describe(self) -> str:
        return ""

    def serial_fields(self) -> dict:
        """Operator-specific attributes included in the serialized plan.

        The serialized form is the basis of the paper's plan-size metric
        (Section 4.4); fields must therefore reflect everything a real
        system would ship to segments for this node.
        """
        return {}

    def with_children(self, children: Sequence["PhysicalOp"]) -> "PhysicalOp":
        """Shallow copy with new children (used by plan rewrites)."""
        import copy

        clone = copy.copy(self)
        clone.children = tuple(children)
        return clone


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


class Scan(PhysicalOp):
    """Full scan of an unpartitioned table (each segment scans local rows)."""

    def __init__(self, table: TableDescriptor, alias: str):
        self.table = table
        self.alias = alias

    def output_layout(self) -> RowLayout:
        return RowLayout.for_table(self.alias, self.table.schema.column_names)

    def describe(self) -> str:
        return self.table.name if self.alias == self.table.name else (
            f"{self.table.name} AS {self.alias}"
        )

    def serial_fields(self) -> dict:
        return {"table_oid": self.table.oid, "alias": self.alias}


class LeafScan(PhysicalOp):
    """Scan of one explicitly named leaf partition (Planner-style plans).

    ``guard_scan_id`` marks Planner's parameter-based dynamic elimination:
    at run time the leaf is skipped unless its OID appears in the OID set
    computed for that scan id.
    """

    def __init__(
        self,
        table: TableDescriptor,
        alias: str,
        leaf_oid: int,
        guard_scan_id: int | None = None,
    ):
        self.table = table
        self.alias = alias
        self.leaf_oid = leaf_oid
        self.guard_scan_id = guard_scan_id

    def output_layout(self) -> RowLayout:
        return RowLayout.for_table(self.alias, self.table.schema.column_names)

    def describe(self) -> str:
        guard = (
            f", guarded by scan {self.guard_scan_id}"
            if self.guard_scan_id is not None
            else ""
        )
        return f"{self.table.name} leaf oid={self.leaf_oid}{guard}"

    def serial_fields(self) -> dict:
        fields = {
            "table_oid": self.table.oid,
            "alias": self.alias,
            "leaf_oid": self.leaf_oid,
            # A real executor ships the leaf's physical locator and check
            # constraint text with each explicitly listed partition.
            "leaf_name": self.table.partition_scheme.leaf_name(  # type: ignore[union-attr]
                self.table.leaf_id(self.leaf_oid)
            ),
        }
        if self.guard_scan_id is not None:
            fields["guard_scan_id"] = self.guard_scan_id
        return fields


class EmptyScan(PhysicalOp):
    """A scan that produces no rows: the plan-time result of static
    elimination pruning *every* partition (predicate disjoint from the
    whole table)."""

    def __init__(self, table: TableDescriptor, alias: str):
        self.table = table
        self.alias = alias

    def output_layout(self) -> RowLayout:
        return RowLayout.for_table(self.alias, self.table.schema.column_names)

    def describe(self) -> str:
        return f"{self.table.name} AS {self.alias} (no partitions selected)"

    def serial_fields(self) -> dict:
        return {"table_oid": self.table.oid, "alias": self.alias}


class DynamicScan(PhysicalOp):
    """Scan of a partitioned table driven by run-time partition OIDs
    (Section 2.2).  Consumes OIDs from the PartitionSelector with the same
    ``part_scan_id``; the plan never enumerates the partitions."""

    def __init__(self, table: TableDescriptor, alias: str, part_scan_id: int):
        self.table = table
        self.alias = alias
        self.part_scan_id = part_scan_id

    def output_layout(self) -> RowLayout:
        return RowLayout.for_table(self.alias, self.table.schema.column_names)

    def describe(self) -> str:
        return f"{self.part_scan_id}, {self.table.name} AS {self.alias}"

    def serial_fields(self) -> dict:
        return {
            "table_oid": self.table.oid,
            "alias": self.alias,
            "part_scan_id": self.part_scan_id,
        }


class PartitionSelector(PhysicalOp):
    """Computes partition OIDs for a DynamicScan (Section 2.2).

    With no child it is a standalone producer (run under a Sequence before
    the consumer).  With a child it is a pass-through: tuples flow
    unchanged while the selector applies its predicates — per-tuple for
    join predicates (dynamic elimination), once for constant predicates.
    """

    def __init__(
        self,
        spec: PartSelectorSpec,
        child: PhysicalOp | None = None,
    ):
        self.spec = spec
        self.children = (child,) if child is not None else ()

    @property
    def part_scan_id(self) -> int:
        return self.spec.part_scan_id

    @property
    def table(self) -> TableDescriptor:
        return self.spec.table

    def output_layout(self) -> RowLayout:
        if self.children:
            return self.children[0].output_layout()
        return RowLayout(())

    def describe(self) -> str:
        return repr(self.spec)

    def serial_fields(self) -> dict:
        return {
            "part_scan_id": self.spec.part_scan_id,
            "table_oid": self.spec.table.oid,
            "part_keys": [repr(k) for k in self.spec.part_keys],
            "part_predicates": [
                None if p is None else repr(p)
                for p in self.spec.part_predicates
            ],
        }


class Sequence(PhysicalOp):
    """Executes children left to right, returns the last child's rows
    (Section 2.2)."""

    def __init__(self, children: Sequence[PhysicalOp]):
        if len(children) < 2:
            raise ValueError("Sequence needs at least two children")
        self.children = tuple(children)

    def output_layout(self) -> RowLayout:
        return self.children[-1].output_layout()


# ---------------------------------------------------------------------------
# Row-at-a-time operators
# ---------------------------------------------------------------------------


class Filter(PhysicalOp):
    """Pass rows satisfying a predicate."""

    def __init__(self, child: PhysicalOp, predicate: Expression):
        self.children = (child,)
        self.predicate = predicate

    def output_layout(self) -> RowLayout:
        return self.children[0].output_layout()

    def describe(self) -> str:
        return repr(self.predicate)

    def serial_fields(self) -> dict:
        return {"predicate": repr(self.predicate)}


class Project(PhysicalOp):
    """Compute output columns ``(expression, name)``."""

    def __init__(
        self, child: PhysicalOp, items: Sequence[tuple[Expression, str]]
    ):
        self.children = (child,)
        self.items: tuple[tuple[Expression, str], ...] = tuple(items)

    def output_layout(self) -> RowLayout:
        return RowLayout([(None, name) for _, name in self.items])

    def describe(self) -> str:
        return ", ".join(f"{expr!r} AS {name}" for expr, name in self.items)

    def serial_fields(self) -> dict:
        return {"items": [f"{e!r} AS {n}" for e, n in self.items]}


class HashJoin(PhysicalOp):
    """Hash join; **left child = build side** (executed first), right child
    = probe side.  Inner joins emit build_row ++ probe_row; semi joins emit
    the probe row when at least one build row matches."""

    def __init__(
        self,
        kind: str,
        build: PhysicalOp,
        probe: PhysicalOp,
        build_keys: Sequence[Expression],
        probe_keys: Sequence[Expression],
        residual: Expression | None = None,
    ):
        if kind not in ("inner", "semi"):
            raise ValueError(f"unsupported hash join kind {kind!r}")
        if len(build_keys) != len(probe_keys) or not build_keys:
            raise ValueError("hash join needs matching, non-empty key lists")
        self.kind = kind
        self.children = (build, probe)
        self.build_keys: tuple[Expression, ...] = tuple(build_keys)
        self.probe_keys: tuple[Expression, ...] = tuple(probe_keys)
        self.residual = residual

    @property
    def build(self) -> PhysicalOp:
        return self.children[0]

    @property
    def probe(self) -> PhysicalOp:
        return self.children[1]

    def output_layout(self) -> RowLayout:
        if self.kind == "semi":
            return self.probe.output_layout()
        return self.build.output_layout().concat(self.probe.output_layout())

    def describe(self) -> str:
        keys = ", ".join(
            f"{b!r}={p!r}" for b, p in zip(self.build_keys, self.probe_keys)
        )
        res = f", residual {self.residual!r}" if self.residual else ""
        return f"{self.kind}, {keys}{res}"

    def serial_fields(self) -> dict:
        return {
            "kind": self.kind,
            "keys": [
                f"{b!r}={p!r}"
                for b, p in zip(self.build_keys, self.probe_keys)
            ],
            "residual": repr(self.residual) if self.residual else None,
        }


class NLJoin(PhysicalOp):
    """Block nested-loop join; left child (outer) is materialized first,
    preserving the left-before-right execution order."""

    def __init__(
        self,
        kind: str,
        outer: PhysicalOp,
        inner: PhysicalOp,
        predicate: Expression | None,
    ):
        if kind not in ("inner", "semi"):
            raise ValueError(f"unsupported NL join kind {kind!r}")
        self.kind = kind
        self.children = (outer, inner)
        self.predicate = predicate

    @property
    def outer(self) -> PhysicalOp:
        return self.children[0]

    @property
    def inner(self) -> PhysicalOp:
        return self.children[1]

    def output_layout(self) -> RowLayout:
        if self.kind == "semi":
            return self.outer.output_layout()
        return self.outer.output_layout().concat(self.inner.output_layout())

    def describe(self) -> str:
        return f"{self.kind}, {self.predicate!r}"

    def serial_fields(self) -> dict:
        return {
            "kind": self.kind,
            "predicate": repr(self.predicate) if self.predicate else None,
        }


class HashAgg(PhysicalOp):
    """Hash aggregation; empty ``group_keys`` = scalar aggregation."""

    def __init__(
        self,
        child: PhysicalOp,
        group_keys: Sequence[ColumnRef],
        aggregates: Sequence[tuple[AggCall, str]],
        mode: str = "single",
    ):
        if mode not in ("single", "partial", "final"):
            raise ValueError(f"unknown agg mode {mode!r}")
        self.children = (child,)
        self.group_keys: tuple[ColumnRef, ...] = tuple(group_keys)
        self.aggregates: tuple[tuple[AggCall, str], ...] = tuple(aggregates)
        self.mode = mode

    def output_layout(self) -> RowLayout:
        slots: list[tuple[str | None, str]] = [
            (key.qualifier, key.name) for key in self.group_keys
        ]
        slots.extend((None, name) for _, name in self.aggregates)
        return RowLayout(slots)

    def describe(self) -> str:
        keys = ", ".join(repr(k) for k in self.group_keys)
        aggs = ", ".join(f"{a!r} AS {n}" for a, n in self.aggregates)
        mode = "" if self.mode == "single" else f"{self.mode}, "
        return f"{mode}keys=[{keys}], aggs=[{aggs}]"

    def serial_fields(self) -> dict:
        return {
            "mode": self.mode,
            "group_keys": [repr(k) for k in self.group_keys],
            "aggregates": [f"{a!r} AS {n}" for a, n in self.aggregates],
        }


class Sort(PhysicalOp):
    """Full sort by ``(expression, ascending)`` keys."""

    def __init__(
        self, child: PhysicalOp, keys: Sequence[tuple[Expression, bool]]
    ):
        self.children = (child,)
        self.keys: tuple[tuple[Expression, bool], ...] = tuple(keys)

    def output_layout(self) -> RowLayout:
        return self.children[0].output_layout()

    def describe(self) -> str:
        return ", ".join(
            f"{e!r} {'ASC' if asc else 'DESC'}" for e, asc in self.keys
        )

    def serial_fields(self) -> dict:
        return {
            "keys": [f"{e!r} {'ASC' if asc else 'DESC'}" for e, asc in self.keys]
        }


class Limit(PhysicalOp):
    """Keep the first ``count`` rows."""

    def __init__(self, child: PhysicalOp, count: int):
        self.children = (child,)
        self.count = count

    def output_layout(self) -> RowLayout:
        return self.children[0].output_layout()

    def describe(self) -> str:
        return str(self.count)

    def serial_fields(self) -> dict:
        return {"count": self.count}


class Append(PhysicalOp):
    """Concatenation of children with identical layouts (Planner's
    representation of a partitioned scan: one child per listed leaf)."""

    def __init__(self, children: Sequence[PhysicalOp]):
        if not children:
            raise ValueError("Append needs at least one child")
        self.children = tuple(children)

    def output_layout(self) -> RowLayout:
        return self.children[0].output_layout()

    def describe(self) -> str:
        return f"{len(self.children)} children"


# ---------------------------------------------------------------------------
# Motions (Section 3.1) — process/slice boundaries
# ---------------------------------------------------------------------------


class Motion(PhysicalOp):
    """Base class for motions: the boundary between two active processes
    potentially on different hosts.  Slicing cuts plans at Motion nodes."""

    #: direct dispatch: the restriction of the sending slice to the
    #: segments its distribution-key predicate hashes to.  Derived from the
    #: slice by :class:`~repro.physical.plan.Plan`, shown by EXPLAIN, and
    #: not part of the serialized plan (the segments are computed from the
    #: parameter vector at execution).
    dispatch: DispatchSpec | None = None

    def __init__(self, child: PhysicalOp):
        self.children = (child,)

    def output_layout(self) -> RowLayout:
        return self.children[0].output_layout()

    def describe(self) -> str:
        if self.dispatch is None:
            return ""
        return f"direct dispatch: {self.dispatch!r}"


class GatherMotion(Motion):
    """Gather all segments' rows to the single coordinator process."""


class BroadcastMotion(Motion):
    """Replicate every input row to every segment."""


class RedistributeMotion(Motion):
    """Re-hash rows to segments by the given key expressions."""

    def __init__(self, child: PhysicalOp, hash_exprs: Sequence[Expression]):
        super().__init__(child)
        if not hash_exprs:
            raise ValueError("redistribute needs hash expressions")
        self.hash_exprs: tuple[Expression, ...] = tuple(hash_exprs)

    def describe(self) -> str:
        exprs = ", ".join(repr(e) for e in self.hash_exprs)
        dispatch = super().describe()
        return f"{exprs}; {dispatch}" if dispatch else exprs

    def serial_fields(self) -> dict:
        return {"hash_exprs": [repr(e) for e in self.hash_exprs]}


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------


class Delete(PhysicalOp):
    """Delete each input row from the target table.

    The child layout must expose the full target row under
    ``target_alias``; rows are located via ``f_T`` and the distribution
    hash.  Emits a single count row from the coordinator.
    """

    def __init__(
        self,
        child: PhysicalOp,
        target: TableDescriptor,
        target_alias: str,
    ):
        self.children = (child,)
        self.target = target
        self.target_alias = target_alias

    def output_layout(self) -> RowLayout:
        return RowLayout([(None, "deleted")])

    def describe(self) -> str:
        return self.target.name

    def serial_fields(self) -> dict:
        return {"table_oid": self.target.oid}


class Update(PhysicalOp):
    """Apply SET assignments to the target table for each input row.

    The child layout must expose the full target row under ``target_alias``;
    updated rows are re-routed through ``f_T`` (an update may move a row to
    a different partition and, for distribution-key updates, to a different
    segment).  Emits a single count row from the coordinator.
    """

    def __init__(
        self,
        child: PhysicalOp,
        target: TableDescriptor,
        target_alias: str,
        assignments: Sequence[tuple[str, Expression]],
    ):
        self.children = (child,)
        self.target = target
        self.target_alias = target_alias
        self.assignments: tuple[tuple[str, Expression], ...] = tuple(assignments)

    def output_layout(self) -> RowLayout:
        return RowLayout([(None, "updated")])

    def describe(self) -> str:
        sets = ", ".join(f"{c}={e!r}" for c, e in self.assignments)
        return f"{self.target.name} SET {sets}"

    def serial_fields(self) -> dict:
        return {
            "table_oid": self.target.oid,
            "assignments": [f"{c}={e!r}" for c, e in self.assignments],
        }
