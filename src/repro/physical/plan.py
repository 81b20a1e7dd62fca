"""Plan wrapper: explain, canonical serialization, size metrics, validation.

Two structural invariants from the paper are enforced here:

1. **Pairing** — every DynamicScan (and every guarded LeafScan) has a
   PartitionSelector producer with the same part scan id, and vice versa.
2. **Motion interaction** (Figure 12) — no Motion may sit between a
   PartitionSelector, its DynamicScan, and their lowest common ancestor,
   because the pair communicates through process-local shared memory.

Validation additionally simulates the engine's execution order (children
left to right; a streaming PartitionSelector finishes producing only when
its input is exhausted) and rejects plans where a consumer would start
before its producer has finished — e.g. a PartitionSelector placed on the
*inner* side of a join whose consumer is on the outer side.

The **plan size metric** of Section 4.4 is the length of the canonical
serialized plan.  ``size_bytes`` measures the pure plan;
``dispatched_size_bytes`` adds the partition-metadata annex that a real
system ships to segment nodes for the partition-selection built-ins — the
paper notes this annex is why Orca's *measured* plan size still shows a
slight dependence on the partition count (Section 4.4.2).
"""

from __future__ import annotations

import json
from typing import Iterator

from ..catalog import DistributionPolicy
from ..errors import InvalidPlanError
from ..expr.analysis import conj, conjuncts, pins_key
from ..expr.ast import ColumnRef, Expression, column_refs
from .ops import (
    Delete,
    DynamicScan,
    Filter,
    GatherMotion,
    HashAgg,
    LeafScan,
    Limit,
    Motion,
    PartitionSelector,
    PhysicalOp,
    Project,
    Scan,
    Sort,
    Update,
)
from .properties import DispatchSpec, PartSelectorSpec


def _producer_id(op: PhysicalOp) -> int | None:
    """The part scan id this operator produces OIDs for, if any.

    PartitionSelector is the engine's producer; any other operator that
    feeds an OID channel (the Section 3.2 lowering oracle's) exposes
    ``produces_part_scan_id`` instead.  Plan validation and the executor's
    retry scoping both ask here.
    """
    if isinstance(op, PartitionSelector):
        return op.part_scan_id
    return getattr(op, "produces_part_scan_id", None)


def _producer_is_streaming(op: PhysicalOp) -> bool:
    if isinstance(op, PartitionSelector):
        return bool(op.children) and _is_streaming_selector(op.spec)
    return bool(getattr(op, "streaming_producer", False))


def _is_streaming_selector(spec: PartSelectorSpec) -> bool:
    """Whether the selector's predicates reference streamed (non-key)
    columns — i.e. dynamic, per-tuple partition selection."""
    for key, predicate in zip(spec.part_keys, spec.part_predicates):
        if predicate is None:
            continue
        for ref in column_refs(predicate):
            if not ref.matches(key):
                return True
    return False


def _reads_only_replicated(root: PhysicalOp) -> bool:
    """Whether every segment's instance of the slice rooted at ``root``
    computes the same rows: no Motion feeds it, and every leaf is a scan of
    a replicated table (or a childless PartitionSelector, which reads
    none).  Joins, aggregates and sorts over equal inputs are equal."""
    for op in root.walk():
        if isinstance(op, Motion):
            return False
        if op.children or isinstance(op, PartitionSelector):
            continue
        if not isinstance(op, (Scan, LeafScan, DynamicScan)) or (
            op.table.distribution.kind != DistributionPolicy.REPLICATED
        ):
            return False
    return True


def _slice_dispatch(root: PhysicalOp, gathered: bool) -> DispatchSpec | None:
    """The direct-dispatch restriction of the slice rooted at ``root`` (a
    Motion's child; ``gathered``: that Motion is a Gather), or ``None``
    when the slice must run everywhere.

    Two slices are provable.  Below a Gather, one that reads nothing but
    replicated tables (a scan, or a join of them): every segment would
    send the same rows and one of them must.  And the plainest slice over
    a hash-distributed table: a chain of unary operators over one scan,
    with filters directly on the scan that pin the distribution column to
    a finite point set.  There a join, a Motion input, a Sequence or an
    Append, or a filter above a projection or aggregate (whose column
    names are no longer the table's) all leave the slice dispatched
    everywhere.
    """
    if gathered and _reads_only_replicated(root):
        return DispatchSpec.one_copy()
    predicates: list[Expression] = []
    op = root
    while not isinstance(op, (Scan, DynamicScan)):
        if len(op.children) != 1 or not isinstance(
            op, (Filter, PartitionSelector, Project, HashAgg, Sort, Limit)
        ):
            return None
        if isinstance(op, Filter):
            predicates.append(op.predicate)
        elif not isinstance(op, PartitionSelector):
            predicates.clear()
        op = op.children[0]
    policy = op.table.distribution
    if policy.kind != DistributionPolicy.HASHED:
        return None
    key = ColumnRef(policy.column, op.alias)
    pinned = [
        conjunct
        for predicate in predicates
        for conjunct in conjuncts(predicate)
        if pins_key(conjunct, key)
    ]
    if not pinned:
        return None
    key_type = op.table.schema.column(policy.column).data_type
    return DispatchSpec(key, key_type, conj(pinned))


class Plan:
    """A complete physical plan."""

    def __init__(self, root: PhysicalOp, parameter_count: int = 0):
        self.root = root
        self.parameter_count = parameter_count
        # Direct dispatch is read off the finished tree, so every producer
        # of plans (Orca, the Planner, a test oracle's rewrite or
        # hand-built tree) gets it the same way.  DML dispatches everywhere.
        ops = list(self.walk())
        is_dml = any(isinstance(op, (Update, Delete)) for op in ops)
        for op in ops:
            if isinstance(op, Motion):
                op.dispatch = (
                    None
                    if is_dml
                    else _slice_dispatch(
                        op.children[0], isinstance(op, GatherMotion)
                    )
                )

    # -- inspection -----------------------------------------------------------

    def walk(self) -> Iterator[PhysicalOp]:
        return self.root.walk()

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def explain(self) -> str:
        lines: list[str] = []

        def emit(op: PhysicalOp, indent: int) -> None:
            line = "  " * indent + op.name
            detail = op.describe()
            if detail:
                line += f" ({detail})"
            if op.distribution is not None:
                line += f" [{op.distribution!r}]"
            if op.estimated_rows is not None:
                line += f" rows≈{op.estimated_rows:.0f}"
            lines.append(line)
            for child in op.children:
                emit(child, indent + 1)

        emit(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Plan:\n{self.explain()}"

    # -- serialization and size metrics -------------------------------------

    def to_dict(self) -> dict:
        def convert(op: PhysicalOp) -> dict:
            node = {"op": op.name}
            node.update(op.serial_fields())
            if op.children:
                node["children"] = [convert(c) for c in op.children]
            return node

        return convert(self.root)

    def serialize(self) -> str:
        """Canonical compact JSON rendering of the plan."""
        return json.dumps(self.to_dict(), separators=(",", ":"), default=str)

    def size_bytes(self) -> int:
        """Size of the pure plan — the paper's plan-size metric."""
        return len(self.serialize().encode("utf-8"))

    def metadata_annex(self) -> dict:
        """Partition metadata shipped alongside the plan.

        For each partitioned table touched through the dynamic-scan
        machinery, the segment-side partition-selection built-ins (paper
        Table 1) need the leaf OIDs and their check constraints.
        """
        tables = {}
        for op in self.walk():
            if isinstance(op, (DynamicScan, PartitionSelector)):
                table = op.table
                if table.oid in tables or not table.is_partitioned:
                    continue
                scheme = table.partition_scheme
                assert scheme is not None
                leaves = []
                for leaf in scheme.leaf_ids():
                    leaves.append(
                        {
                            "oid": table.leaf_oid(leaf),
                            "name": scheme.leaf_name(leaf),
                            "constraints": {
                                key: repr(cons)
                                for key, cons in scheme.leaf_constraints(
                                    leaf
                                ).items()
                            },
                        }
                    )
                tables[table.oid] = {"table": table.name, "leaves": leaves}
        return tables

    def dispatched_size_bytes(self) -> int:
        """Plan size including the partition-metadata annex (what actually
        travels to segment nodes)."""
        annex = json.dumps(
            self.metadata_annex(), separators=(",", ":"), default=str
        )
        return self.size_bytes() + len(annex.encode("utf-8"))

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants; raises :class:`InvalidPlanError`."""
        self._check_pairing()
        self._check_motion_rule(self.root)
        self._check_execution_order()

    def _check_pairing(self) -> None:
        producers: dict[int, int] = {}
        consumers: dict[int, int] = {}
        for op in self.walk():
            produced_id = _producer_id(op)
            if produced_id is not None:
                producers[produced_id] = producers.get(produced_id, 0) + 1
            elif isinstance(op, DynamicScan):
                consumers[op.part_scan_id] = (
                    consumers.get(op.part_scan_id, 0) + 1
                )
            elif isinstance(op, LeafScan) and op.guard_scan_id is not None:
                # All guarded leaves of one Append share one producer.
                consumers.setdefault(op.guard_scan_id, 1)
        missing = sorted(set(consumers) - set(producers))
        if missing:
            raise InvalidPlanError(
                f"DynamicScan(s) {missing} have no PartitionSelector producer"
            )
        orphaned = sorted(set(producers) - set(consumers))
        if orphaned:
            raise InvalidPlanError(
                f"PartitionSelector(s) {orphaned} have no consumer"
            )
        doubled = sorted(k for k, v in consumers.items() if v > 1)
        if doubled:
            raise InvalidPlanError(
                f"part scan id(s) {doubled} used by multiple DynamicScans"
            )

    def _check_motion_rule(self, op: PhysicalOp) -> dict[int, list[int]]:
        """Bottom-up count of producers/consumers per scan id; at every
        Motion, each id seen below must be fully paired below it."""
        counts: dict[int, list[int]] = {}
        for child in op.children:
            for scan_id, (prod, cons) in self._check_motion_rule(child).items():
                entry = counts.setdefault(scan_id, [0, 0])
                entry[0] += prod
                entry[1] += cons

        produced_id = _producer_id(op)
        if produced_id is not None:
            counts.setdefault(produced_id, [0, 0])[0] += 1
        elif isinstance(op, DynamicScan):
            counts.setdefault(op.part_scan_id, [0, 0])[1] += 1
        elif isinstance(op, LeafScan) and op.guard_scan_id is not None:
            counts.setdefault(op.guard_scan_id, [0, 0])[1] += 1

        if isinstance(op, Motion):
            for scan_id, (prod, cons) in counts.items():
                if (prod > 0) != (cons > 0):
                    role = "producer" if prod else "consumer"
                    raise InvalidPlanError(
                        f"{op.name} separates the {role} of part scan "
                        f"{scan_id} from its peer (paper Figure 12)"
                    )
        return {k: list(v) for k, v in counts.items()}

    def _check_execution_order(self) -> None:
        """Every producer must finish before its consumer starts, under the
        engine's left-to-right execution order."""
        events: list[tuple[str, int]] = []

        def simulate(op: PhysicalOp) -> None:
            produced_id = _producer_id(op)
            if produced_id is not None:
                if op.children and _producer_is_streaming(op):
                    simulate(op.children[0])
                    events.append(("produce", produced_id))
                else:
                    events.append(("produce", produced_id))
                    for child in op.children:
                        simulate(child)
                return
            if isinstance(op, DynamicScan):
                events.append(("consume", op.part_scan_id))
                return
            if isinstance(op, LeafScan) and op.guard_scan_id is not None:
                events.append(("consume", op.guard_scan_id))
                return
            for child in op.children:
                simulate(child)

        simulate(self.root)
        produced: set[int] = set()
        for kind, scan_id in events:
            if kind == "produce":
                produced.add(scan_id)
            elif scan_id not in produced:
                raise InvalidPlanError(
                    f"consumer of part scan {scan_id} would execute before "
                    f"its PartitionSelector finishes producing"
                )
