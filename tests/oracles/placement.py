"""PartitionSelector placement — the paper's Section 2.3 algorithms.

Given a physical operator tree that contains DynamicScans but no
PartitionSelectors, compute where the selectors go:

* :func:`place_part_selectors` is **Algorithm 1** (``PlacePartSelectors``):
  initialise one :class:`PartSelectorSpec` per DynamicScan, then recurse,
  asking each operator which specs go *on top* of it and which are pushed
  to which child.
* :func:`_compute_default` is **Algorithm 2**: non-filtering operators
  (Project, GroupBy, Sort, Motion, ...) push each spec toward the child
  that defines its DynamicScan, or report it for enforcement on top.
* :func:`_compute_select` is **Algorithm 3**: Select additionally extracts
  partition-filtering predicates on the partitioning key(s) (via
  ``FindPredOnKey``) and augments the pushed spec with them — this is what
  turns a WHERE clause into static partition elimination.
* :func:`_compute_join` is **Algorithm 4**: if the DynamicScan lives in the
  join's **outer** (left, first-executed) child the spec is pushed there
  unchanged; if it lives in the **inner** child and the join predicate
  constrains the partitioning key, the spec — augmented with the join
  predicate — is pushed to the *outer* side, yielding dynamic partition
  elimination; otherwise it stays on the inner side.

Enforcement mirrors the paper's figures: a spec enforced on top of a
subtree becomes a pass-through PartitionSelector; a spec that reaches its
own DynamicScan becomes the ``Sequence(PartitionSelector, DynamicScan)``
pattern of Figure 5.  Predicates that reference columns not available at
the enforcement point (join-form predicates that ended up at the scan)
are dropped from the selector, degrading to "select all" — never unsound.

Multi-level partitioning (Section 2.4) is handled throughout by keeping
one optional predicate per partitioning level (Figure 11's extended
PartSelectorSpec).
"""

from __future__ import annotations

from repro.errors import OptimizerError
from repro.expr.analysis import conj, find_preds_on_keys
from repro.obs import opt_events
from repro.obs import trace as obs_trace
from repro.expr.ast import ColumnRef, Expression, column_refs
from repro.physical.ops import (
    DynamicScan,
    HashJoin,
    NLJoin,
    PartitionSelector,
    PhysicalOp,
    Sequence,
)
from repro.physical.properties import PartSelectorSpec

__all__ = [
    "initial_specs",
    "place_part_selectors",
]


def initial_specs(root: PhysicalOp) -> list[PartSelectorSpec]:
    """One empty-predicate spec per DynamicScan in the tree (the
    initialisation step described with Algorithm 1)."""
    specs = []
    for op in root.walk():
        if isinstance(op, DynamicScan):
            specs.append(
                PartSelectorSpec.for_table(op.part_scan_id, op.table, op.alias)
            )
    return specs


def place_part_selectors(
    root: PhysicalOp,
    specs: list[PartSelectorSpec] | None = None,
) -> PhysicalOp:
    """Algorithm 1: return a new tree with all PartitionSelectors placed."""
    if specs is None:
        specs = initial_specs(root)
    with obs_trace.span("place_partition_selectors", specs=len(specs)):
        placed = _place(root, specs)
    unresolved = [
        spec for spec in specs if not _has_part_scan_id(placed, spec.part_scan_id)
    ]
    if unresolved:
        raise OptimizerError(
            f"could not resolve PartitionSelectors for specs {unresolved!r}"
        )
    return placed


def _place(expr: PhysicalOp, input_specs: list[PartSelectorSpec]) -> PhysicalOp:
    if isinstance(expr, DynamicScan):
        return _enforce_at_scan(expr, input_specs)

    on_top, child_specs = _compute_part_selectors(expr, input_specs)
    new_children = [
        _place(child, specs)
        for child, specs in zip(expr.children, child_specs)
    ]
    result = expr.with_children(new_children) if expr.children else expr
    return _enforce_on_top(result, on_top)


def _enforce_on_top(
    expr: PhysicalOp, specs: list[PartSelectorSpec]
) -> PhysicalOp:
    """EnforcePartSelectors: wrap ``expr`` in pass-through selectors."""
    log = opt_events.log()
    for spec in specs:
        if log is not None:
            log.enforcer_added(
                opt_events.PARTITION_SELECTOR,
                -1,  # standalone placement runs outside any Memo group
                f"part_scan {spec.part_scan_id}",
                placement="on_top",
            )
        expr = PartitionSelector(_prune_unavailable(spec, expr), expr)
    return expr


def _enforce_at_scan(
    scan: DynamicScan, specs: list[PartSelectorSpec]
) -> PhysicalOp:
    """Specs arriving at a DynamicScan leaf.

    The scan's own spec becomes the ``Sequence(PartitionSelector,
    DynamicScan)`` pattern of Figure 5.  Foreign specs (routed here by a
    join because this subtree executes first) are enforced *on top* as
    pass-through selectors over the scan's tuple stream — the degenerate
    case of the paper's "on top" placement when the producer-side subtree
    is just a scan.
    """
    mine = [s for s in specs if s.part_scan_id == scan.part_scan_id]
    others = [s for s in specs if s.part_scan_id != scan.part_scan_id]
    if len(mine) > 1:
        raise OptimizerError(
            f"multiple specs for DynamicScan {scan.part_scan_id}"
        )
    result: PhysicalOp = scan
    if mine:
        spec = _constant_only(mine[0])
        log = opt_events.log()
        if log is not None:
            log.enforcer_added(
                opt_events.PARTITION_SELECTOR,
                -1,
                f"part_scan {spec.part_scan_id}",
                placement="scan_unit",
            )
        result = Sequence([PartitionSelector(spec), scan])
    return _enforce_on_top(result, others)


def _constant_only(spec: PartSelectorSpec) -> PartSelectorSpec:
    """Drop predicates that need streamed tuples (join-form) — a standalone
    selector under a Sequence has no input rows to evaluate them on."""
    predicates = []
    for key, predicate in zip(spec.part_keys, spec.part_predicates):
        if predicate is None or _references_only_key(predicate, key):
            predicates.append(predicate)
        else:
            predicates.append(None)
    return spec.with_predicates(predicates)


def _prune_unavailable(
    spec: PartSelectorSpec, child: PhysicalOp
) -> PartSelectorSpec:
    """Drop predicate parts whose non-key columns are not produced by the
    selector's input — they cannot be evaluated at this point."""
    layout = child.output_layout()
    predicates = []
    for key, predicate in zip(spec.part_keys, spec.part_predicates):
        if predicate is None:
            predicates.append(None)
            continue
        usable = all(
            ref.matches(key) or layout.has(ref)
            for ref in column_refs(predicate)
        )
        predicates.append(predicate if usable else None)
    return spec.with_predicates(predicates)


def _references_only_key(predicate: Expression, key: ColumnRef) -> bool:
    return all(ref.matches(key) for ref in column_refs(predicate))


def _has_part_scan_id(expr: PhysicalOp, part_scan_id: int) -> bool:
    """``Operator::HasPartScanId``: is the DynamicScan with this id in the
    subtree rooted at ``expr``?"""
    return any(
        isinstance(op, DynamicScan) and op.part_scan_id == part_scan_id
        for op in expr.walk()
    )


# ---------------------------------------------------------------------------
# ComputePartSelectors overloads
# ---------------------------------------------------------------------------


def _compute_part_selectors(
    expr: PhysicalOp, input_specs: list[PartSelectorSpec]
) -> tuple[list[PartSelectorSpec], list[list[PartSelectorSpec]]]:
    """Dispatch to the operator-specific overload.  Returns
    ``(partSelectorsOnTop, childPartSelectors)``."""
    if isinstance(expr, (HashJoin, NLJoin)):
        return _compute_join(expr, input_specs)
    from repro.physical.ops import Filter

    if isinstance(expr, Filter):
        return _compute_select(expr, input_specs)
    return _compute_default(expr, input_specs)


def _compute_default(
    expr: PhysicalOp, input_specs: list[PartSelectorSpec]
) -> tuple[list[PartSelectorSpec], list[list[PartSelectorSpec]]]:
    """Algorithm 2: push each spec to the child defining its DynamicScan."""
    on_top: list[PartSelectorSpec] = []
    child_specs: list[list[PartSelectorSpec]] = [[] for _ in expr.children]
    for spec in input_specs:
        placed = False
        for i, child in enumerate(expr.children):
            if _has_part_scan_id(child, spec.part_scan_id):
                child_specs[i].append(spec)
                placed = True
                break
        if not placed:
            on_top.append(spec)
    return on_top, child_specs


def _compute_select(
    expr: "PhysicalOp", input_specs: list[PartSelectorSpec]
) -> tuple[list[PartSelectorSpec], list[list[PartSelectorSpec]]]:
    """Algorithm 3: augment pushed specs with partition-filtering
    predicates extracted from the Select's predicate."""
    on_top: list[PartSelectorSpec] = []
    child_specs: list[list[PartSelectorSpec]] = [[]]
    child = expr.children[0]
    for spec in input_specs:
        if not _has_part_scan_id(child, spec.part_scan_id):
            on_top.append(spec)
            continue
        key_preds = find_preds_on_keys(expr.predicate, spec.part_keys)
        if any(p is not None for p in key_preds):
            merged = [
                conj([extracted, existing])
                for extracted, existing in zip(key_preds, spec.part_predicates)
            ]
            child_specs[0].append(spec.with_predicates(merged))
        else:
            child_specs[0].append(spec)
    return on_top, child_specs


def _compute_join(
    expr: "HashJoin | NLJoin", input_specs: list[PartSelectorSpec]
) -> tuple[list[PartSelectorSpec], list[list[PartSelectorSpec]]]:
    """Algorithm 4.  Child 0 is the outer (first-executed) side."""
    on_top: list[PartSelectorSpec] = []
    child_specs: list[list[PartSelectorSpec]] = [[], []]
    outer, inner = expr.children
    predicate = _join_predicate(expr)
    for spec in input_specs:
        in_outer = _has_part_scan_id(outer, spec.part_scan_id)
        in_inner = _has_part_scan_id(inner, spec.part_scan_id)
        if not in_outer and not in_inner:
            on_top.append(spec)
            continue
        if in_outer:
            child_specs[0].append(spec)
            continue
        key_preds = find_preds_on_keys(predicate, spec.part_keys)
        if all(p is None for p in key_preds):
            child_specs[1].append(spec)
            continue
        merged = [
            conj([extracted, existing])
            for extracted, existing in zip(key_preds, spec.part_predicates)
        ]
        child_specs[0].append(spec.with_predicates(merged))
    return on_top, child_specs


def _join_predicate(expr: "HashJoin | NLJoin") -> Expression | None:
    if isinstance(expr, NLJoin):
        return expr.predicate
    equalities: list[Expression] = [
        _eq(b, p) for b, p in zip(expr.build_keys, expr.probe_keys)
    ]
    if expr.residual is not None:
        equalities.append(expr.residual)
    return conj(equalities)


def _eq(left: Expression, right: Expression) -> Expression:
    from repro.expr.ast import Comparison

    return Comparison("=", left, right)
