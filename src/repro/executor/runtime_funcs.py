"""The built-in partition selection functions of the paper's Table 1.

These are the run-time face of the partitioning metadata; the
PartitionSelector iterator is implemented on top of them.  GPDB's
Section 3.2 lowering exposes them as explicit plan operators instead
(Figure 15); that form is a test oracle, ``tests/oracles/lowering.py``.

===========================  ====================================================
function                     description (paper Table 1)
===========================  ====================================================
``partition_expansion``      set of all child partition OIDs for a root OID
``partition_selection``      OID of the child partition containing the given
                             value(s) for the partitioning key(s)
``partition_constraints``    child partition OIDs with their range constraints
``partition_propagation``    push a leaf mask (:mod:`repro.catalog.catalog`)
                             to the DynamicScan with the given id
===========================  ====================================================
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

from ..catalog import Catalog
from ..errors import PartitionError
from .context import ExecContext


def partition_expansion(catalog: Catalog, root_oid: int) -> list[int]:
    """All child partition OIDs of the partitioned table ``root_oid``."""
    table = catalog.table_by_oid(root_oid)
    if not table.is_partitioned:
        raise PartitionError(f"table {table.name!r} is not partitioned")
    return table.all_leaf_oids()


def partition_selection(
    catalog: Catalog, root_oid: int, values: Sequence[Any] | Any
) -> int | None:
    """OID of the child partition containing ``values`` for the partition
    key(s); ``None`` for the invalid partition ⊥.

    Accepts a single value for single-level tables or one value per level
    for multi-level tables.
    """
    table = catalog.table_by_oid(root_oid)
    scheme = table.partition_scheme
    if scheme is None:
        raise PartitionError(f"table {table.name!r} is not partitioned")
    if not isinstance(values, (list, tuple)):
        values = [values]
    if len(values) != scheme.num_levels:
        raise PartitionError(
            f"partition_selection expects {scheme.num_levels} value(s), "
            f"got {len(values)}"
        )
    leaf = scheme.route(dict(zip(scheme.keys, values)))
    if leaf is None:
        return None
    return table.leaf_oid(leaf)


class PartitionConstraint(NamedTuple):
    """One row of ``partition_constraints`` output: a leaf OID with one
    (min, max) interval per partitioning level."""

    oid: int
    min_values: tuple
    min_inclusive: tuple[bool, ...]
    max_values: tuple
    max_inclusive: tuple[bool, ...]


def partition_constraints(
    catalog: Catalog, root_oid: int
) -> list[PartitionConstraint]:
    """Child partition OIDs with their per-level range constraints.

    For constraints that are unions of several intervals only the overall
    envelope (min of mins, max of maxes) is reported, matching the shape of
    the paper's built-in.
    """
    table = catalog.table_by_oid(root_oid)
    scheme = table.partition_scheme
    if scheme is None:
        raise PartitionError(f"table {table.name!r} is not partitioned")
    results = []
    for leaf in scheme.leaf_ids():
        mins, min_inc, maxs, max_inc = [], [], [], []
        for level, slot_idx in zip(scheme.levels, leaf):
            constraint = level.slots[slot_idx].constraint
            first = constraint.intervals[0]
            last = constraint.intervals[-1]
            mins.append(first.lo)
            min_inc.append(first.lo_inclusive)
            maxs.append(last.hi)
            max_inc.append(last.hi_inclusive)
        results.append(
            PartitionConstraint(
                table.leaf_oid(leaf),
                tuple(mins),
                tuple(min_inc),
                tuple(maxs),
                tuple(max_inc),
            )
        )
    return results


def partition_propagation(
    ctx: ExecContext,
    part_scan_id: int,
    segment: int,
    mask: int,
    pairs: int | None = None,
) -> None:
    """Push the leaves of ``mask`` to the DynamicScan with ``part_scan_id``
    on ``segment``.

    Every selected partition — static or dynamic, native selector or a
    lowered Figure 15 operator — flows through here, which makes it the one
    place the per-DynamicScan partition-selection counters are recorded.
    ``pairs`` is the number of (row, partition) selections the call stands
    for: one per leaf by default, which is what a static selector or a
    single row pushes; a batch of streamed rows pushes each new leaf once
    and counts every pair.
    """
    if pairs is None:
        pairs = mask.bit_count()
    ctx.metrics.record_propagation(part_scan_id, segment, mask, pairs)
    ctx.channel(part_scan_id, segment).push(mask)
