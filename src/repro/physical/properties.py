"""Physical plan properties: data distribution and partition selection.

The paper models both as *physical properties* handled by Orca's property
enforcement framework (Section 3.1): a plan either delivers a required
property on its own, or an enforcer operator (Motion for distribution,
PartitionSelector for partition propagation) is plugged in.

* :class:`DistributionSpec` — how a tuple stream is spread over segments.
* :class:`PartSelectorSpec` — the paper's Figure 7 / Figure 11 structure:
  which DynamicScan needs a selector, on which partition key(s), with which
  (optional) partition-filtering predicate per level.
* :class:`PartitionPropagationSpec` — the set of outstanding
  PartSelectorSpecs in an optimization request.
* :class:`DispatchSpec` — the distribution-key restriction that lets a
  slice run only on the segments its rows can be on (direct dispatch).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..catalog import TableDescriptor
from ..expr.analysis import derive_interval_set
from ..expr.ast import ColumnRef, Expression
from ..storage.distribution import segment_for
from ..types import DataType


class DistributionSpec:
    """Distribution of a tuple stream across segments.

    Kinds (paper Section 3.1): ``hashed`` — rows placed by hash of key
    columns; ``replicated`` — full copy on every segment; ``singleton`` —
    the whole stream gathered on one host; ``any`` — no requirement (only
    meaningful as a *required* spec).
    """

    ANY = "any"
    HASHED = "hashed"
    REPLICATED = "replicated"
    SINGLETON = "singleton"

    __slots__ = ("kind", "columns")

    def __init__(self, kind: str, columns: Sequence[ColumnRef] = ()):
        if kind not in (self.ANY, self.HASHED, self.REPLICATED, self.SINGLETON):
            raise ValueError(f"unknown distribution kind {kind!r}")
        if kind == self.HASHED and not columns:
            raise ValueError("hashed distribution requires key columns")
        if kind != self.HASHED and columns:
            raise ValueError(f"{kind} distribution takes no columns")
        self.kind = kind
        self.columns: tuple[ColumnRef, ...] = tuple(columns)

    @staticmethod
    def any() -> "DistributionSpec":
        return _ANY

    @staticmethod
    def hashed(columns: Sequence[ColumnRef]) -> "DistributionSpec":
        return DistributionSpec(DistributionSpec.HASHED, columns)

    @staticmethod
    def replicated() -> "DistributionSpec":
        return _REPLICATED

    @staticmethod
    def singleton() -> "DistributionSpec":
        return _SINGLETON

    def satisfies(self, required: "DistributionSpec") -> bool:
        """Whether a stream with this (delivered) distribution meets the
        requirement without an enforcer.

        Replicated data satisfies any hashed requirement: every segment
        already holds all rows, so co-location is trivially met.
        """
        if required.kind == self.ANY:
            return True
        if required.kind == self.HASHED:
            if self.kind == self.REPLICATED:
                return True
            return self.kind == self.HASHED and _same_columns(
                self.columns, required.columns
            )
        return self.kind == required.kind

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistributionSpec):
            return NotImplemented
        return self.kind == other.kind and self.columns == other.columns

    def __hash__(self) -> int:
        return hash((self.kind, self.columns))

    def __repr__(self) -> str:
        if self.kind == self.HASHED:
            cols = ", ".join(repr(c) for c in self.columns)
            return f"Hashed({cols})"
        return self.kind.capitalize()


def _same_columns(
    a: Sequence[ColumnRef], b: Sequence[ColumnRef]
) -> bool:
    if len(a) != len(b):
        return False
    return all(x.matches(y) for x, y in zip(a, b))


_ANY = DistributionSpec(DistributionSpec.ANY)
_REPLICATED = DistributionSpec(DistributionSpec.REPLICATED)
_SINGLETON = DistributionSpec(DistributionSpec.SINGLETON)


class PartSelectorSpec:
    """The paper's PartSelectorSpec (Figure 7, extended per Figure 11).

    One spec describes the PartitionSelector that must be placed for the
    DynamicScan identified by ``part_scan_id``: the partitioned table, one
    partition key per level, and an optional partition-filtering predicate
    per level (``None`` = no predicate on that level, Figure 11's "some
    elements of the partPredicates list may be empty").
    """

    __slots__ = ("part_scan_id", "table", "part_keys", "part_predicates")

    def __init__(
        self,
        part_scan_id: int,
        table: TableDescriptor,
        part_keys: Sequence[ColumnRef],
        part_predicates: Sequence[Expression | None] | None = None,
    ):
        if not part_keys:
            raise ValueError("PartSelectorSpec needs at least one key")
        if part_predicates is None:
            part_predicates = [None] * len(part_keys)
        if len(part_predicates) != len(part_keys):
            raise ValueError(
                "part_predicates must have one entry per partitioning level"
            )
        self.part_scan_id = part_scan_id
        self.table = table
        self.part_keys: tuple[ColumnRef, ...] = tuple(part_keys)
        self.part_predicates: tuple[Expression | None, ...] = tuple(
            part_predicates
        )

    @staticmethod
    def for_table(
        part_scan_id: int, table: TableDescriptor, alias: str
    ) -> "PartSelectorSpec":
        """The initial spec for a DynamicScan: keys from the table's
        partition scheme, no predicates yet (Algorithm 1's input list)."""
        keys = [ColumnRef(key, alias) for key in table.partition_keys]
        return PartSelectorSpec(part_scan_id, table, keys)

    def with_predicates(
        self, predicates: Sequence[Expression | None]
    ) -> "PartSelectorSpec":
        return PartSelectorSpec(
            self.part_scan_id, self.table, self.part_keys, predicates
        )

    @property
    def has_predicates(self) -> bool:
        return any(p is not None for p in self.part_predicates)

    def _key(self) -> tuple:
        return (
            self.part_scan_id,
            self.table.oid,
            self.part_keys,
            self.part_predicates,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartSelectorSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        preds = ", ".join(
            "Φ" if p is None else repr(p) for p in self.part_predicates
        )
        keys = ", ".join(repr(k) for k in self.part_keys)
        return f"<{self.part_scan_id}, [{keys}], [{preds}]>"


class DispatchSpec:
    """Where a slice's rows can be: the segment-level twin of
    :class:`PartSelectorSpec`.

    A slice whose only table access scans a table hash-distributed on
    ``key`` under a filter that holds for finitely many key values
    (``predicate``: ``=``, ``IN`` and ``$n`` conjuncts, see
    :func:`~repro.expr.analysis.pins_key`) can produce rows only on the
    segments those values hash to.  The spec rides on the slice's Motion;
    the plan stores the predicate, never the segments, so one plan serves
    every parameter value and any segment count.

    :meth:`one_copy` is the spec of a gathered slice over a *replicated*
    table: every segment holds every row, so the slice runs on one.
    """

    __slots__ = ("key", "key_type", "predicate")

    def __init__(
        self,
        key: ColumnRef | None,
        key_type: DataType | None,
        predicate: Expression | None,
    ):
        self.key = key
        self.key_type = key_type
        self.predicate = predicate

    @staticmethod
    def one_copy() -> "DispatchSpec":
        return _ONE_COPY

    def segments(self, params, num_segments: int) -> list[int] | None:
        """The segments to run the slice on for these parameter values
        (none at all when no value can match, e.g. ``key = NULL``), or
        ``None`` when they cannot be proven: a comparand the key's type
        does not represent exactly, as ``insert`` would refuse it."""
        if self.predicate is None:
            # any segment would do; reads of a segment whose primary is
            # down are served by its mirror like any other scan
            return [0]
        admitted = derive_interval_set(
            self.predicate, self.key, params=params, key_type=self.key_type
        )
        if admitted is None or any(
            iv.lo is None or iv.lo != iv.hi for iv in admitted
        ):
            return None  # not a finite point set: the rows can be anywhere
        return sorted(
            {segment_for(point.lo, num_segments) for point in admitted}
        )

    def __repr__(self) -> str:
        if self.predicate is None:
            return "one copy of a replicated table"
        return repr(self.predicate)


_ONE_COPY = DispatchSpec(None, None, None)


class PartitionPropagationSpec:
    """The partition-selection component of an optimization request: the set
    of PartSelectorSpecs still to be resolved in (or on top of) a subtree.

    The empty spec — paper notation ``<>`` — means no outstanding selector.
    """

    __slots__ = ("specs",)

    def __init__(self, specs: Iterable[PartSelectorSpec] = ()):
        self.specs: frozenset[PartSelectorSpec] = frozenset(specs)

    @staticmethod
    def none() -> "PartitionPropagationSpec":
        return _NO_PROPAGATION

    @property
    def is_empty(self) -> bool:
        return not self.specs

    def scan_ids(self) -> set[int]:
        return {spec.part_scan_id for spec in self.specs}

    def add(self, spec: PartSelectorSpec) -> "PartitionPropagationSpec":
        return PartitionPropagationSpec(self.specs | {spec})

    def remove(self, spec: PartSelectorSpec) -> "PartitionPropagationSpec":
        return PartitionPropagationSpec(self.specs - {spec})

    def union(
        self, other: "PartitionPropagationSpec"
    ) -> "PartitionPropagationSpec":
        return PartitionPropagationSpec(self.specs | other.specs)

    def __iter__(self) -> Iterator[PartSelectorSpec]:
        # Deterministic order for stable plans and explain output.
        return iter(sorted(self.specs, key=lambda s: s.part_scan_id))

    def __len__(self) -> int:
        return len(self.specs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionPropagationSpec):
            return NotImplemented
        return self.specs == other.specs

    def __hash__(self) -> int:
        return hash(self.specs)

    def __repr__(self) -> str:
        if self.is_empty:
            return "<>"
        return "{" + ", ".join(repr(s) for s in self) + "}"


_NO_PROPAGATION = PartitionPropagationSpec()
