"""The catalog: tables, OIDs, partition hierarchies, distribution policies.

Partitioned tables follow the paper's storage model (Section 3.2): each leaf
partition is a separate physical object with its own OID and an associated
check constraint of the form ``pk ∈ ∪(a, b)``.  The catalog maps a *root*
OID to its :class:`~repro.catalog.partition.PartitionScheme` and to the leaf
OIDs; the runtime's built-in functions (paper Table 1) are thin wrappers
around these lookups.

A table's leaf OIDs follow its root OID in leaf-id order: leaf *ordinal*
*i* has OID ``root + 1 + i``.  Any set of one table's leaves the runtime
passes around is a **leaf mask**, an ``int`` whose bit *i* is leaf ordinal
*i*; :class:`TableDescriptor` alone converts between OIDs and bits.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Mapping

from ..errors import CatalogError, PartitionError
from .constraints import IntervalSet
from .partition import LeafId, PartitionScheme
from .schema import TableSchema


class DistributionPolicy:
    """How a table's rows are spread across MPP segments.

    ``HASHED`` distributes by hash of one column; ``REPLICATED`` stores a
    full copy on every segment.  Distribution is orthogonal to partitioning
    (paper Section 3.1): a distributed table may also be partitioned on each
    host.
    """

    HASHED = "hashed"
    REPLICATED = "replicated"

    __slots__ = ("kind", "column")

    def __init__(self, kind: str, column: str | None = None):
        if kind not in (self.HASHED, self.REPLICATED):
            raise CatalogError(f"unknown distribution kind {kind!r}")
        if kind == self.HASHED and column is None:
            raise CatalogError("hashed distribution requires a column")
        if kind == self.REPLICATED and column is not None:
            raise CatalogError("replicated distribution takes no column")
        self.kind = kind
        self.column = column

    @staticmethod
    def hashed(column: str) -> "DistributionPolicy":
        return DistributionPolicy(DistributionPolicy.HASHED, column)

    @staticmethod
    def replicated() -> "DistributionPolicy":
        return DistributionPolicy(DistributionPolicy.REPLICATED)

    def __repr__(self) -> str:
        if self.kind == self.HASHED:
            return f"Hashed({self.column})"
        return "Replicated"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistributionPolicy):
            return NotImplemented
        return self.kind == other.kind and self.column == other.column

    def __hash__(self) -> int:
        return hash((self.kind, self.column))


#: maps the digits of ``bin(mask)`` to bytes that are false/true
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class TableDescriptor:
    """Catalog entry for one (possibly partitioned) table."""

    def __init__(
        self,
        oid: int,
        name: str,
        schema: TableSchema,
        distribution: DistributionPolicy,
        partition_scheme: PartitionScheme | None,
        leaf_oids: Mapping[LeafId, int] | None,
    ):
        self.oid = oid
        self.name = name
        self.schema = schema
        self.distribution = distribution
        self.partition_scheme = partition_scheme
        self._leaf_oids: dict[LeafId, int] = dict(leaf_oids or {})
        #: leaf ids in ordinal order
        self._leaf_ids = list(partition_scheme.leaf_ids() if partition_scheme else ())
        self._all_leaf_oids = [self._leaf_oids[leaf] for leaf in self._leaf_ids]
        if self._all_leaf_oids != list(range(oid + 1, oid + 1 + self.num_leaves)):
            raise CatalogError(f"leaf OIDs of {name!r} do not follow its OID")
        #: the leaf mask of every leaf (0 for an unpartitioned table)
        self.all_leaves = (1 << self.num_leaves) - 1

    @property
    def is_partitioned(self) -> bool:
        return self.partition_scheme is not None

    @property
    def partition_keys(self) -> tuple[str, ...]:
        if self.partition_scheme is None:
            return ()
        return self.partition_scheme.keys

    @property
    def num_leaves(self) -> int:
        return len(self._leaf_ids)

    def leaf_oid(self, leaf: LeafId) -> int:
        try:
            return self._leaf_oids[leaf]
        except KeyError:
            raise PartitionError(
                f"table {self.name!r} has no leaf partition {leaf!r}"
            ) from None

    def _ordinal(self, oid: int) -> int:
        ordinal = oid - self.oid - 1
        if not 0 <= ordinal < self.num_leaves:
            raise PartitionError(
                f"OID {oid} is not a leaf partition of table {self.name!r}"
            )
        return ordinal

    def leaf_id(self, oid: int) -> LeafId:
        return self._leaf_ids[self._ordinal(oid)]

    def leaf_mask(self, oids: Iterable[int]) -> int:
        """The leaf mask of the given leaf OIDs."""
        return sum({1 << self._ordinal(oid) for oid in oids})

    def leaf_oids(self, mask: int) -> list[int]:
        """The OIDs of a leaf mask's leaves, ascending (leaf-id order)."""
        # the bits as bytes 0/1, lowest first, select OIDs in C
        bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
        return list(compress(self._all_leaf_oids, bits))

    def leaves_through(self, oid: int) -> int:
        """The mask of the leaves up to leaf ``oid`` inclusive (none for
        the root OID): what a scan has opened once it reached ``oid``."""
        return (1 << (oid - self.oid)) - 1

    def all_leaf_oids(self) -> list[int]:
        """OIDs of all leaf partitions, in leaf-id order (paper's
        ``partition_expansion``), expanded once when the table is made."""
        assert self.partition_scheme is not None
        return list(self._all_leaf_oids)

    def route_row(self, row: tuple) -> LeafId | None:
        """``f_T`` applied to a full row of this table."""
        assert self.partition_scheme is not None
        key_values = {
            key: row[self.schema.column_index(key)]
            for key in self.partition_scheme.keys
        }
        return self.partition_scheme.route(key_values)

    def select_leaf_oids(
        self, predicates: Mapping[str, IntervalSet] | None = None
    ) -> list[int]:
        """``f*_T``: OIDs of leaves that may satisfy the per-key predicates."""
        assert self.partition_scheme is not None
        return [
            self._leaf_oids[leaf]
            for leaf in self.partition_scheme.select(predicates)
        ]

    def __repr__(self) -> str:
        part = (
            f", partitioned {self.partition_scheme!r}"
            if self.partition_scheme
            else ""
        )
        return f"TableDescriptor({self.name}, oid={self.oid}{part})"


class Catalog:
    """Registry of tables and OIDs for one database instance."""

    def __init__(self) -> None:
        self._tables_by_name: dict[str, TableDescriptor] = {}
        self._tables_by_oid: dict[int, TableDescriptor] = {}
        self._next_oid = 16384  # first user OID, Postgres tradition
        #: bumped by every table created or dropped (keys cached plans)
        self.version = 0

    def _allocate_oid(self) -> int:
        oid = self._next_oid
        self._next_oid += 1
        return oid

    def create_table(
        self,
        name: str,
        schema: TableSchema,
        distribution: DistributionPolicy | None = None,
        partition_scheme: PartitionScheme | None = None,
    ) -> TableDescriptor:
        """Register a table; allocates the root OID and one OID per leaf."""
        if name in self._tables_by_name:
            raise CatalogError(f"table {name!r} already exists")
        if partition_scheme is not None:
            for key in partition_scheme.keys:
                if not schema.has_column(key):
                    raise CatalogError(
                        f"partition key {key!r} is not a column of {name!r}"
                    )
        if distribution is None:
            distribution = DistributionPolicy.hashed(schema.columns[0].name)
        if (
            distribution.kind == DistributionPolicy.HASHED
            and not schema.has_column(distribution.column)  # type: ignore[arg-type]
        ):
            raise CatalogError(
                f"distribution column {distribution.column!r} is not a "
                f"column of {name!r}"
            )
        oid = self._allocate_oid()
        leaf_oids: dict[LeafId, int] | None = None
        if partition_scheme is not None:
            leaf_oids = {
                leaf: self._allocate_oid()
                for leaf in partition_scheme.leaf_ids()
            }
        desc = TableDescriptor(
            oid, name, schema, distribution, partition_scheme, leaf_oids
        )
        self._tables_by_name[name] = desc
        self._tables_by_oid[oid] = desc
        self.version += 1
        return desc

    def register_descriptor(self, desc: TableDescriptor) -> TableDescriptor:
        """Install a pre-built descriptor with its original OIDs — the
        recovery path, which must reproduce the catalog exactly as it was
        (WAL records address tables and leaves by OID)."""
        if desc.name in self._tables_by_name:
            raise CatalogError(f"table {desc.name!r} already exists")
        if desc.oid in self._tables_by_oid:
            raise CatalogError(f"OID {desc.oid} already in use")
        self._tables_by_name[desc.name] = desc
        self._tables_by_oid[desc.oid] = desc
        self.version += 1
        self._next_oid = max(self._next_oid, desc.oid + desc.num_leaves + 1)
        return desc

    def drop_table(self, name: str) -> None:
        desc = self.table(name)
        del self._tables_by_name[name]
        del self._tables_by_oid[desc.oid]
        self.version += 1

    def table(self, name: str) -> TableDescriptor:
        try:
            return self._tables_by_name[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables_by_name

    def table_by_oid(self, oid: int) -> TableDescriptor:
        try:
            return self._tables_by_oid[oid]
        except KeyError:
            raise CatalogError(f"no table with OID {oid}") from None

    def tables(self) -> Iterator[TableDescriptor]:
        return iter(self._tables_by_name.values())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._tables_by_name
