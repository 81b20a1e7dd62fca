"""Storage manager: one :class:`TableStore` per catalog table.

The paper assumes "given a logical partition OID the storage layer can
locate and retrieve the tuples belonging to that partition" (Section 2.1);
:meth:`StorageManager.scan_table_batches` is that contract: a table's root
OID names its store, and the leaf OIDs name the buckets read.
"""

from __future__ import annotations

import threading
from typing import Iterator, Sequence

from ..catalog import Catalog, TableDescriptor
from ..errors import CatalogError
from ..resilience.faults import RECOVERY_REPLAY
from ..resilience.health import PRIMARY, SegmentHealth
from ..types import DEFAULT_BATCH_SIZE
from .table import TableStore


class StorageManager:
    """All table stores for one database instance.

    The manager also owns the instance's :class:`SegmentHealth`: every
    registered table's reads consult it, so a single failover flips all
    tables of the down segment to their mirror copies at once.  All
    mutations across all tables serialize on :attr:`write_lock`, which
    the health resync path and the durability manager's checkpoints also
    hold — a resync or snapshot never races a write.

    A copy that missed writes while down rejoins through
    :meth:`_full_copy_resync`, with or without a WAL: its buckets are
    rebuilt wholesale from the surviving copy (Greenplum's full mirror
    recovery), which holds every committed write.
    """

    def __init__(
        self,
        catalog: Catalog,
        num_segments: int,
        health: SegmentHealth | None = None,
    ):
        self.catalog = catalog
        self.num_segments = num_segments
        self.health = health if health is not None else SegmentHealth(num_segments)
        #: one lock for every mutation on every table of this instance
        self.write_lock = threading.RLock()
        self.health.write_lock = self.write_lock
        self.health.resync_handler = self._full_copy_resync
        #: the instance's FaultInjector, propagated to every store for the
        #: mutation-path injection points (set by the engine)
        self.faults = None
        #: the instance's DurabilityManager (None = volatile storage)
        self.durability = None
        self._stores: dict[int, TableStore] = {}
        #: mutation subscribers ``fn(root_oid, leaves | None)`` — every
        #: table's writes fan out here with the leaf mask they touched (the
        #: cache layer's invalidation feed)
        self._mutation_listeners: list = []
        #: simulated per-read I/O latency in seconds (0.0 = off).  A scan
        #: sleeps this long for each leaf it opens, when it reaches it —
        #: modelling the seek a real segment pays per partition file.  Tests
        #: and the concurrent-throughput benchmark use it to hold a
        #: statement in flight; the sleep releases the GIL, so statements
        #: of different sessions overlap while they wait.
        self.io_latency_s = 0.0

    def register(self, descriptor: TableDescriptor) -> TableStore:
        if descriptor.oid in self._stores:
            raise CatalogError(
                f"storage for table {descriptor.name!r} already exists"
            )
        store = TableStore(
            descriptor,
            self.num_segments,
            health=self.health,
            write_lock=self.write_lock,
        )
        store.on_mutation = self._notify_mutation
        store.faults = self.faults
        store.durability = self.durability
        self._stores[descriptor.oid] = store
        return store

    def unregister(self, descriptor: TableDescriptor) -> None:
        self._stores.pop(descriptor.oid, None)
        # dropping a table is a whole-table mutation for subscribers
        self._notify_mutation(descriptor.oid, None)

    def set_faults(self, injector) -> None:
        """Wire the instance's fault injector into every store (existing
        and future) for the ``insert_row``/``delete_rows`` points."""
        self.faults = injector
        for store in self._stores.values():
            store.faults = injector

    def attach_durability(self, manager) -> None:
        """Wire a :class:`~repro.durability.DurabilityManager` in: stores
        log through it and health stamps failovers with its LSN."""
        self.durability = manager
        manager.storage = self
        self.health.lsn_provider = manager.current_lsn
        for store in self._stores.values():
            store.durability = manager

    def _full_copy_resync(self, segment: int, copy: str) -> None:
        """Rebuild ``copy`` of ``segment`` from the surviving copy across
        every table.  Runs under the write lock (the health recover path
        holds it)."""
        with self.write_lock:
            if self.faults is not None and self.faults.active:
                self.faults.maybe_fire(RECOVERY_REPLAY, segment)
            for store in self._stores.values():
                source = (
                    store.mirror_buckets(segment)
                    if copy == PRIMARY
                    else store.primary_buckets(segment)
                )
                rebuilt = {oid: list(rows) for oid, rows in source.items()}
                if copy == PRIMARY:
                    store._rows[segment] = rebuilt
                else:
                    store._mirror[segment] = rebuilt

    def add_mutation_listener(self, listener) -> None:
        """Subscribe ``fn(root_oid, leaves | None)`` to every write on
        every registered table: ``leaves`` is the leaf mask touched
        (``None`` = whole table)."""
        self._mutation_listeners.append(listener)

    def _notify_mutation(self, root_oid: int, leaves: int | None) -> None:
        for listener in self._mutation_listeners:
            listener(root_oid, leaves)

    def store(self, root_oid: int) -> TableStore:
        try:
            return self._stores[root_oid]
        except KeyError:
            raise CatalogError(f"no storage for OID {root_oid}") from None

    def store_by_name(self, name: str) -> TableStore:
        return self.store(self.catalog.table(name).oid)

    def stores(self) -> Iterator[TableStore]:
        """Every registered store (checkpoint snapshots iterate this)."""
        return iter(self._stores.values())

    def scan_table_batches(
        self,
        segment: int,
        root_oid: int,
        oids: Sequence[int] | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        opened: list[int] | None = None,
    ) -> Iterator[list[tuple]]:
        """Scan a table's rows on one segment (``oids=None``: every leaf)
        as full row batches spanning leaves, reporting the leaves opened
        into ``opened`` (:meth:`TableStore.scan_segment_batches`).  The
        simulated I/O latency is one sleep per leaf opened."""
        return self.store(root_oid).scan_segment_batches(
            segment, oids, batch_size, opened, self.io_latency_s
        )
