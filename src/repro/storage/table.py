"""In-memory heap storage for one table across all segments.

A :class:`TableStore` holds the rows of one catalog table.  Storage is
addressed two ways, mirroring the engine's needs:

* by **segment** — each segment only ever scans its local rows (Motion
  operators move data between segments at query time);
* by **leaf partition OID** — a DynamicScan retrieves exactly the leaves
  whose OIDs its PartitionSelector produced.

For an unpartitioned table all rows live under the root OID.  Replicated
tables store a full copy of every row on every segment.

Every primary segment's buckets are synchronously replicated to a
**mirror** copy.  When a :class:`~repro.resilience.SegmentHealth` object
is attached (the :class:`~repro.storage.partitioned.StorageManager` does
this on registration) and marks a primary down, reads for that segment
are served from the mirror; a double fault raises
:class:`~repro.errors.SegmentFailure`.

Writes are health-gated the same way: a down copy is *skipped* (the
survivor still takes the write) and the skipped mutation is reported to
health as missed, so the copy cannot rejoin until a resync replays it —
see :meth:`SegmentHealth.recover`.  All mutations run under the
storage-wide ``write_lock`` and, when a
:class:`~repro.durability.DurabilityManager` is attached, append WAL
records through a per-statement :class:`WalTransaction` committed in the
same critical section.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import accumulate, repeat
from operator import iadd
from typing import Iterable, Iterator, Sequence

from ..catalog import DistributionPolicy, TableDescriptor
from ..errors import PartitionError
from ..resilience.faults import DELETE_ROWS, INSERT_ROW
from ..resilience.health import MIRROR, PRIMARY, SegmentHealth
from ..types import DEFAULT_BATCH_SIZE
from .distribution import segment_for


class TableStore:
    """Rows of one table, bucketed by (segment, leaf OID), with a mirror
    copy per segment."""

    def __init__(
        self,
        descriptor: TableDescriptor,
        num_segments: int,
        health: SegmentHealth | None = None,
        write_lock: "threading.RLock | None" = None,
    ):
        if num_segments <= 0:
            raise ValueError("num_segments must be positive")
        self.descriptor = descriptor
        self.num_segments = num_segments
        self.health = health
        #: serializes all mutations; the StorageManager shares one lock
        #: across every store (and with SegmentHealth's resync path)
        self.write_lock = write_lock if write_lock is not None else threading.RLock()
        #: the instance's DurabilityManager (None = nothing is logged)
        self.durability = None
        #: the instance's FaultInjector for the mutation-path points
        #: ``insert_row`` / ``delete_rows`` (None = no injection)
        self.faults = None
        # _rows[segment][leaf_oid] -> list of row tuples (primary copies)
        self._rows: list[dict[int, list[tuple]]] = [
            {} for _ in range(num_segments)
        ]
        # synchronously replicated mirror copy of each primary's buckets
        self._mirror: list[dict[int, list[tuple]]] = [
            {} for _ in range(num_segments)
        ]
        #: mutation hook ``fn(root_oid, leaves | None)`` — set by the
        #: StorageManager; fires after every write, failed ones included,
        #: with the leaf mask of the leaves it touched or may have touched
        #: (``None`` = whole table: truncate, unpartitioned target).  The
        #: cache layer's partition-scoped invalidation hangs off this.
        self.on_mutation = None

    # -- writes -----------------------------------------------------------

    def insert(self, row: Sequence) -> None:
        """Validate, route (``f_T``) and distribute one row.

        Raises :class:`PartitionError` when the row maps to the invalid
        partition ⊥ — no partition accepts its key values.
        """
        self.insert_many((row,))

    def insert_many(self, rows: Iterable[Sequence]) -> int:
        """Bulk insert, batching the mutation notification: one event
        carrying every leaf a row was routed to, not one per row.  A row
        that fails part-way (a segment failing after others stored it)
        is in the event too: invalidating an unchanged leaf is sound."""
        count = 0
        routed: set[int] = set()
        with self.write_lock:
            txn = self._begin()
            try:
                for row in rows:
                    self._insert_row(row, txn, routed)
                    count += 1
            finally:
                # the WAL commit covers exactly the applied prefix: a
                # mid-batch validation failure leaves rows 0..k applied in
                # memory, and recovery must reproduce the same state
                self._commit(txn, routed)
        return count

    def _begin(self):
        if self.durability is None:
            return None
        return self.durability.begin(self.descriptor.oid)

    def _commit(self, txn, oids: Iterable[int] | None) -> None:
        """Commit ``txn`` and report the write to ``oids`` (see
        :meth:`_notify`), also when the commit raises: memory already
        holds the write."""
        try:
            if txn is not None:
                self.durability.commit(txn)
        finally:
            self._notify(oids)

    def _writable_copies(self, segment: int) -> tuple[bool, bool]:
        if self.health is None:
            return True, True
        return self.health.writable_copies(segment)

    def _record_missed(self, segment: int, primary: bool, mirror: bool) -> None:
        """Without a WAL there are no LSNs to track, so a skipped copy is
        marked stale with an opaque token (full-copy resync on rejoin).
        With a WAL, the transaction commit records the exact LSNs."""
        if self.durability is not None or self.health is None:
            return
        if not primary:
            self.health.record_missed(segment, PRIMARY)
        if not mirror:
            self.health.record_missed(segment, MIRROR)

    def _insert_row(self, row: Sequence, txn, routed: set[int]) -> None:
        """Validate, route and store one row, adding its bucket's OID to
        ``routed`` before any copy takes it."""
        desc = self.descriptor
        validated = desc.schema.validate_row(row)
        if desc.is_partitioned:
            leaf = desc.route_row(validated)
            if leaf is None:
                raise PartitionError(
                    f"row {validated!r} maps to the invalid partition of "
                    f"table {desc.name!r}"
                )
            oid = desc.leaf_oid(leaf)
        else:
            oid = desc.oid
        routed.add(oid)
        for seg in self._target_segments(validated):
            if self.faults is not None and self.faults.active:
                self.faults.maybe_fire(INSERT_ROW, seg)
            primary, mirror = self._writable_copies(seg)
            if primary:
                self._rows[seg].setdefault(oid, []).append(validated)
            if mirror:
                self._mirror[seg].setdefault(oid, []).append(validated)
            if txn is not None:
                txn.add_insert(seg, oid, validated, primary, mirror)
            else:
                self._record_missed(seg, primary, mirror)

    def _notify(self, oids: Iterable[int] | None) -> None:
        """Report a write to the buckets ``oids`` (``None``: all of them;
        empty: none, so no event)."""
        desc = self.descriptor
        if self.on_mutation is not None and (oids is None or oids):
            scoped = oids is not None and desc.is_partitioned
            self.on_mutation(desc.oid, desc.leaf_mask(oids) if scoped else None)

    def _target_segments(self, row: tuple) -> range | list[int]:
        dist = self.descriptor.distribution
        if dist.kind == DistributionPolicy.REPLICATED:
            return range(self.num_segments)
        col_idx = self.descriptor.schema.column_index(dist.column)  # type: ignore[arg-type]
        return [segment_for(row[col_idx], self.num_segments)]

    def truncate(self) -> None:
        with self.write_lock:
            txn = self._begin()
            try:
                for seg in range(self.num_segments):
                    primary, mirror = self._writable_copies(seg)
                    if primary:
                        self._rows[seg].clear()
                    if mirror:
                        self._mirror[seg].clear()
                    if txn is not None:
                        txn.add_truncate(seg, primary, mirror)
                    else:
                        self._record_missed(seg, primary, mirror)
            finally:
                self._commit(txn, None)

    def delete_from_leaf(self, segment: int, oid: int, rows: list[tuple]) -> None:
        """Remove specific rows (used by UPDATE's delete-then-insert)."""
        with self.write_lock:
            if self.faults is not None and self.faults.active:
                self.faults.maybe_fire(DELETE_ROWS, segment)
            txn = self._begin()
            try:
                primary, mirror = self._writable_copies(segment)
                for copy, writable in (
                    (self._rows, primary),
                    (self._mirror, mirror),
                ):
                    if not writable:
                        continue
                    bucket = copy[segment].get(oid)
                    if not bucket:
                        continue
                    for row in rows:
                        bucket.remove(row)
                if txn is not None:
                    txn.add_delete(segment, oid, rows, primary, mirror)
                else:
                    self._record_missed(segment, primary, mirror)
            finally:
                # a removal that raised part-way may have changed the leaf
                self._commit(txn, (oid,))

    # -- recovery back door --------------------------------------------------

    def load_bucket(self, segment: int, oid: int, rows: list[tuple]) -> None:
        """Install one bucket into *both* copies, bypassing health gates,
        logging and notifications — the checkpoint-restore path (each copy
        gets its own list object)."""
        self._rows[segment][oid] = list(rows)
        self._mirror[segment][oid] = list(rows)

    # -- reads --------------------------------------------------------------

    def _segment_buckets(self, segment: int) -> dict[int, list[tuple]]:
        """The readable copy of one segment's buckets: primary while up,
        mirror after a failover (or during resync), and
        :class:`SegmentFailure` on double fault."""
        health = self.health
        if health is not None and health.require_readable(segment):
            health.record_mirror_read(segment)
            return self._mirror[segment]
        return self._rows[segment]

    def primary_buckets(self, segment: int) -> dict[int, list[tuple]]:
        """Direct view of one segment's primary copy (checkpoint, resync,
        tests) — no health gating."""
        return self._rows[segment]

    def mirror_buckets(self, segment: int) -> dict[int, list[tuple]]:
        """Direct view of one segment's mirror copy (tests, resync checks)."""
        return self._mirror[segment]

    def scan_segment(self, segment: int, oids: Sequence[int] | None = None) -> Iterator[tuple]:
        """Rows stored on ``segment``, restricted to the given leaf OIDs.

        ``oids=None`` scans everything on the segment (root scan)."""
        buckets = self._segment_buckets(segment)
        if oids is None:
            keys: Iterable[int] = sorted(buckets)
        else:
            keys = oids
        for oid in keys:
            yield from buckets.get(oid, ())

    def scan_segment_batches(
        self,
        segment: int,
        oids: Sequence[int] | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        opened: list[int] | None = None,
        io_latency_s: float = 0.0,
    ) -> Iterator[list[tuple]]:
        """Like :meth:`scan_segment`, but yields row batches sliced
        straight out of the heap lists — no per-row Python calls.

        Batches span leaf buckets: every batch but the last holds
        ``batch_size`` rows, and the concatenation of all batches is
        exactly the :meth:`scan_segment` row order.  Each batch is read
        from the copy the health gate names when it starts filling.  Every
        leaf the scan reaches, empty or not, costs one ``io_latency_s``
        sleep and is reported once, in ``opened``: each batch extends it
        by the slice of the OID list it reached, so what the caller takes
        out of ``opened`` after a batch is what that batch opened, and
        what is left at the end are empty leaves after the last row.

        The work per leaf runs in C: the bucket lists are looked up once
        (again only after a failover), their row counts accumulated into
        leaf bounds, and a batch is found by bisecting those bounds.  A
        batch whose length disagrees with the bounds (a bucket changed
        while the consumer held the previous batch) is re-cut from fresh
        bounds, so it never holds more than ``batch_size`` rows.
        """
        buckets = self._segment_buckets(segment)
        keys = sorted(buckets) if oids is None else oids
        lists = list(map(buckets.get, keys, repeat(())))
        # leaf i holds scan rows bounds[i]:bounds[i + 1]
        bounds = list(accumulate(map(len, lists), initial=0))
        # the next row is row ``start`` of leaf ``leaf``; keys[:reached] are opened
        leaf = start = reached = 0
        while keys:
            begin = min(bounds[leaf] + start, bounds[leaf + 1])
            stop = begin + batch_size
            full = stop <= bounds[-1]
            last = bisect_left(bounds, stop) - 1 if full else len(keys) - 1
            stop = min(stop, bounds[-1])
            batch: list[tuple] = []
            if begin < stop:
                first = bisect_right(bounds, begin) - 1
                offset, end = begin - bounds[first], stop - bounds[last]
                if first == last:
                    batch = lists[first][offset:end]
                else:
                    batch = lists[first][offset:]
                    reduce(iadd, lists[first + 1 : last], batch)
                    batch += lists[last][:end]
                if len(batch) != stop - begin:
                    bounds = list(accumulate(map(len, lists), initial=0))
                    continue
            reaching = keys[reached : last + 1]
            if opened is not None:
                opened += reaching
            if io_latency_s:
                for _ in reaching:
                    time.sleep(io_latency_s)
            leaf, start, reached = last, stop - bounds[last], last + 1
            if batch:
                yield batch
            if not full:
                return
            gated = self._segment_buckets(segment)
            if gated is not buckets:
                buckets = gated
                lists = list(map(buckets.get, keys, repeat(())))
                bounds = list(accumulate(map(len, lists), initial=0))

    def scan_all(self, oids: Sequence[int] | None = None) -> Iterator[tuple]:
        """Rows from every segment (for reference evaluation in tests).

        Replicated tables would return duplicates across segments, so they
        are read from segment 0 only.
        """
        if self.descriptor.distribution.kind == DistributionPolicy.REPLICATED:
            yield from self.scan_segment(0, oids)
            return
        for seg in range(self.num_segments):
            yield from self.scan_segment(seg, oids)

    def leaf_row_count(self, oid: int) -> int:
        if self.descriptor.distribution.kind == DistributionPolicy.REPLICATED:
            return len(self._rows[0].get(oid, ()))
        return sum(len(seg.get(oid, ())) for seg in self._rows)

    def row_count(self) -> int:
        if self.descriptor.distribution.kind == DistributionPolicy.REPLICATED:
            return sum(len(rows) for rows in self._rows[0].values())
        return sum(
            len(rows) for seg in self._rows for rows in seg.values()
        )

    def segment_row_count(self, segment: int) -> int:
        return sum(len(rows) for rows in self._rows[segment].values())
