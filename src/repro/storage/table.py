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

Every mutation goes through one entry, :meth:`TableStore.write`: one
call is one statement's whole write set.  It runs under the
storage-wide ``write_lock``, logs one
:class:`~repro.durability.manager.WalTransaction` under one commit
marker when a :class:`~repro.durability.DurabilityManager` is attached,
and publishes by assigning each touched bucket a new list.  Live
buckets are never mutated in place, so a scan keeps the lists it
started on.  Writes are health-gated like reads: a down copy is
*skipped* (the survivor still takes the write) and marked stale in
health, so the copy cannot rejoin until a resync rebuilds it from the
survivor — see :meth:`SegmentHealth.recover`.
"""

from __future__ import annotations

import datetime
import threading
import time
import zlib
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import partial, reduce
from itertools import accumulate, chain, repeat
from operator import iadd
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..catalog import DistributionPolicy, TableDescriptor, TableSchema
from ..errors import CatalogError, PartitionError
from ..expr.codegen import KernelSource
from ..resilience.faults import DELETE_ROWS, INSERT_ROW
from ..resilience.health import MIRROR, PRIMARY, SegmentHealth
from ..types import DEFAULT_BATCH_SIZE, TypeKind
from .distribution import segment_for


#: the class of the values each column type's ``validate`` returns unchanged
_EXACT = {
    TypeKind.INT: int, TypeKind.BIGINT: int, TypeKind.FLOAT: float,
    TypeKind.TEXT: str, TypeKind.DATE: datetime.date, TypeKind.BOOL: bool,
}


def _coerce_lines(source: KernelSource, schema: TableSchema) -> list[str]:
    """Lines that turn the sequence ``row`` into ``schema.validate_row(row)``:
    the arity check, then every value that is neither NULL nor of its
    column's exact class through the column type's ``validate``."""
    width = len(schema.columns)
    names = "".join(f"v{i}, " for i in range(width))
    error = source.const(CatalogError)
    lines = [
        f"if len(row) != {width}:",
        f"    raise {error}(f'row has {{len(row)}} values, schema has {width} columns')",
        f"({names}) = row",
    ]
    for i, column in enumerate(schema.columns):
        exact, validate = _EXACT[column.data_type.kind], column.data_type.validate
        lines += [
            f"if type(v{i}) is not {source.const(exact)} and v{i} is not None:",
            f"    v{i} = {source.const(validate)}(v{i})",
        ]
    return lines + [f"row = ({names})"]


def _codec(schema: TableSchema) -> tuple[Callable, Callable]:
    """``coerce(rows)``, the ``validate_row`` of every row, and
    ``encode(rows)``, stored rows as JSON-native cells: dates become ISO
    text, and rows without a DATE column are their own cells."""
    source = KernelSource()
    names = "".join(f"v{i}, " for i in range(len(schema.columns)))
    dated = [column.data_type.kind is TypeKind.DATE for column in schema.columns]
    cells = "".join(
        f"None if v{i} is None else v{i}.isoformat(), " if date else f"v{i}, "
        for i, date in enumerate(dated)
    )
    encode = f"return [({cells}) for ({names}) in rows]" if any(dated) else "return rows"
    return source.build([
        "def coerce(rows):",
        "    out = []",
        "    for row in rows:",
        *("        " + line for line in _coerce_lines(source, schema)),
        "        out.append(row)",
        "    return out",
        "def encode(rows):",
        f"    {encode}",
        "return coerce, encode",
    ])


def _staging_kernel(
    desc: TableDescriptor, num_segments: int, stored: bool, fire: bool
) -> Callable:
    """``stage(rows, groups, touch, fire) -> count``: route every row to
    its leaf (``f_T``) and target segment(s) and append it to
    ``groups[segment, leaf]``, in row order; returns the number of rows.

    New rows are validated first (:func:`_coerce_lines`); ``touch`` is
    called with a segment when its first bucket is made and, when
    ``fire`` is rendered, ``fire(INSERT_ROW, segment)`` per row and target
    segment before that.  Stored rows (``stored``) are routed as they
    are, into sets.  A row no partition accepts raises
    :class:`PartitionError`.  Which of these run is decided while the
    text is rendered, never tested per row.
    """
    source = KernelSource()
    schema = desc.schema
    body = [] if stored else _coerce_lines(source, schema)

    def slot(column: str) -> str:
        index = schema.column_index(column)
        return f"row[{index}]" if stored else f"v{index}"

    if desc.is_partitioned:
        error = source.const(PartitionError)
        suffix = source.const(f" maps to the invalid partition of table {desc.name!r}")
        ordinal = ""
        for depth, level in enumerate(desc.partition_scheme.levels):
            body += [
                f"p{depth} = {source.const(level.route)}({slot(level.key)})",
                f"if p{depth} is None:",
                f"    raise {error}(f'row {{row!r}}' + {suffix})",
            ]
            radix = f"({ordinal}) * {source.const(len(level))} + " if depth else ""
            ordinal = f"{radix}p{depth}"
        body.append(f"leaf = {source.const(desc.all_leaf_oids())}[{ordinal}]")
    else:
        body.append(f"leaf = {source.const(desc.oid)}")
    inner = [f"fire({source.const(INSERT_ROW)}, seg)"] if fire else []
    inner += ["key = (seg, leaf)", "bucket = groups.get(key)", "if bucket is None:"]
    if stored:
        inner += ["    groups[key] = {row}", "else:", "    bucket.add(row)"]
    else:
        inner += ["    touch(seg)", "    groups[key] = [row]", "else:", "    bucket.append(row)"]
    if desc.distribution.kind == DistributionPolicy.REPLICATED:
        body.append(f"for seg in {source.const(range(num_segments))}:")
        body += ["    " + line for line in inner]
    else:
        n = source.const(num_segments)
        body += [
            f"dist = {slot(desc.distribution.column)}",
            f"if type(dist) is {source.const(int)}:",
            f"    seg = {source.const(zlib.crc32)}(b'i%d' % dist) % {n}",
            "else:",
            f"    seg = {source.const(segment_for)}(dist, {n})",
            *inner,
        ]
    return source.build([
        "def stage(rows, groups, touch, fire):",
        "    count = 0",
        "    for count, row in enumerate(rows, 1):",
        *("        " + line for line in body),
        "    return count",
        "return stage",
    ])


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
        #: StorageManager; fires once per published write with the leaf
        #: mask of the leaves it changed (``None`` = whole table: an
        #: unpartitioned target), never for a write that raised.  The
        #: cache layer's partition-scoped invalidation hangs off this.
        self.on_mutation = None
        self._kernels: dict[tuple[bool, bool], Callable] = {}
        #: ``coerce(rows)`` validates new rows as the staging kernel does
        #: (the recovery paths); ``encode(rows)`` renders stored rows for
        #: the WAL and checkpoints
        self.coerce, self.encode = _codec(descriptor.schema)

    # -- writes -----------------------------------------------------------

    def write(
        self,
        inserts: Iterable[Sequence] = (),
        replace: Mapping[tuple, tuple | None] | None = None,
    ) -> int:
        """Apply one statement's whole write set: insert ``inserts`` and
        replace every stored row whose value is a key of ``replace`` by
        its value (``None`` deletes it).  Returns the number of rows
        inserted, deleted or updated; a replicated table counts its first
        segment's copies.  Raises :class:`PartitionError` for a row no
        partition accepts (⊥).

        The write stages through this table's generated kernels (validates
        and routes every row, and fires every fault point: ``delete_rows``
        per bucket that loses rows, then ``insert_row`` per row and target
        segment), builds a new list per touched
        bucket of each writable copy, logs one WAL transaction, and only
        then publishes the lists and fires one mutation event.  A write
        that raises has changed nothing.
        """
        replace = replace or {}
        faults = self.faults if self.faults is not None and self.faults.active else None
        fire = None if faults is None else faults.maybe_fire
        replicated = self.descriptor.distribution.kind == DistributionPolicy.REPLICATED
        copies: dict[int, tuple[bool, bool]] = {}
        doomed: dict[tuple[int, int], set[tuple]] = {}
        lost: dict[tuple[int, int], list[tuple]] = {}
        gained: dict[tuple[int, int], list[tuple]] = {}
        replaced: Counter = Counter()
        touch = partial(self._writable_copies, copies=copies)
        with self.write_lock:
            # 1. stage
            self._kernel(True, False)(replace, doomed, touch, None)
            for (seg, oid), values in doomed.items():
                primary, _ = self._writable_copies(seg, copies)
                bucket = (self._rows if primary else self._mirror)[seg].get(oid, ())
                removed = [row for row in bucket if row in values]
                if removed:
                    if faults is not None:
                        faults.maybe_fire(DELETE_ROWS, seg)
                    lost[seg, oid] = removed
                    if not replicated or seg == 0:
                        replaced.update(removed)
            stage = self._kernel(False, fire is not None)
            count = replaced.total() + stage(inserts, gained, touch, fire)
            moved = [(new, replaced[old]) for old, new in replace.items() if new is not None]
            stage([new for new, times in moved for _ in range(times)], gained, touch, fire)
            # 2. build
            touched = dict.fromkeys(chain(lost, gained))
            staged = []
            for seg, oid in touched:
                values, added = doomed.get((seg, oid)), gained.get((seg, oid), [])
                for copy, writable in zip((self._rows, self._mirror), copies[seg]):
                    if writable:
                        rows = copy[seg].get(oid, [])
                        if values:
                            rows = [row for row in rows if row not in values]
                        staged.append((copy[seg], oid, rows + added))
            # 3. log
            if self.durability is not None and touched:
                txn = self.durability.begin(self.descriptor.oid)
                for (seg, oid), removed in lost.items():
                    txn.add_delete(seg, oid, self.encode(removed))
                for (seg, oid), added in gained.items():
                    txn.add_inserts(seg, oid, self.encode(added))
                self.durability.commit(txn)
            # 4. publish
            for buckets, oid, rows in staged:
                buckets[oid] = rows
            for seg in dict.fromkeys(seg for seg, _ in touched):
                self._mark_stale(seg, *copies[seg])
            self._notify({oid for _, oid in touched})
        return count

    def _kernel(self, stored: bool, fire: bool) -> Callable:
        """This table's staging kernel for stored rows (``replace`` keys)
        or for new rows, with ``insert_row`` firing rendered or not; made
        on first use and kept."""
        kernel = self._kernels.get((stored, fire))
        if kernel is None:
            kernel = self._kernels[stored, fire] = _staging_kernel(
                self.descriptor, self.num_segments, stored, fire
            )
        return kernel

    def _writable_copies(
        self, segment: int, copies: dict[int, tuple[bool, bool]]
    ) -> tuple[bool, bool]:
        """(primary, mirror): the copies of ``segment`` a write goes to,
        asked of health once per write and kept in ``copies``."""
        if segment not in copies:
            health = self.health
            copies[segment] = (
                (True, True) if health is None else health.writable_copies(segment)
            )
        return copies[segment]

    def _mark_stale(self, segment: int, primary: bool, mirror: bool) -> None:
        """Mark the copy a published write skipped stale (a full-copy
        resync rebuilds it on rejoin)."""
        if self.health is None:
            return
        if not primary:
            self.health.mark_stale(segment, PRIMARY)
        if not mirror:
            self.health.mark_stale(segment, MIRROR)

    def _notify(self, oids: set[int]) -> None:
        """Report a write to the buckets ``oids`` (empty: no event)."""
        desc = self.descriptor
        if self.on_mutation is not None and oids:
            self.on_mutation(desc.oid, desc.leaf_mask(oids) if desc.is_partitioned else None)

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
        leaf bounds, and a batch is found by bisecting those bounds.
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

    # Counts read the copy scans read (mirror after a failover), and a
    # replicated table counts one copy: segment 0's.

    def _counted_segments(self) -> range:
        if self.descriptor.distribution.kind == DistributionPolicy.REPLICATED:
            return range(1)
        return range(self.num_segments)

    def leaf_row_count(self, oid: int) -> int:
        return sum(
            len(self._segment_buckets(seg).get(oid, ()))
            for seg in self._counted_segments()
        )

    def row_count(self) -> int:
        return sum(map(self.segment_row_count, self._counted_segments()))

    def segment_row_count(self, segment: int) -> int:
        return sum(map(len, self._segment_buckets(segment).values()))
