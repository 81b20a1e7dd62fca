"""The durability manager: WAL, checkpoints, restart recovery.

One :class:`DurabilityManager` owns a database instance's durable state
under ``data_dir``::

    data_dir/
      wal/
        seg0.wal .. segN.wal   per-segment data records (insert/delete),
                               JSONL, CRC-stamped, LSN-ordered
        catalog.wal            DDL records (create_table / drop_table)
        commit.wal             commit markers: {"xid", "lsns": [...]}
      checkpoint/              last complete snapshot (manifest.json +
                               one seg<N>.json per segment)
      checkpoint.old/          previous snapshot, kept during the swap

**Logging.**  The storage layer stages a statement's whole write set
under the storage-wide write lock, buffering one delete record per
touched bucket and one insert record per segment in a
:class:`WalTransaction`; :meth:`commit` then assigns LSNs, appends the
data records to their per-segment files (a DDL record to
``catalog.wal``), appends one commit marker, and fsyncs when
``wal_sync == 'sync'``.  Only after the commit returns does storage
publish the write.  Recovery replays only LSNs named by a valid commit
marker, so a crash mid-statement can never resurrect half a statement —
the torn tail of any file is dropped wholesale — and a commit that
raises is cut out of ``commit.wal``.

The WAL serves restart recovery only: a copy that missed writes while
down is rebuilt from its surviving copy on rejoin
(:meth:`~repro.storage.StorageManager._full_copy_resync`).

**Checkpoints.**  :meth:`checkpoint` snapshots every table's buckets
(from the copy that is not stale) plus the encoded catalog into
``checkpoint.tmp``, atomically swaps it in (``checkpoint`` →
``checkpoint.old`` → remove), and truncates the WAL.

**Recovery.**  :meth:`recover_into` rebuilds catalog + storage from the
newest loadable checkpoint, then replays the committed WAL tail in LSN
order into both copies of every segment.  Torn tails are physically
truncated before the files reopen for append.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import DurabilityError
from ..resilience.faults import (
    CHECKPOINT_WRITE,
    RECOVERY_REPLAY,
    WAL_APPEND,
    WAL_FSYNC,
)
from ..resilience.health import PRIMARY
from .serialize import decode_descriptor, encode_descriptor
from .wal import WalFile

if TYPE_CHECKING:
    from ..catalog import Catalog
    from ..storage import StorageManager

SYNC = "sync"
ASYNC = "async"

#: pseudo-segment label for the shared catalog / commit logs in fault calls
SHARED_SEGMENT = -1


class WalTransaction:
    """Buffered WAL records for one statement on one table; rows arrive
    as the table's ``TableStore.encode`` renders them."""

    __slots__ = ("table_oid", "xid", "ops", "_insert_groups")

    def __init__(self, table_oid: int, xid: int):
        self.table_oid = table_oid
        self.xid = xid
        #: fully-formed records (minus lsn/xid), in buffer order
        self.ops: list[dict] = []
        # rows inserted into the same segment share one record
        self._insert_groups: dict[int, dict] = {}

    def add_inserts(self, segment: int, leaf_oid: int, cells: list) -> None:
        group = self._insert_groups.get(segment)
        if group is None:
            group = {
                "type": "insert",
                "table": self.table_oid,
                "segment": segment,
                "rows": [],
            }
            self._insert_groups[segment] = group
            self.ops.append(group)
        group["rows"] += [[leaf_oid, row] for row in cells]

    def add_delete(self, segment: int, leaf_oid: int, cells: list) -> None:
        self.ops.append(
            {
                "type": "delete",
                "table": self.table_oid,
                "segment": segment,
                "leaf": leaf_oid,
                "rows": cells,
            }
        )


class DurabilityManager:
    """WAL + checkpoint + recovery for one database instance."""

    def __init__(
        self,
        data_dir: str | Path,
        num_segments: int,
        wal_sync: str = SYNC,
        faults=None,
    ):
        if wal_sync not in (SYNC, ASYNC):
            raise DurabilityError(
                f"wal_sync must be {SYNC!r} or {ASYNC!r}, got {wal_sync!r}"
            )
        self.data_dir = Path(data_dir)
        self.num_segments = num_segments
        self.wal_sync = wal_sync
        self.faults = faults
        self.storage: "StorageManager | None" = None
        #: allocates LSNs/xids and orders WAL appends; a commit holds it
        #: across its fsyncs
        self._lock = threading.RLock()
        #: guards the counters below and is never held across I/O: every
        #: statement exports them (``stats_dict``), and a reader behind
        #: ``_lock`` would wait out another client's fsyncs
        self._stats_lock = threading.Lock()
        self._next_lsn = 1
        self._next_xid = 1
        # -- durable files ------------------------------------------------
        self.wal_dir = self.data_dir / "wal"
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self._segment_wals: list[WalFile] = []
        self._catalog_wal: WalFile | None = None
        self._commit_wal: WalFile | None = None
        # -- counters (the metrics "durability" section) -------------------
        self.wal_records = 0
        self.wal_bytes = 0
        self.wal_fsyncs = 0
        self.checkpoints = 0
        self.last_checkpoint_seconds = 0.0
        self.checkpoint_seconds_total = 0.0
        self.last_checkpoint_bytes = 0
        self.last_checkpoint_lsn = 0
        self.recovery_replayed_records = 0
        self.recovery_checkpoint_lsn = 0
        # -- background checkpointer ---------------------------------------
        self._ticker: threading.Thread | None = None
        self._stop = threading.Event()

    # -- paths --------------------------------------------------------------

    def _segment_wal_path(self, segment: int) -> Path:
        return self.wal_dir / f"seg{segment}.wal"

    @property
    def _catalog_wal_path(self) -> Path:
        return self.wal_dir / "catalog.wal"

    @property
    def _commit_wal_path(self) -> Path:
        return self.wal_dir / "commit.wal"

    @property
    def checkpoint_dir(self) -> Path:
        return self.data_dir / "checkpoint"

    # -- lifecycle ----------------------------------------------------------

    def current_lsn(self) -> int:
        """The LSN of the most recently assigned record (health stamps
        failover events with this)."""
        with self._lock:
            return self._next_lsn - 1

    def recover_into(self, catalog: "Catalog", storage: "StorageManager") -> None:
        """Rebuild ``catalog`` + ``storage`` from checkpoint + WAL tail,
        then open the logs for append (torn tails truncated)."""
        self.storage = storage
        checkpoint_lsn = self._load_checkpoint(catalog, storage)
        self.recovery_checkpoint_lsn = checkpoint_lsn

        # open every log, truncating torn tails, collecting valid records
        self._commit_wal, commit_records = WalFile.open(self._commit_wal_path)
        self._catalog_wal, ddl_records = WalFile.open(self._catalog_wal_path)
        data_records: list[dict] = []
        self._segment_wals = []
        for segment in range(self.num_segments):
            wal, records = WalFile.open(self._segment_wal_path(segment))
            self._segment_wals.append(wal)
            data_records.extend(records)

        committed: set[int] = set()
        max_xid = 0
        for record in commit_records:
            committed.update(record["lsns"])
            max_xid = max(max_xid, record["xid"])
        tail = sorted(
            (
                r
                for r in ddl_records + data_records
                if r["lsn"] > checkpoint_lsn and r["lsn"] in committed
            ),
            key=lambda r: r["lsn"],
        )
        for record in tail:
            self._fire(RECOVERY_REPLAY, record.get("segment", SHARED_SEGMENT))
            self._replay(record, catalog, storage)
            self.recovery_replayed_records += 1

        seen = [r["lsn"] for r in ddl_records + data_records]
        with self._lock:
            self._next_lsn = max([checkpoint_lsn] + seen) + 1
            self._next_xid = max_xid + 1

    def close(self) -> None:
        """Stop the background checkpointer and close the log files."""
        self._stop.set()
        if self._ticker is not None:
            self._ticker.join(timeout=5.0)
            self._ticker = None
        for wal in self._segment_wals:
            wal.close()
        for wal in (self._catalog_wal, self._commit_wal):
            if wal is not None:
                wal.close()

    def start_checkpointer(self, interval_s: float) -> None:
        """Checkpoint every ``interval_s`` seconds on a daemon thread."""
        if interval_s <= 0:
            raise DurabilityError("checkpoint interval must be positive")
        if self._ticker is not None:
            return

        def checkpoint_loop():
            while not self._stop.wait(interval_s):
                try:
                    self.checkpoint()
                except Exception:
                    # a failed background checkpoint (e.g. an injected
                    # checkpoint_write fault) must not kill the ticker;
                    # the old checkpoint + full WAL still recover
                    pass

        self._ticker = threading.Thread(
            target=checkpoint_loop, name="repro-checkpointer", daemon=True
        )
        self._ticker.start()

    # -- logging (called by TableStore under the storage write lock) --------

    def begin(self, table_oid: int) -> WalTransaction:
        with self._lock:
            xid = self._next_xid
            self._next_xid += 1
        return WalTransaction(table_oid, xid)

    def commit(self, txn: WalTransaction) -> None:
        """Assign LSNs, append the buffered records (a ``SHARED_SEGMENT``
        record to ``catalog.wal``) + a commit marker, and fsync in
        ``sync`` mode.

        A commit that raises is never recovered: its data records carry
        no marker, and a failure after the marker's append cuts
        ``commit.wal`` back to its size before the marker."""
        if not txn.ops:
            return
        with self._lock:
            synced: list[WalFile] = []
            lsns: list[int] = []
            for op in txn.ops:
                op["lsn"] = self._next_lsn
                self._next_lsn += 1
                op["xid"] = txn.xid
                lsns.append(op["lsn"])
                self._fire(WAL_APPEND, op["segment"])
                wal = (
                    self._catalog_wal
                    if op["segment"] == SHARED_SEGMENT
                    else self._segment_wals[op["segment"]]
                )
                self._count_record(wal.append(op))
                if wal not in synced:
                    synced.append(wal)
            if self.wal_sync == SYNC:
                for wal in synced:
                    self._fsync(wal)
            self._fire(WAL_APPEND, SHARED_SEGMENT)
            marker = {"type": "commit", "xid": txn.xid, "lsns": lsns}
            before = self._commit_wal.size()
            self._count_record(self._commit_wal.append(marker))
            if self.wal_sync == SYNC:
                try:
                    self._fsync(self._commit_wal)
                except BaseException:
                    self._commit_wal.reset(before)
                    raise

    def log_create_table(self, descriptor) -> None:
        self._log_ddl(
            {
                "type": "create_table",
                "segment": SHARED_SEGMENT,
                "table": descriptor.oid,
                "table_def": encode_descriptor(descriptor),
            }
        )

    def log_drop_table(self, descriptor) -> None:
        self._log_ddl(
            {
                "type": "drop_table",
                "segment": SHARED_SEGMENT,
                "table": descriptor.oid,
                "name": descriptor.name,
            }
        )

    def _log_ddl(self, record: dict) -> None:
        """Log one DDL record as its own transaction."""
        txn = self.begin(record["table"])
        txn.ops.append(record)
        self.commit(txn)

    def _fsync(self, wal: WalFile) -> None:
        self._fire(WAL_FSYNC, SHARED_SEGMENT)
        wal.sync()
        with self._stats_lock:
            self.wal_fsyncs += 1

    def _count_record(self, appended_bytes: int) -> None:
        with self._stats_lock:
            self.wal_bytes += appended_bytes
            self.wal_records += 1

    def _fire(self, point: str, segment: int) -> None:
        if self.faults is not None and self.faults.active:
            self.faults.maybe_fire(point, segment)

    # -- checkpoints ---------------------------------------------------------

    def checkpoint(self) -> dict:
        """Snapshot every table + the catalog, swap it in atomically, and
        truncate the WAL.  Returns a summary dict (lsn, bytes, seconds)."""
        storage = self.storage
        if storage is None:
            raise DurabilityError("durability manager is not attached")
        start = time.perf_counter()
        with storage.write_lock:
            self._fire(CHECKPOINT_WRITE, SHARED_SEGMENT)
            with self._lock:
                checkpoint_lsn = self._next_lsn - 1
                next_xid = self._next_xid
            manifest = {
                "lsn": checkpoint_lsn,
                "next_xid": next_xid,
                "tables": [
                    encode_descriptor(d) for d in storage.catalog.tables()
                ],
            }
            segments = [
                self._snapshot_segment(storage, segment)
                for segment in range(self.num_segments)
            ]
            total_bytes = self._write_checkpoint(manifest, segments)
            for wal in self._segment_wals + [self._catalog_wal, self._commit_wal]:
                wal.reset()
        duration = time.perf_counter() - start
        with self._stats_lock:
            self.checkpoints += 1
            self.last_checkpoint_seconds = duration
            self.checkpoint_seconds_total += duration
            self.last_checkpoint_bytes = total_bytes
            self.last_checkpoint_lsn = checkpoint_lsn
        return {"lsn": checkpoint_lsn, "bytes": total_bytes, "seconds": duration}

    def _snapshot_segment(self, storage: "StorageManager", segment: int) -> dict:
        """One segment's buckets for every table, read from the copy that
        is not stale (either, when neither is)."""
        use_mirror = storage.health.is_stale(segment, PRIMARY)
        snapshot: dict[str, dict[str, list]] = {}
        for store in storage.stores():
            buckets = (
                store.mirror_buckets(segment)
                if use_mirror
                else store.primary_buckets(segment)
            )
            snapshot[str(store.descriptor.oid)] = {
                str(oid): store.encode(rows) for oid, rows in buckets.items()
            }
        return snapshot

    def _write_checkpoint(self, manifest: dict, segments: list[dict]) -> int:
        tmp = self.data_dir / "checkpoint.tmp"
        old = self.data_dir / "checkpoint.old"
        current = self.checkpoint_dir
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        total = 0
        for segment, snapshot in enumerate(segments):
            total += self._write_json(tmp / f"seg{segment}.json", snapshot)
        # the manifest goes last: a checkpoint without one is unreadable,
        # so a crash mid-write can never present a partial snapshot
        total += self._write_json(tmp / "manifest.json", manifest)
        # atomic swap: current -> old, tmp -> current, drop old
        if old.exists():
            shutil.rmtree(old)
        if current.exists():
            current.rename(old)
        tmp.rename(current)
        if old.exists():
            shutil.rmtree(old)
        return total

    @staticmethod
    def _write_json(path: Path, payload: dict) -> int:
        body = json.dumps(payload, separators=(",", ":")).encode()
        with open(path, "wb") as fh:
            fh.write(body)
            fh.flush()
            os.fsync(fh.fileno())
        return len(body)

    # -- restart recovery -----------------------------------------------------

    def _load_checkpoint(
        self, catalog: "Catalog", storage: "StorageManager"
    ) -> int:
        """Restore the newest loadable snapshot; returns its LSN (0 when
        starting fresh)."""
        tmp = self.data_dir / "checkpoint.tmp"
        if tmp.exists():  # a checkpoint died mid-write; it never counted
            shutil.rmtree(tmp)
        for candidate in (self.checkpoint_dir, self.data_dir / "checkpoint.old"):
            manifest_path = candidate / "manifest.json"
            if not manifest_path.exists():
                continue
            try:
                with open(manifest_path, "rb") as fh:
                    manifest = json.load(fh)
            except ValueError:
                continue
            self._restore_checkpoint(candidate, manifest, catalog, storage)
            with self._lock:
                self._next_lsn = manifest["lsn"] + 1
                self._next_xid = manifest["next_xid"]
            return manifest["lsn"]
        return 0

    def _restore_checkpoint(
        self,
        directory: Path,
        manifest: dict,
        catalog: "Catalog",
        storage: "StorageManager",
    ) -> None:
        for table_def in manifest["tables"]:
            descriptor = decode_descriptor(table_def)
            catalog.register_descriptor(descriptor)
            storage.register(descriptor)
        for segment in range(self.num_segments):
            path = directory / f"seg{segment}.json"
            if not path.exists():
                continue
            with open(path, "rb") as fh:
                snapshot = json.load(fh)
            for oid_str, buckets in snapshot.items():
                store = storage.store(int(oid_str))
                for leaf_str, rows in buckets.items():
                    store.load_bucket(segment, int(leaf_str), store.coerce(rows))

    def _replay(self, record: dict, catalog: "Catalog", storage: "StorageManager") -> None:
        kind = record["type"]
        if kind == "create_table":
            descriptor = decode_descriptor(record["table_def"])
            catalog.register_descriptor(descriptor)
            storage.register(descriptor)
            return
        if kind == "drop_table":
            if catalog.has_table(record["name"]):
                descriptor = catalog.table(record["name"])
                storage.unregister(descriptor)
                catalog.drop_table(record["name"])
            return
        try:
            store = storage.store(record["table"])
        except Exception:
            return  # the table was dropped later in the log
        self._apply_data_record(store, record)

    @staticmethod
    def _apply_data_record(store, record: dict) -> None:
        """Apply one insert/delete record to both copies of its segment,
        bypassing logging and health gates.  Restart recovery restores
        both copies equal, so each bucket is computed once from the
        primary."""
        segment = record["segment"]
        primary, mirror = store.primary_buckets(segment), store.mirror_buckets(segment)
        if record["type"] == "insert":
            entries = record["rows"]
            rows = store.coerce([row for _, row in entries])
            for (leaf_oid, _), row in zip(entries, rows):
                primary.setdefault(leaf_oid, []).append(row)
                mirror.setdefault(leaf_oid, []).append(row)
            return
        leaf = record["leaf"]
        # drop the first occurrence of each listed row in one pass
        doomed = Counter(store.coerce(record["rows"]))
        kept = []
        for row in primary.get(leaf, ()):
            if doomed[row]:
                doomed[row] -= 1
            else:
                kept.append(row)
        primary[leaf] = kept
        mirror[leaf] = list(kept)

    # -- export ---------------------------------------------------------------

    def wal_size_bytes(self) -> int:
        return sum(
            wal.size()
            for wal in self._segment_wals
            + [w for w in (self._catalog_wal, self._commit_wal) if w]
        )

    def stats_dict(self) -> dict:
        """The metrics ``"durability"`` section (schema v8)."""
        with self._stats_lock:
            return {
                "enabled": True,
                "data_dir": str(self.data_dir),
                "wal_sync": self.wal_sync,
                "wal_records": self.wal_records,
                "wal_bytes": self.wal_bytes,
                "wal_fsyncs": self.wal_fsyncs,
                "checkpoints": self.checkpoints,
                "last_checkpoint_seconds": self.last_checkpoint_seconds,
                "checkpoint_seconds_total": self.checkpoint_seconds_total,
                "last_checkpoint_bytes": self.last_checkpoint_bytes,
                "last_checkpoint_lsn": self.last_checkpoint_lsn,
                "recovery_replayed_records": self.recovery_replayed_records,
                "recovery_checkpoint_lsn": self.recovery_checkpoint_lsn,
            }
