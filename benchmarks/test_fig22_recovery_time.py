"""Figure 22 (companion experiment) — recovery time vs checkpoint size.

Not a figure from the paper: the durability subsystem's core trade-off,
measured the way the paper measures its optimizations.  For a range of
data sizes, recover the same database twice — once from the full WAL
(no checkpoint: every record replays) and once from a checkpoint with an
empty tail (no records replay) — and report the on-disk footprint next
to the restart wall clock.  The claim: checkpointed restart time is flat
in the WAL history it replaced, while WAL-only replay grows linearly
with it.

All ``*_seconds`` leaves are wall clocks and therefore report-only in
``tools/check_bench_regression.py``; the replayed-record counters are
asserted here, not gated, because row counts scale with the matrix.
"""

from __future__ import annotations

import datetime
import shutil
import tempfile
import time

START = datetime.date(2013, 1, 1)
SCALES = [1_000, 4_000]


def test_fig22_recovery_time(benchmark):
    benchmark.pedantic(_report, rounds=1, iterations=1)


def _build(data_dir: str, rows: int):
    from repro import Database
    from repro import types as t
    from repro.catalog import (
        DistributionPolicy,
        PartitionScheme,
        TableSchema,
        monthly_range_level,
    )

    db = Database(num_segments=4, data_dir=data_dir)
    db.create_table(
        "orders",
        TableSchema.of(("id", t.INT), ("date", t.DATE), ("amount", t.FLOAT)),
        distribution=DistributionPolicy.hashed("id"),
        partition_scheme=PartitionScheme(
            [monthly_range_level("date", START, 12)]
        ),
    )
    db.insert(
        "orders",
        [
            (i, START + datetime.timedelta(days=i % 360), float(i))
            for i in range(rows)
        ],
    )
    db.sql("DELETE FROM orders WHERE id % 10 = 0")
    return db


def _recover_once(data_dir: str, rows: int):
    from repro import Database

    begin = time.perf_counter()
    db = Database(num_segments=4, data_dir=data_dir)
    elapsed = time.perf_counter() - begin
    assert db.sql("SELECT count(*) FROM orders").rows == [(rows - rows // 10,)]
    stats = db.durability.stats_dict()
    db.durability.close()
    return elapsed, stats


def _report():
    from ._helpers import emit, emit_json, format_table

    series = []
    for rows in SCALES:
        base = tempfile.mkdtemp(prefix="repro-fig22-")
        try:
            db = _build(base, rows)
            wal_bytes = db.durability.wal_size_bytes()
            db.durability.close()
            replay_seconds, stats = _recover_once(base, rows)
            replayed = stats["recovery_replayed_records"]
            assert replayed > 0, "WAL-only restart must replay the log"

            # checkpoint, then recover again: snapshot only, empty tail
            db = _build_checkpoint(base)
            checkpoint_bytes = db.durability.last_checkpoint_bytes
            db.durability.close()
            checkpoint_seconds, stats = _recover_once(base, rows)
            assert stats["recovery_replayed_records"] == 0, (
                "checkpointed restart must not replay the truncated log"
            )
            series.append(
                {
                    "rows": rows,
                    "wal_bytes": wal_bytes,
                    "wal_records_replayed": replayed,
                    "wal_replay_seconds": replay_seconds,
                    "checkpoint_bytes": checkpoint_bytes,
                    "checkpoint_recovery_seconds": checkpoint_seconds,
                }
            )
        finally:
            shutil.rmtree(base, ignore_errors=True)

    emit(
        "fig22_recovery_time",
        format_table(
            [
                "rows",
                "wal B",
                "replayed",
                "wal replay s",
                "ckpt B",
                "ckpt recovery s",
            ],
            [
                [
                    point["rows"],
                    point["wal_bytes"],
                    point["wal_records_replayed"],
                    f"{point['wal_replay_seconds']:.4f}",
                    point["checkpoint_bytes"],
                    f"{point['checkpoint_recovery_seconds']:.4f}",
                ]
                for point in series
            ],
        ),
    )
    emit_json("fig22_recovery_time", {"series": series})


def _build_checkpoint(data_dir: str):
    """Reopen the existing data dir and checkpoint it (truncates the WAL)."""
    from repro import Database

    db = Database(num_segments=4, data_dir=data_dir)
    db.checkpoint()
    assert db.durability.wal_size_bytes() == 0
    return db
