"""Figure 23 (this repo's extension) — throughput at width 1024 vs width 1.

The paper's executor model is row-at-a-time Volcano iterators; modern MPP
executors amortize interpretation overhead by pulling one *batch* of rows
per iterator call.  The executor has one pipeline whose operators pull
batches of ``batch_size`` rows; this benchmark measures what the width
buys: ``batch_size=1024`` (the engine default) against ``batch_size=1``
(the same operators, one row per call) on the two shapes the executor
spends its life in:

* **scan+filter** — a full scan of a 12-partition fact table with a
  selective predicate, gathered to the coordinator;
* **partitioned hash join** — a dimension filter driving a redistributed
  hash join against the partitioned fact table, aggregated.

Reported as input-rows-per-second per workload per batch width.

Assertions: identical rows at both widths, identical deterministic
counters (partitions/rows scanned, motion rows/bytes — these gate hard in
CI via ``tools/check_bench_regression.py``), and width 1024 must clear 3x
on scan+filter and 2x on the join against width 1 (wall-clock bars
measured as a ratio on the same machine; the absolute timings stay
report-only).  The operators run generated whole-batch kernels
(``repro.executor.kernels``) at every width; the table ends with the
source of the scan+filter one, report-only.  The JSON keeps the key
``speedup_vs_row`` for the width-1024 / width-1 ratio, so the committed
baseline and older artifacts stay comparable.
"""

from __future__ import annotations

import random

SEGMENTS = 4
PARTS = 12
FACT_ROWS = 24000
DIM_KEYS = 1200
BATCH_SIZES = (1, 1024)

FILTER_SQL = "SELECT id, val FROM facts WHERE val > 25.0"
JOIN_SQL = (
    "SELECT count(*), sum(f.val) FROM facts f, dim d "
    "WHERE f.key = d.key AND d.grp = 3"
)

WORKLOADS = [
    ("scan+filter", FILTER_SQL),
    ("hash join", JOIN_SQL),
]

#: hard wall-clock ratio bars, width 1024 over width 1 (same-machine ratio,
#: so CI-stable).  scan+filter measures 5.0-5.1x.  The join's bar was 3.0
#: while width 1 ran handwritten per-row closures (~5x); width 1 now runs
#: the generated join kernels too and fell from 31-32 ms to 21-22 ms, with
#: width 1024 unchanged at 6.1-6.4 ms, so the ratio is 3.3-3.6x and dipped
#: to 2.2x in one of the runs taken when the bar was set: 2.0 is what the
#: width alone reliably buys there.
SPEEDUP_BARS = {"scan+filter": 3.0, "hash join": 2.0}


def _build_db():
    from repro import Database
    from repro import types as t
    from repro.catalog import (
        DistributionPolicy,
        PartitionScheme,
        TableSchema,
        uniform_int_level,
    )

    db = Database(num_segments=SEGMENTS)
    db.create_table(
        "facts",
        TableSchema.of(("id", t.INT), ("key", t.INT), ("val", t.FLOAT)),
        distribution=DistributionPolicy.hashed("id"),
        partition_scheme=PartitionScheme(
            [uniform_int_level("key", 0, DIM_KEYS, PARTS)]
        ),
    )
    db.create_table(
        "dim",
        TableSchema.of(("key", t.INT), ("grp", t.INT)),
        distribution=DistributionPolicy.hashed("key"),
    )
    rng = random.Random(23)
    db.insert(
        "facts",
        [
            (i, rng.randrange(DIM_KEYS), round(rng.uniform(0, 50), 2))
            for i in range(FACT_ROWS)
        ],
    )
    db.insert("dim", [(k, k % 8) for k in range(DIM_KEYS)])
    db.analyze()
    return db


def _filter_kernel_source(db) -> list[str]:
    """The generated text of the scan+filter statement's Filter kernel."""
    from repro.executor.kernels import filter_kernel
    from repro.physical.ops import Filter

    op = next(op for op in db.plan(FILTER_SQL).walk() if isinstance(op, Filter))
    kernel = filter_kernel(op.predicate, op.children[0].output_layout(), None)
    return kernel.__source__.splitlines()


def test_fig23_batch_throughput(benchmark):
    benchmark.pedantic(_report, rounds=1, iterations=1)


def _report():
    from ._helpers import emit, emit_json, format_table, timed

    db = _build_db()

    # -- correctness + deterministic counters at each width ------------------
    counters: dict[str, dict] = {}
    for name, sql in WORKLOADS:
        reference = db.sql(sql, analyze=True, batch_size=1)
        per_width: dict[str, dict] = {}
        for width in BATCH_SIZES:
            result = db.sql(sql, analyze=True, batch_size=width)
            assert sorted(result.rows, key=repr) == sorted(
                reference.rows, key=repr
            ), f"{name}: batch_size={width} changed the answer"
            motion = result.metrics.motion_stats()
            per_width[str(width)] = {
                "result_rows": len(result.rows),
                "partitions_scanned": result.metrics.partitions_scanned(),
                "rows_scanned": result.metrics.total_rows_scanned,
                "motion_rows": motion["rows_moved"],
                "motion_bytes": motion["bytes_moved"],
            }
        assert per_width["1"] == per_width[str(BATCH_SIZES[-1])], (
            f"{name}: batch width changed the measured counters"
        )
        counters[name] = per_width

    # -- throughput ----------------------------------------------------------
    measurements = []
    for name, sql in WORKLOADS:
        row_s = None
        for width in BATCH_SIZES:
            elapsed = timed(lambda s=sql, w=width: db.sql(s, batch_size=w))
            if width == 1:
                row_s = elapsed
            measurements.append(
                {
                    "workload": name,
                    "batch_size": width,
                    "seconds": elapsed,
                    "input_rows": FACT_ROWS,
                    "rows_per_second": FACT_ROWS / elapsed if elapsed else 0.0,
                    "speedup_vs_row": row_s / elapsed if elapsed else 0.0,
                }
            )

    emit(
        "fig23_batch_throughput",
        format_table(
            ["workload", "batch", "best-of-3", "rows/sec", "speedup"],
            [
                [
                    m["workload"],
                    m["batch_size"],
                    f"{m['seconds'] * 1000:.1f} ms",
                    f"{m['rows_per_second']:,.0f}",
                    f"{m['speedup_vs_row']:.2f}x",
                ]
                for m in measurements
            ],
        )
        + [
            "",
            f"segments={SEGMENTS}  partitions={PARTS}  "
            f"fact_rows={FACT_ROWS}",
            "",
            "scan+filter kernel (generated, report-only):",
            *("  " + line for line in _filter_kernel_source(db)),
        ],
    )
    emit_json(
        "fig23_batch_throughput",
        {
            "segments": SEGMENTS,
            "partitions": PARTS,
            "fact_rows": FACT_ROWS,
            "batch_sizes": list(BATCH_SIZES),
            "counters": counters,
            "measurements": measurements,
        },
    )

    for name, _ in WORKLOADS:
        batched = next(
            m
            for m in measurements
            if m["workload"] == name and m["batch_size"] == BATCH_SIZES[-1]
        )
        bar = SPEEDUP_BARS[name]
        assert batched["speedup_vs_row"] >= bar, (
            f"{name}: width {BATCH_SIZES[-1]} is "
            f"{batched['speedup_vs_row']:.2f}x width 1, below the {bar}x bar"
        )
