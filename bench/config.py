"""Pinned configuration, workload sizes and the metric tables.

Everything a later before/after claim depends on is a constant here, so two
commits measured with the same ``bench/`` run the same work.
``BENCHMARK.json`` at the repository root repeats the workload names, the
contract's end-to-end metrics and the per-layer metric names; a self-test
(``bench/tests/test_contract.py``) fails when the two drift apart.
"""

from __future__ import annotations

from typing import NamedTuple

#: engine configuration every workload runs under (cache is ``off`` except
#: the two ``serve_mixed`` sessions, which use ``results``)
ENGINE = {
    "num_segments": 4,
    "workers": 1,
    "batch_size": 1024,
    "optimizer": "orca",
    "cache": "off",
}

#: ``serve_mixed``: durable database behind the serving front end
SERVING = {"max_concurrent": 2, "max_queued": 16, "pool_workers": 2}
WAL_SYNC = "sync"
SESSION_CACHE = "results"
#: the engine's default result-cache capacity; the read pool is 4x this
RESULT_CACHE_ENTRIES = 128

#: seconds of timed wall one untraced run measures (``run_seconds`` of
#: ``BENCHMARK.json``; ``--seconds`` overrides it)
RUN_SECONDS = 15

#: a timed pass repeats the fixed statement list until ``--seconds`` have
#: been measured, and never fewer than this many times
MIN_REPETITIONS = 3
#: set-up is timed this many times per run; ``setup_s`` is the median
SETUP_REPETITIONS = 3
#: untraced single-client repetitions the traced run takes as its baseline
TRACE_BASELINE_REPETITIONS = 3
#: ``--smoke`` divides rows and statements by this and runs one repetition
SMOKE_DIVISOR = 20

PARTITIONS = 361


class Sizes(NamedTuple):
    """Input sizes of one run (full, or ``--smoke`` = 1/20)."""

    point_rows: int  # facts and dim rows; also the key domain
    point_statements: int  # per repetition, four shapes round-robin
    range_width: int  # BETWEEN k AND k + range_width
    dss_fact_rows: int
    dss_items: int
    dss_customers: int
    dss_passes: int  # passes over the 33 queries per repetition
    wide_rows: int
    wide_pairs: int  # (unpartitioned, partitioned) scans per repetition
    serve_statements: int  # per client per repetition
    serve_pool: int  # distinct read statements
    expr_sample_rows: int


# The issue's sizing (1,200 / 10 passes / 50 pairs / 600 per client, R=5)
# needs ~30 s of timed work per run; the builder contract allows ~37 s per
# run in total, set-up and oracle included.  As the issue prescribes, R was
# lowered first (to at least 3) and the per-repetition statement counts were
# then scaled so one repetition takes 1.5-2.5 s.  Table sizes are unchanged.
FULL = Sizes(
    point_rows=36_100,
    point_statements=400,
    range_width=150,
    dss_fact_rows=40_000,
    dss_items=400,
    dss_customers=300,
    dss_passes=3,
    wide_rows=16_000,
    wide_pairs=20,
    serve_statements=300,
    serve_pool=4 * RESULT_CACHE_ENTRIES,
    expr_sample_rows=10_000,
)

SMOKE = Sizes(
    point_rows=FULL.point_rows // SMOKE_DIVISOR,
    point_statements=FULL.point_statements // SMOKE_DIVISOR,
    range_width=FULL.range_width,
    dss_fact_rows=FULL.dss_fact_rows // SMOKE_DIVISOR,
    dss_items=FULL.dss_items // SMOKE_DIVISOR,
    dss_customers=FULL.dss_customers // SMOKE_DIVISOR,
    dss_passes=1,
    wide_rows=FULL.wide_rows // SMOKE_DIVISOR,
    wide_pairs=FULL.wide_pairs // SMOKE_DIVISOR,
    serve_statements=FULL.serve_statements // SMOKE_DIVISOR,
    serve_pool=FULL.serve_pool // SMOKE_DIVISOR,
    expr_sample_rows=FULL.expr_sample_rows // SMOKE_DIVISOR,
)

WORKLOADS = ("point_lookup", "dss_mix", "wide_scan", "serve_mixed")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: share of the parent's median by which the metric may worsen
    #: (end-to-end only; ``None`` = no bound)
    bound: float | None = None
    #: workloads that report it (``None`` = all)
    workloads: tuple[str, ...] | None = None


_SERVE = ("serve_mixed",)

#: The nine end-to-end metrics, with the bound ``bench/compare.py`` holds
#: each to.  On a quiet host the ten-seed spread of the timings is 1-6% of
#: the median; while the host is disturbed it reaches 6-18% (30% for
#: ``p95_ms`` on ``serve_mixed``) and whole runs slow by ~20%, so the timing
#: bounds sit at the 25% the benchmark contract allows at most (see
#: bench/README.md for the measurements).
END_TO_END = (
    Metric("stmt_per_s", "1/s", "higher", 0.25),
    Metric("p50_ms", "ms", "lower", 0.25),
    Metric("p95_ms", "ms", "lower", 0.25),
    Metric("write_p50_ms", "ms", "lower", 0.25, _SERVE),
    Metric("write_p95_ms", "ms", "lower", 0.25, _SERVE),
    Metric("fail_share", "ratio", "lower", 0.0),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("recovery_s", "s", "lower", 0.25, _SERVE),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: What ``BENCHMARK.json`` lists under ``end_to_end``: the contract wants
#: each of its metrics from every workload, never zero, and steady within
#: its bound over ten seeds.  That excludes the ``serve_mixed``-only
#: figures, ``fail_share`` (0 on a healthy run; the contract's own
#: ``failed``/``attempted`` carry it) and ``p95_ms`` (its spread on
#: ``serve_mixed`` passed 25% while the host was disturbed).  The excluded
#: ones are still printed, kept in the ledger and compared, and the traced
#: run reports each per layer.
CONTRACT_END_TO_END = tuple(
    m for m in END_TO_END
    if m.name in ("stmt_per_s", "p50_ms", "setup_s", "peak_rss_mb")
)


def _lower(unit: str, *names: str) -> tuple[Metric, ...]:
    return tuple(Metric(name, unit, "lower") for name in names)


def _higher(unit: str, *names: str) -> tuple[Metric, ...]:
    return tuple(Metric(name, unit, "higher") for name in names)


#: Per-layer metrics, all taken in the single-client traced run.  Timings
#: are medians per statement, counts are means per statement of the fixed
#: list (so they repeat exactly), ratios are ratios of totals.  A metric a
#: workload does not exercise reads 0; one whose probe target is missing
#: reads -1 and the run prints the reason.
PER_LAYER = (
    *_lower("us", "sql.tokenize_us", "sql.parse_us", "sql.bind_us"),
    *_lower("us", "optimizer.optimize_us"),
    *_lower("count", "optimizer.plan_nodes", "optimizer.memo_groups"),
    *_lower("B", "optimizer.plan_bytes"),
    *_lower("us", "physical.validate_us", "catalog.select_us"),
    *_lower("count", "catalog.select_slots_visited"),
    *_lower("us", "executor.execute_us"),
    *_higher("1/s", "executor.rows_per_s"),
    *_lower(
        "count",
        "executor.rows_scanned",
        "executor.partitions_scanned",
        "executor.partitions_total",
    ),
    *_lower("ratio", "executor.scan_ratio", "executor.rows_scanned_per_result_row"),
    *_lower("count", "executor.motion_rows"),
    *_lower("B", "executor.motion_bytes"),
    *_lower("ratio", "executor.part_overhead_ratio"),
    *_lower("ms", "executor.scan_p95_ms"),
    *_lower("us", "expr.compile_us"),
    *_higher("1/s", "expr.filter_rows_per_s"),
    *_higher("1/s", "storage.scan_rows_per_s", "storage.insert_rows_per_s"),
    *_lower("us", "cache.key_us", "cache.lookup_us"),
    *_higher("ratio", "cache.result_hit_rate"),
    *_lower("count", "cache.invalidations", "cache.evictions"),
    *_lower("us", "serving.submit_overhead_us"),
    *_lower("ms", "serving.queue_wait_ms"),
    *_lower("count", "serving.shed"),
    *_lower("count", "durability.wal_fsyncs_per_commit"),
    *_lower("B", "durability.wal_bytes_per_row"),
    *_lower("us", "durability.wal_append_us", "durability.wal_fsync_us"),
    *_lower("s", "durability.checkpoint_s"),
    *_lower("count", "durability.recovery_replayed_records"),
    *_lower("ms", "durability.write_p50_ms", "durability.write_p95_ms"),
    *_lower("s", "durability.recovery_s"),
    *_lower(
        "us", "obs.fingerprint_us", "obs.live_us", "obs.record_us", "obs.export_us"
    ),
    *_lower("us", "engine.sql_us", "engine.sql_p95_us", "engine.unattributed_us"),
    *_lower(
        "ratio",
        "engine.unattributed_share",
        "engine.fixed_cost_share",
        "engine.trace_overhead_share",
        "engine.fail_share",
    ),
)

#: per-layer metrics that are counts: they must repeat exactly between two
#: traced runs of one commit with one seed
COUNT_METRICS = tuple(
    m.name
    for m in PER_LAYER
    if m.unit in ("count", "B")
    or m.name
    in (
        "executor.scan_ratio",
        "executor.rows_scanned_per_result_row",
        "cache.result_hit_rate",
        "engine.fail_share",
    )
)

#: value of a per-layer metric whose probe target could not be called
UNAVAILABLE = -1.0
