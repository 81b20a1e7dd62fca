"""Figure 20 (this repo's extension) — statement-cache speedup.

The paper prunes partitions per query; for heavy repeated traffic the
next lever is not executing a repeat at all.  This benchmark drives a
skewed hot-statement workload — a small set of wide IN-list queries over
a table with many partitions, repeated with a skewed popularity
distribution — and measures what ``cache='results'`` buys against
``cache='off'`` on the same schedule: a hit serves the stored rows
without parsing, planning, selecting or scanning.  The ratio is
reported, like every other wall clock in ``benchmarks/``, and not
asserted.

Emitted counters (``workload``) are fully deterministic and gate hard in
``tools/check_bench_regression.py``; the wall clocks are report-only.

Assertions: >= 80% hit rate over the workload, with every statement
answering byte-identically to cache-off.
"""

from __future__ import annotations

import random

SEGMENTS = 4
PARTS = 192
DOMAIN = PARTS * 50  # 50-wide leaf ranges
ROWS = 2400
HOT_STATEMENTS = 16  # distinct statements in the pool
IN_LIST = 48  # keys per IN-list (wide: selector-evaluation heavy)
WORKLOAD = 100  # total queries per pass, drawn with skew


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
        TableSchema.of(("id", t.INT), ("key", t.INT), ("val", t.INT)),
        distribution=DistributionPolicy.hashed("id"),
        partition_scheme=PartitionScheme(
            [uniform_int_level("key", 0, DOMAIN, PARTS)]
        ),
    )
    rng = random.Random(2020)
    db.insert(
        "facts",
        [
            (i, rng.randrange(DOMAIN), rng.randrange(100))
            for i in range(ROWS)
        ],
    )
    db.analyze()
    return db


def _workload() -> tuple[list[str], list[str]]:
    """The statement pool and the skewed schedule (both deterministic)."""
    rng = random.Random(414)
    pool = []
    for _ in range(HOT_STATEMENTS):
        keys = sorted(rng.sample(range(DOMAIN), IN_LIST))
        in_list = ", ".join(str(k) for k in keys)
        pool.append(
            f"SELECT count(*), sum(val) FROM facts WHERE key IN ({in_list})"
        )
    # Zipf-flavoured popularity: statement i gets weight ~ 1/(i+1); the
    # hottest statement dominates, the tail still appears at least once.
    weights = [1.0 / (i + 1) for i in range(HOT_STATEMENTS)]
    total = sum(weights)
    counts = [max(1, round(w / total * WORKLOAD)) for w in weights]
    schedule = [
        pool[i] for i, count in enumerate(counts) for _ in range(count)
    ]
    # trim/pad to exactly WORKLOAD queries, hottest first for padding
    del schedule[WORKLOAD:]
    while len(schedule) < WORKLOAD:
        schedule.append(pool[0])
    rng.shuffle(schedule)
    return pool, schedule


def test_fig20_cache_speedup(benchmark):
    benchmark.pedantic(_report, rounds=1, iterations=1)


def _report():
    from ._helpers import emit, emit_json, format_table, timed

    db = _build_db()
    pool, schedule = _workload()

    # -- equivalence: the cache never changes an answer -------------------
    for sql in pool:
        cold = db.sql(sql, cache="results")  # stores
        warm = db.sql(sql, cache="results")  # a hit
        off = db.sql(sql, cache="off")
        assert cold.rows == off.rows, "cold cached run changed the answer"
        assert warm.rows == off.rows, "a cache hit changed the answer"

    # -- deterministic hit-rate counters over one clean pass --------------
    db.cache.clear()
    before = db.cache.results.to_dict()
    for sql in schedule:
        db.sql(sql, cache="results")
    after = db.cache.results.to_dict()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    stores = after["stores"] - before["stores"]
    hit_rate_pct = round(hits * 100 / (hits + misses))
    workload_counters = {
        "total_queries": WORKLOAD,
        "unique_queries": HOT_STATEMENTS,
        "hits": hits,
        "misses": misses,
        "stores": stores,
        "hit_rate_pct": hit_rate_pct,
    }

    # -- wall clock: one workload pass, cache off vs warm cache -----------
    def pass_off():
        for sql in schedule:
            db.sql(sql, cache="off")

    def pass_cached():
        for sql in schedule:
            db.sql(sql, cache="results")

    pass_cached()  # ensure every pool statement is warm before timing
    off_s = timed(pass_off)
    cached_s = timed(pass_cached)
    speedup = off_s / cached_s if cached_s else 0.0
    # every db.sql above fed the live latency histogram (report-only in
    # the regression gate: wall clocks never gate)
    percentiles = db.live.query_seconds.percentiles()

    emit(
        "fig20_cache_speedup",
        format_table(
            ["cache", "workload pass (best-of-3)", "speedup"],
            [
                ["off", f"{off_s * 1000:.1f} ms", "1.00x"],
                ["results", f"{cached_s * 1000:.1f} ms", f"{speedup:.2f}x"],
            ],
        )
        + [
            "",
            f"partitions={PARTS}  in-list={IN_LIST} keys  "
            f"workload={WORKLOAD} queries over {HOT_STATEMENTS} statements",
            f"hit rate: {hits}/{hits + misses} ({hit_rate_pct}%)  "
            f"stores: {stores}",
            f"statement latency: p50 {percentiles['p50_s'] * 1000:.1f} ms  "
            f"p95 {percentiles['p95_s'] * 1000:.1f} ms  "
            f"p99 {percentiles['p99_s'] * 1000:.1f} ms",
        ],
    )
    emit_json(
        "fig20_cache_speedup",
        {
            "partitions": PARTS,
            "in_list": IN_LIST,
            "workload": workload_counters,
            "cache_off_seconds": off_s,
            "cache_on_seconds": cached_s,
            "speedup": speedup,
            "latency_percentiles": percentiles,
        },
    )

    # The acceptance bar: >= 80% hit rate (the wall-clock ratio above is
    # report-only).
    assert hit_rate_pct >= 80, (
        f"hit rate {hit_rate_pct}% below the 80% bar"
    )
