"""Per-layer metrics, derived from a trace file in a second step.

Input is the span list ``bench/trace.py`` wrote; nothing here touches the
engine.  Timings are medians per statement in the unit the metric's name
ends with; counts noted per statement are means over the statements of the
traced repetition; counters read from a stats export (cache invalidations
and evictions, refusals, replayed records) are totals over it; ratios are
ratios of totals.  A metric the workload does not exercise reads 0.  A
metric whose probe was noted ``unavailable`` reads ``config.UNAVAILABLE`` and
is returned with the reason.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from . import config, gen
from .passes import percentile

#: the staged calls that together stand for one ``sql()`` call; the other
#: spans under a statement (tokenize, fingerprint, export, select) repeat
#: work these already include or that ``sql()`` does not do
STAGED = frozenset(
    ("key", "lookup", "begin", "parse", "bind", "optimize", "validate",
     "execute", "commit", "record", "live", "sql")
)


def _seconds(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


class _Trace:
    def __init__(self, spans: list[dict]):
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.unavailable: dict[str, str] = {}
        for span in spans:
            if span["trace_id"] == "unavailable":
                self.unavailable[span["span"]] = span["counts"]["reason"]
            else:
                self.by_name[span["span"]].append(span)
        self.statements = self.by_name["statement"]

    def median(self, name: str, scale: float) -> float:
        spans = self.by_name[name]
        return statistics.median(_seconds(s) for s in spans) * scale if spans else 0.0

    def seconds(self, name: str) -> float:
        return sum(_seconds(s) for s in self.by_name[name])

    def total(self, name: str, count: str) -> float:
        return sum(s["counts"].get(count, 0) for s in self.by_name[name])

    def per_statement(self, name: str, count: str) -> float:
        return _ratio(self.total(name, count), len(self.statements))

    def per_note(self, name: str, count: str) -> float:
        return _ratio(self.total(name, count), len(self.by_name[name]))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(spans: list[dict]) -> tuple[dict[str, float], dict[str, str]]:
    """``(metrics, unavailable)``: every per-layer metric by name, and the
    reason for each one that could not be measured."""
    t = _Trace(spans)
    us, ms = 1e6, 1e3
    c = "execute_counts"
    untraced = t.by_name["untraced"]
    ok = [s for s in untraced if s["counts"]["ok"]]
    writes_ms = [_seconds(s) * ms for s in ok if s["counts"]["kind"] != "select"]

    def sql_is(table: str) -> list[float]:
        return [
            _seconds(s) * ms for s in ok if s["counts"]["sql"] == f"SELECT * FROM {table}"
        ]

    flat, weekly = sql_is(gen.FLAT), sql_is(gen.WEEKLY)
    cache = t.by_name["cache_stats"][0]["counts"] if t.by_name["cache_stats"] else {}
    admission = (
        t.by_name["admission_stats"][0]["counts"] if t.by_name["admission_stats"] else {}
    )

    # one untraced figure per statement index: the median over baseline passes
    by_index: dict[int, list[float]] = defaultdict(list)
    for span in untraced:
        by_index[span["counts"]["index"]].append(_seconds(span))
    baseline = {i: statistics.median(v) for i, v in by_index.items()}
    staged: dict[int, float] = defaultdict(float)
    index_of = {s["trace_id"]: s["counts"]["index"] for s in t.statements}
    for name in STAGED:
        for span in t.by_name[name]:
            if span["parent"] == "statement":
                staged[index_of[span["trace_id"]]] += _seconds(span)
    traced = sorted(set(index_of.values()) & set(baseline))
    gaps = [baseline[i] - staged[i] for i in traced]
    baseline_total = sum(baseline[i] for i in traced)
    # everything a statement pays whatever its row count: the staged calls
    # other than execution, plus partition selection once per segment for
    # the statements that were executed (a cache hit selects nothing)
    fixed = sum(t.seconds(name) for name in STAGED - {"execute", "sql"})
    executed = {s["trace_id"] for s in t.by_name["execute"]}
    fixed += t.total("config", "num_segments") * sum(
        _seconds(s) for s in t.by_name["select"] if s["trace_id"] in executed
    )

    #: metric -> (spans it needs, value)
    table = {
        "sql.tokenize_us": (["tokenize"], t.median("tokenize", us)),
        "sql.parse_us": (["parse"], t.median("parse", us)),
        "sql.bind_us": (["bind"], t.median("bind", us)),
        "optimizer.optimize_us": (["optimize"], t.median("optimize", us)),
        "optimizer.plan_nodes": (["optimize", "plan"], t.per_note("plan", "nodes")),
        "optimizer.plan_bytes": (["optimize", "plan"], t.per_note("plan", "bytes")),
        "optimizer.memo_groups": (["memo"], t.per_note("memo_counts", "groups")),
        "physical.validate_us": (["validate"], t.median("validate", us)),
        "catalog.select_us": (["select"], t.median("select", us)),
        "catalog.select_slots_visited": (
            ["select", "select_counts"], t.per_note("select_counts", "slots_visited"),
        ),
        "executor.execute_us": (["execute"], t.median("execute", us)),
        "executor.rows_per_s": (
            ["execute", c], _ratio(t.total(c, "rows_scanned"), t.seconds("execute")),
        ),
        "executor.rows_scanned": (["execute", c], t.per_statement(c, "rows_scanned")),
        "executor.partitions_scanned": (
            ["execute", c], t.per_statement(c, "partitions_scanned"),
        ),
        "executor.partitions_total": (
            ["execute", c], t.per_statement(c, "partitions_total"),
        ),
        "executor.scan_ratio": (
            ["execute", c],
            _ratio(t.total(c, "partitions_scanned"), t.total(c, "partitions_total")),
        ),
        "executor.rows_scanned_per_result_row": (
            ["execute", c], _ratio(t.total(c, "rows_scanned"), t.total(c, "result_rows")),
        ),
        "executor.motion_rows": (["execute", c], t.per_statement(c, "motion_rows")),
        "executor.motion_bytes": (["execute", c], t.per_statement(c, "motion_bytes")),
        "executor.part_overhead_ratio": (
            [],
            _ratio(statistics.median(weekly), statistics.median(flat)) if flat and weekly else 0.0,
        ),
        "executor.scan_p95_ms": ([], percentile(flat + weekly, 0.95) if flat else 0.0),
        "expr.compile_us": (["compile"], t.median("compile", us)),
        "expr.filter_rows_per_s": (
            ["compile", "filter"],
            _ratio(t.total("filter_counts", "rows"), t.seconds("filter")),
        ),
        "storage.scan_rows_per_s": (
            ["scan_batches"], _ratio(t.total("scan_counts", "rows"), t.seconds("scan_batches")),
        ),
        "storage.insert_rows_per_s": (
            [], _ratio(t.total("bulk_insert", "rows"), t.total("bulk_insert", "seconds")),
        ),
        "cache.key_us": (["key"], t.median("key", us)),
        "cache.lookup_us": (["lookup"], t.median("lookup", us)),
        "cache.result_hit_rate": (
            ["cache_stats", "key", "lookup", "commit"],
            _ratio(cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)),
        ),
        "cache.invalidations": (["cache_stats"], cache.get("invalidations", 0)),
        "cache.evictions": (["cache_stats"], cache.get("evictions", 0)),
        "serving.submit_overhead_us": (
            ["db_sql", "session_sql"],
            t.median("session_sql", us) - t.median("db_sql", us),
        ),
        "serving.queue_wait_ms": (
            ["admission_stats"],
            _ratio(admission.get("queued_seconds_total", 0), admission.get("queued_grants", 0)) * ms,
        ),
        "serving.shed": (["admission_stats"], admission.get("rejected", 0)),
        "durability.wal_fsyncs_per_commit": (["wal"], t.per_note("wal", "fsyncs")),
        "durability.wal_bytes_per_row": (
            ["wal"], _ratio(t.total("wal", "bytes"), t.total("wal", "rows")),
        ),
        "durability.wal_append_us": (["wal_append"], t.median("wal_append", us)),
        "durability.wal_fsync_us": (["wal_fsync"], t.median("wal_fsync", us)),
        "durability.checkpoint_s": (["checkpoint"], t.median("checkpoint", 1.0)),
        "durability.recovery_replayed_records": (
            ["recovery"], t.total("recovery_counts", "replayed"),
        ),
        "durability.write_p50_ms": ([], percentile(writes_ms, 0.50) if writes_ms else 0.0),
        "durability.write_p95_ms": ([], percentile(writes_ms, 0.95) if writes_ms else 0.0),
        "durability.recovery_s": (["recovery"], t.median("recovery", 1.0)),
        "obs.fingerprint_us": (["fingerprint"], t.median("fingerprint", us)),
        "obs.live_us": (["live"], t.median("live", us)),
        "obs.record_us": (["record"], t.median("record", us)),
        "obs.export_us": (["export"], t.median("export", us)),
        "engine.sql_us": ([], statistics.median(map(_seconds, ok)) * us if ok else 0.0),
        "engine.sql_p95_us": (
            [], percentile([_seconds(s) * us for s in ok], 0.95) if ok else 0.0,
        ),
        "engine.unattributed_us": ([], statistics.median(gaps) * us if gaps else 0.0),
        "engine.unattributed_share": ([], _ratio(sum(gaps), baseline_total)),
        "engine.fixed_cost_share": ([], _ratio(fixed, baseline_total)),
        "engine.trace_overhead_share": (
            [], _ratio(t.seconds("statement") - baseline_total, baseline_total),
        ),
        "engine.fail_share": (
            [],
            _ratio(sum(not s["counts"]["ok"] for s in t.statements), len(t.statements)),
        ),
    }
    metrics, unavailable = {}, {}
    for metric in config.PER_LAYER:
        needs, value = table[metric.name]
        missing = [name for name in needs if name in t.unavailable]
        if missing:
            metrics[metric.name] = config.UNAVAILABLE
            unavailable[metric.name] = f"{missing[0]}: {t.unavailable[missing[0]]}"
        else:
            metrics[metric.name] = float(value)
    return metrics, unavailable
