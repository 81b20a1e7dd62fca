"""The Prometheus text exposition: the format and every family.

This module is the one place that knows the text format (0.0.4) and the
one place a family is named.  :data:`FAMILIES` is a declarative table,
one row per family: name, kind, source, help text and a reader that
turns the source — a subsystem's existing JSON export — into samples.
Add a family by adding a row; no subsystem keeps a Prometheus method.
:func:`export_prometheus` renders the rows in order, reading each source
once: the scrape body that ``\\stats prometheus`` and ``/metrics`` serve,
or named sources only (``\\cache prometheus`` is the ``cache`` rows).

Every family renders identically: a ``# HELP``/``# TYPE`` header pair,
then one sample per line with sorted, escaped labels::

    family = MetricFamily("jobs_total", "counter", "Jobs run")
    family.add(12, queue="default")
    text = render([family])

Histograms follow the Prometheus convention — cumulative ``_bucket``
samples with an ``le`` label (monotonically non-decreasing, ending in
``le="+Inf"``), plus ``_sum`` and ``_count`` — via
:func:`histogram_family`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

__all__ = [
    "FAMILIES",
    "MetricFamily",
    "escape_help",
    "escape_label_value",
    "export_prometheus",
    "format_labels",
    "histogram_family",
    "render",
]

#: the metric kinds the text format knows
KINDS = ("counter", "gauge", "histogram", "summary", "untyped")


def escape_label_value(value) -> str:
    """Escape one label value (backslash, double quote, newline)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def escape_help(text: str) -> str:
    """Escape a HELP line (backslash and newline only, per the spec)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def format_labels(labels: dict | None) -> str:
    """``{k="v",...}`` with keys sorted for deterministic output, or the
    empty string for an unlabelled sample."""
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def format_value(value) -> str:
    """A sample value in the exposition format (ints stay ints, floats
    render via repr, infinities spell +Inf/-Inf)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(value)


class MetricFamily:
    """One named metric with its samples (see module docs)."""

    __slots__ = ("name", "kind", "help", "samples")

    def __init__(self, name: str, kind: str, help_text: str):
        if kind not in KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help_text
        #: (suffix, labels dict | None, value), in insertion order
        self.samples: list[tuple[str, dict | None, object]] = []

    def add(self, value, **labels) -> "MetricFamily":
        """Append one sample; returns self for chaining."""
        self.samples.append(("", labels or None, value))
        return self

    def add_sample(
        self, value, labels: dict | None = None, suffix: str = ""
    ) -> "MetricFamily":
        """Append one sample with an explicit label dict and an optional
        metric-name suffix (``_bucket``/``_sum``/``_count``)."""
        self.samples.append((suffix, dict(labels) if labels else None, value))
        return self

    def render_lines(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for suffix, labels, value in self.samples:
            lines.append(
                f"{self.name}{suffix}{format_labels(labels)} "
                f"{format_value(value)}"
            )
        return lines


def histogram_family(
    name: str,
    help_text: str,
    bounds: Sequence[float],
    bucket_counts: Sequence[int],
    total_sum: float,
    count: int,
    labels: dict | None = None,
) -> MetricFamily:
    """A Prometheus histogram family from fixed-bucket counters.

    ``bucket_counts`` holds one *non-cumulative* count per bound plus a
    final overflow bucket (``len(bounds) + 1`` entries); the rendered
    ``_bucket`` samples are cumulative, as the format requires.
    """
    if len(bucket_counts) != len(bounds) + 1:
        raise ValueError(
            f"need {len(bounds) + 1} bucket counts, got {len(bucket_counts)}"
        )
    family = MetricFamily(name, "histogram", help_text)
    cumulative = 0
    for bound, bucket in zip(bounds, bucket_counts):
        cumulative += bucket
        le = dict(labels) if labels else {}
        le["le"] = format_value(float(bound))
        family.add_sample(cumulative, le, suffix="_bucket")
    inf = dict(labels) if labels else {}
    inf["le"] = "+Inf"
    family.add_sample(count, inf, suffix="_bucket")
    family.add_sample(total_sum, labels, suffix="_sum")
    family.add_sample(count, labels, suffix="_count")
    return family


def render(families: Iterable[MetricFamily]) -> str:
    """The full exposition document: families in the given order, one
    trailing newline."""
    lines: list[str] = []
    for family in families:
        lines.extend(family.render_lines())
    return "\n".join(lines) + "\n"


# -- the family table ------------------------------------------------------

#: a reader's output: ``(labels | None, value)`` samples, or for a
#: histogram the arguments :func:`histogram_family` takes after the help
Reader = Callable[[dict], object]


def _at(export: dict, path: tuple[str, ...]):
    for key in path:
        export = export[key]
    return export


def _value(*path: str, of: Callable = lambda value: value) -> Reader:
    """One unlabelled sample: ``of`` the export's value at ``path``."""
    return lambda export: [(None, of(_at(export, path)))]


def _by(label: str, *path: str, field: str | None = None) -> Reader:
    """One ``label``-labelled sample per key of the dict at ``path`` (its
    ``field``, for a dict of dicts), key-sorted; a None value is left out."""

    def read(export: dict):
        items = sorted(_at(export, path).items())
        if field is not None:
            items = [(name, value[field]) for name, value in items]
        return [({label: name}, v) for name, v in items if v is not None]

    return read


def _per_query(field: str) -> Reader:
    return lambda export: [
        ({"query": entry["fingerprint"]}, entry[field])
        for entry in export["queries"]
    ]


def _cache(field: str) -> Reader:
    return lambda export: [({"cache": "results"}, export["results"][field])]


def _histogram(key: str) -> Reader:
    """``histogram_family``'s bounds, bucket counts, sum and count."""

    def read(export: dict):
        summary = export["histograms"][key]
        return summary["bounds"], summary["counts"], summary["sum"], summary["count"]

    return read


def _session_latency(export: dict):
    return [
        ({"session": name, "quantile": quantile}, summary[key])
        for name, summary in export["latency"].items()
        for quantile, key in (("0.5", "p50_s"), ("0.99", "p99_s"))
    ]


#: (name, kind, source, help, reader), in scrape order.  Sources:
#: ``query`` = ``db.query_stats.to_dict()``, ``cache`` =
#: ``db.cache.stats_dict()``, ``serving`` = ``server.stats_dict()`` (while
#: a server is open), ``live`` = ``db.live.to_dict()``, ``durability`` =
#: the metrics ``durability`` section (with a ``data_dir`` only).
FAMILIES: tuple[tuple[str, str, str, str, Reader], ...] = (
    ("repro_query_calls_total", "counter", "query",
     "Executions per query fingerprint", _per_query("calls")),
    ("repro_query_seconds_total", "counter", "query",
     "Cumulative wall time per query fingerprint", _per_query("total_seconds")),
    ("repro_query_seconds_max", "gauge", "query",
     "Longest single execution per query fingerprint", _per_query("max_seconds")),
    ("repro_query_rows_total", "counter", "query",
     "Rows returned per query fingerprint", _per_query("rows")),
    ("repro_query_rows_scanned_total", "counter", "query",
     "Rows read from storage per query fingerprint", _per_query("rows_scanned")),
    ("repro_query_partitions_scanned_total", "counter", "query",
     "Leaf partitions opened per query fingerprint", _per_query("partitions_scanned")),
    ("repro_query_partitions_eligible_total", "counter", "query",
     "Leaf partitions that would be opened without elimination",
     _per_query("partitions_eligible")),
    ("repro_query_retries_total", "counter", "query",
     "Slice retries per query fingerprint", _per_query("retries")),
    ("repro_query_failovers_total", "counter", "query",
     "Segment failovers per query fingerprint", _per_query("failovers")),
    ("repro_cache_hits_total", "counter", "cache",
     "Cache lookup hits", _cache("hits")),
    ("repro_cache_misses_total", "counter", "cache",
     "Cache lookup misses", _cache("misses")),
    ("repro_cache_invalidations_total", "counter", "cache",
     "Entries dropped by DML invalidation", _cache("invalidations")),
    ("repro_cache_evictions_total", "counter", "cache",
     "Entries evicted by LRU bounds", _cache("evictions")),
    ("repro_cache_stores_total", "counter", "cache",
     "Entries stored", _cache("stores")),
    ("repro_cache_entries", "gauge", "cache",
     "Entries currently cached", _cache("entries")),
    ("repro_cache_bytes", "gauge", "cache",
     "Estimated bytes cached", _cache("bytes")),
    ("repro_serving_admitted_total", "counter", "serving",
     "Queries admitted past admission control", _value("admission", "admitted")),
    ("repro_serving_rejected_total", "counter", "serving",
     "Queries shed by admission control", _by("reason", "admission", "rejected")),
    ("repro_serving_queued_seconds_total", "counter", "serving",
     "Total time admitted queries waited in the run queue",
     _value("admission", "queued_seconds_total", of=lambda s: round(s, 6))),
    ("repro_serving_queue_depth", "gauge", "serving",
     "Queries currently waiting in the run queue", _value("admission", "queue_depth")),
    ("repro_serving_inflight", "gauge", "serving",
     "Queries currently executing", _value("admission", "inflight")),
    ("repro_serving_sessions_open", "gauge", "serving",
     "Serving sessions currently open", _value("sessions_open")),
    ("repro_serving_session_inflight", "gauge", "serving",
     "Queries in flight per session", _by("session", "open_sessions", field="inflight")),
    ("repro_serving_session_latency_seconds", "gauge", "serving",
     "Per-session query latency quantiles", _session_latency),
    ("repro_live_queries", "gauge", "live",
     "Queries currently in flight", _value("in_flight", of=len)),
    ("repro_live_queries_completed_total", "counter", "live",
     "Statements completed successfully", _value("completed")),
    ("repro_live_queries_failed_total", "counter", "live",
     "Statements that raised", _value("failed")),
    ("repro_live_slow_queries_total", "counter", "live",
     "Statements recorded by the slow-query log", _value("slow_log", "records_written")),
    ("repro_live_query_seconds", "histogram", "live",
     "End-to-end statement latency", _histogram("query_seconds")),
    ("repro_live_queue_seconds", "histogram", "live",
     "Admission queue wait (serving queries)", _histogram("queue_seconds")),
    ("repro_live_partition_scan_ratio", "histogram", "live",
     "Per-query partitions scanned / eligible", _histogram("partition_scan_ratio")),
    ("repro_live_sample", "gauge", "live",
     "Most recent value of each sampled gauge series", _by("series", "series", field="last")),
    ("repro_durability_wal_records_total", "counter", "durability",
     "WAL records appended.", _value("wal_records")),
    ("repro_durability_wal_bytes_total", "counter", "durability",
     "WAL bytes appended.", _value("wal_bytes")),
    ("repro_durability_wal_fsyncs_total", "counter", "durability",
     "WAL fsync calls.", _value("wal_fsyncs")),
    ("repro_durability_checkpoints_total", "counter", "durability",
     "Checkpoints taken.", _value("checkpoints")),
    ("repro_durability_checkpoint_seconds_total", "counter", "durability",
     "Wall seconds spent checkpointing.", _value("checkpoint_seconds_total")),
    ("repro_durability_recovery_replayed_total", "counter", "durability",
     "WAL records replayed during restart recovery.", _value("recovery_replayed_records")),
    ("repro_durability_resyncing_segments", "gauge", "durability",
     "Segments currently replaying missed mutations.",
     _value("resyncing_segments", of=len)),
)


def _sources(db) -> dict[str, Callable[[], dict] | None]:
    """Source name -> the subsystem export its rows read (None = the
    subsystem is absent, and its rows are left out)."""
    server = db._server
    serving = server is not None and not server.closed
    return {
        "query": db.query_stats.to_dict,
        "cache": db.cache.stats_dict,
        "serving": server.stats_dict if serving else None,
        "live": db.live.to_dict,
        "durability": (
            db._durability_summary if db.durability is not None else None
        ),
    }


def export_prometheus(db, *sources: str) -> str:
    """The :data:`FAMILIES` rows of ``sources`` (every source when none
    are named) as one scrape body.

    Each source's export is read once per call.  Order is the table's —
    query-stats, cache, serving (only while a server is open), live,
    durability (only with a ``data_dir``) — so consecutive scrapes of an
    idle instance are byte-identical.
    """
    available = _sources(db)
    exports: dict[str, dict] = {}
    families: list[MetricFamily] = []
    for name, kind, source, help_text, read in FAMILIES:
        if available[source] is None or (sources and source not in sources):
            continue
        if source not in exports:
            exports[source] = available[source]()
        samples = read(exports[source])
        if kind == "histogram":
            family = histogram_family(name, help_text, *samples)
        else:
            family = MetricFamily(name, kind, help_text)
            for labels, value in samples:
                family.add_sample(value, labels)
        families.append(family)
    return render(families)
