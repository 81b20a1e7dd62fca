"""The shared Prometheus text-exposition exporter.

Three subsystems grew hand-rolled Prometheus emitters (the query-stats
store, the statement cache, the serving tier) and the live-telemetry hub
adds a fourth; this module is the one place that knows the text format
(0.0.4) so every family renders identically: a ``# HELP``/``# TYPE``
header pair, then one sample per line with sorted, escaped labels.

Build a :class:`MetricFamily` per metric, add samples, and
:func:`render` the lot::

    family = MetricFamily("repro_cache_hits_total", "counter",
                          "Cache lookup hits")
    family.add(12, cache="results")
    text = render([family])

Histograms follow the Prometheus convention — cumulative ``_bucket``
samples with an ``le`` label (monotonically non-decreasing, ending in
``le="+Inf"``), plus ``_sum`` and ``_count`` — via
:func:`histogram_family`.

:func:`export_prometheus` is the consolidated scrape body: every family
the engine exports (``repro_query_*``, ``repro_cache_*``,
``repro_serving_*`` when a server runs, ``repro_live_*``) in one
deterministic document.  The CLI's ``\\stats prometheus`` and the
``/metrics`` scrape endpoint both serve exactly this.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
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


def export_prometheus(db) -> str:
    """Every Prometheus family the engine exports, in one scrape body.

    Order is fixed — query-stats, cache, serving (only while a server is
    open), live, durability (only with a ``data_dir``) — so consecutive
    scrapes of an idle instance are byte-identical.
    """
    families = list(db.query_stats.prom_families())
    families.extend(db.cache.prom_families())
    server = getattr(db, "_server", None)
    if server is not None and not server.closed:
        families.extend(server.prom_families())
    families.extend(db.live.prom_families())
    if getattr(db, "durability", None) is not None:
        families.extend(durability_families(db))
    return render(families)


def durability_families(db) -> list[MetricFamily]:
    """``repro_durability_*``: WAL, checkpoint, recovery and resync
    counters plus the number of segments currently resyncing."""
    stats = db.durability.stats_dict()
    out: list[MetricFamily] = []

    def counter(name: str, help_text: str, value) -> None:
        family = MetricFamily(
            f"repro_durability_{name}", "counter", help_text
        )
        family.add(value)
        out.append(family)

    counter("wal_records_total", "WAL records appended.", stats["wal_records"])
    counter("wal_bytes_total", "WAL bytes appended.", stats["wal_bytes"])
    counter("wal_fsyncs_total", "WAL fsync calls.", stats["wal_fsyncs"])
    counter("checkpoints_total", "Checkpoints taken.", stats["checkpoints"])
    counter(
        "checkpoint_seconds_total",
        "Wall seconds spent checkpointing.",
        stats["checkpoint_seconds_total"],
    )
    counter(
        "wal_truncations_total",
        "WAL truncations after checkpoints.",
        stats["wal_truncations"],
    )
    counter(
        "recovery_replayed_total",
        "WAL records replayed during restart recovery.",
        stats["recovery_replayed_records"],
    )
    counter(
        "resync_replayed_total",
        "WAL records replayed into rejoining copies.",
        stats["resync_replayed_records"],
    )
    gauge = MetricFamily(
        "repro_durability_resyncing_segments",
        "gauge",
        "Segments currently replaying missed mutations.",
    )
    gauge.add(len(db.health.resyncing_segments))
    out.append(gauge)
    return out
