"""Process-lifetime cumulative query statistics (pg_stat_statements-style).

One :class:`QueryStatsStore` lives for the lifetime of a
:class:`~repro.engine.Database` and aggregates every executed statement
under its normalized **fingerprint**: the statement re-tokenized with
literals replaced by ``?`` (parameters keep their ``$n``), identifiers
and keywords case-folded, whitespace canonicalised.  Two executions of
the same query shape — different constants, different spacing — share one
entry, exactly like ``pg_stat_statements``.

Per entry: calls, total/mean/max wall time, rows returned, partitions
scanned vs. eligible (the paper's elimination effectiveness, cumulative),
and resilience counters (slice retries, failovers).

Exports:

* :meth:`QueryStatsStore.to_dict` / :meth:`to_json` — stable JSON, entries
  key-sorted by fingerprint;
* :meth:`QueryStatsStore.to_prometheus` — Prometheus text exposition
  (``# HELP`` / ``# TYPE`` headers, one metric per line, fingerprint as
  the ``query`` label);
* :meth:`QueryStatsStore.render` — the ``\\stats`` CLI table.
"""

from __future__ import annotations

import json
import threading

from ..errors import ReproError
from ..sql import lexer


def fingerprint(query: str) -> str:
    """Normalize one statement to its fingerprint.

    Falls back to whitespace-collapsed lower-casing when the statement
    does not lex (the store must never fail recording).
    """
    try:
        tokens = lexer.tokenize(query)
    except ReproError:
        return " ".join(query.lower().split())
    parts: list[str] = []
    for token in tokens:
        if token.kind == lexer.EOF:
            break
        if token.kind in (lexer.NUMBER, lexer.STRING):
            parts.append("?")
        elif token.kind == lexer.PARAM:
            parts.append(f"${token.value}")
        else:
            parts.append(str(token.value))
    return " ".join(parts)


class QueryStats:
    """Cumulative counters for one query fingerprint."""

    __slots__ = (
        "fingerprint",
        "calls",
        "total_seconds",
        "max_seconds",
        "rows",
        "rows_scanned",
        "partitions_scanned",
        "partitions_eligible",
        "retries",
        "failovers",
    )

    def __init__(self, fp: str):
        self.fingerprint = fp
        self.calls = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0
        self.rows = 0
        self.rows_scanned = 0
        self.partitions_scanned = 0
        self.partitions_eligible = 0
        self.retries = 0
        self.failovers = 0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "calls": self.calls,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "max_seconds": self.max_seconds,
            "rows": self.rows,
            "rows_scanned": self.rows_scanned,
            "partitions_scanned": self.partitions_scanned,
            "partitions_eligible": self.partitions_eligible,
            "retries": self.retries,
            "failovers": self.failovers,
        }


class QueryStatsStore:
    """Fingerprint → :class:`QueryStats`, fed by the engine per statement."""

    def __init__(self):
        self._entries: dict[str, QueryStats] = {}
        #: one store serves every query of a Database — queries issued
        #: from different threads must not tear an entry's counters
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, query: str, result) -> QueryStats:
        """Fold one :class:`~repro.executor.executor.ExecutionResult` into
        the store under ``query``'s fingerprint; returns the updated
        entry."""
        return self.record_fingerprint(fingerprint(query), result)

    def record_fingerprint(self, fp: str, result) -> QueryStats:
        """:meth:`record` for a statement already fingerprinted: the
        engine passes its live activity's, so observing a statement lexes
        it once."""
        metrics = result.metrics
        elapsed = result.elapsed_seconds
        with self._lock:
            entry = self._entries.get(fp)
            if entry is None:
                entry = QueryStats(fp)
                self._entries[fp] = entry
            entry.calls += 1
            entry.total_seconds += elapsed
            entry.max_seconds = max(entry.max_seconds, elapsed)
            entry.rows += len(result.rows)
            entry.rows_scanned += metrics.total_rows_scanned
            entry.partitions_scanned += metrics.partitions_scanned()
            entry.partitions_eligible += metrics.partitions_eligible
            entry.retries += metrics.retry_count
            entry.failovers += metrics.failover_count
        return entry

    def get(self, query_or_fingerprint: str) -> QueryStats | None:
        """Look up by raw query text or by an exact fingerprint."""
        fp = query_or_fingerprint
        if fp not in self._entries:
            fp = fingerprint(query_or_fingerprint)
        return self._entries.get(fp)

    def entries(self) -> list[QueryStats]:
        """All entries, fingerprint-sorted (the stable export order)."""
        return [self._entries[fp] for fp in sorted(self._entries)]

    def reset(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- exports -------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "queries": [entry.to_dict() for entry in self.entries()],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def prom_families(self) -> list:
        """The ``repro_query_*`` families (one sample per fingerprint)
        for the shared exporter (:mod:`repro.obs.prom`)."""
        from .prom import MetricFamily

        metrics = [
            ("repro_query_calls_total", "counter",
             "Executions per query fingerprint",
             lambda e: e.calls),
            ("repro_query_seconds_total", "counter",
             "Cumulative wall time per query fingerprint",
             lambda e: e.total_seconds),
            ("repro_query_seconds_max", "gauge",
             "Longest single execution per query fingerprint",
             lambda e: e.max_seconds),
            ("repro_query_rows_total", "counter",
             "Rows returned per query fingerprint",
             lambda e: e.rows),
            ("repro_query_rows_scanned_total", "counter",
             "Rows read from storage per query fingerprint",
             lambda e: e.rows_scanned),
            ("repro_query_partitions_scanned_total", "counter",
             "Leaf partitions opened per query fingerprint",
             lambda e: e.partitions_scanned),
            ("repro_query_partitions_eligible_total", "counter",
             "Leaf partitions that would be opened without elimination",
             lambda e: e.partitions_eligible),
            ("repro_query_retries_total", "counter",
             "Slice retries per query fingerprint",
             lambda e: e.retries),
            ("repro_query_failovers_total", "counter",
             "Segment failovers per query fingerprint",
             lambda e: e.failovers),
        ]
        entries = self.entries()
        families = []
        for name, kind, help_text, value_of in metrics:
            family = MetricFamily(name, kind, help_text)
            for entry in entries:
                family.add(value_of(entry), query=entry.fingerprint)
            families.append(family)
        return families

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4): ``# HELP``/``# TYPE``
        headers, one sample per line, the fingerprint as ``query`` label."""
        from .prom import render

        return render(self.prom_families())

    def render(self, limit: int = 50) -> str:
        """The ``\\stats`` table: entries by cumulative time, descending."""
        if not self._entries:
            return "query statistics: empty (no statements recorded)"
        ranked = sorted(
            self._entries.values(),
            key=lambda e: (-e.total_seconds, e.fingerprint),
        )[:limit]
        header = (
            f"{'calls':>6}  {'total ms':>9}  {'mean ms':>8}  {'max ms':>8}  "
            f"{'rows':>8}  {'parts k/N':>10}  query"
        )
        lines = [
            f"query statistics ({len(self._entries)} fingerprints):",
            header,
            "-" * len(header),
        ]
        for e in ranked:
            parts = f"{e.partitions_scanned}/{e.partitions_eligible}"
            query = e.fingerprint
            if len(query) > 60:
                query = query[:57] + "..."
            lines.append(
                f"{e.calls:>6}  {e.total_seconds * 1000:>9.2f}  "
                f"{e.mean_seconds * 1000:>8.2f}  {e.max_seconds * 1000:>8.2f}  "
                f"{e.rows:>8}  {parts:>10}  {query}"
            )
        return "\n".join(lines)
