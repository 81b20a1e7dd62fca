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
and resilience counters (slice retries, failovers).  The engine folds
each finished statement's :class:`~repro.obs.live.QueryActivity`, so an
entry's time is the time the live latency histogram observed for its
statements, less any admission queue wait.

Exports:

* :meth:`QueryStatsStore.to_dict` / :meth:`to_json` — stable JSON, entries
  key-sorted by fingerprint; the ``repro_query_*`` Prometheus families
  (:data:`repro.obs.prom.FAMILIES`) read this dict;
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


#: the per-statement counters an entry sums, in export order (a finished
#: :class:`~repro.obs.live.QueryActivity` carries the same fields)
COUNTERS = (
    "rows",
    "rows_scanned",
    "partitions_scanned",
    "partitions_eligible",
    "retries",
    "failovers",
)


class QueryStats:
    """Cumulative counters for one query fingerprint."""

    __slots__ = (
        "fingerprint", "calls", "total_seconds", "max_seconds", *COUNTERS
    )

    def __init__(self, fp: str):
        self.fingerprint = fp
        self.calls = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0
        for name in COUNTERS:
            setattr(self, name, 0)

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
            **{name: getattr(self, name) for name in COUNTERS},
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
        the store under ``query``'s fingerprint, timed by its executor
        time; returns the updated entry."""
        metrics = result.metrics
        counts = (
            len(result.rows),
            metrics.total_rows_scanned,
            metrics.partitions_scanned(),
            metrics.partitions_eligible,
            metrics.retry_count,
            metrics.failover_count,
        )
        return self._fold(fingerprint(query), result.elapsed_seconds, counts)

    def record_activity(self, activity) -> QueryStats:
        """Fold one finished :class:`~repro.obs.live.QueryActivity` (the
        engine's path): the values :meth:`LiveTelemetry.complete` fixed on
        it, timed as the live histogram observed it less its queue wait."""
        seconds = activity.elapsed_seconds - (activity.queued_seconds or 0.0)
        counts = [getattr(activity, name) for name in COUNTERS]
        return self._fold(activity.fingerprint, seconds, counts)

    def _fold(self, fp: str, seconds: float, counts) -> QueryStats:
        """One call of ``fp`` taking ``seconds``; ``counts`` line up with
        :data:`COUNTERS`."""
        with self._lock:
            entry = self._entries.get(fp)
            if entry is None:
                entry = self._entries[fp] = QueryStats(fp)
            entry.calls += 1
            entry.total_seconds += seconds
            entry.max_seconds = max(entry.max_seconds, seconds)
            for name, count in zip(COUNTERS, counts):
                setattr(entry, name, getattr(entry, name) + count)
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
