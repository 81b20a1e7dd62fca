"""The traced pass: each statement driven through the layers one call at a time.

A read goes ``key -> cache lookup -> tokenize -> parse -> bind -> optimize ->
validate -> execute -> record`` (the two cache calls only where the result
cache is on); a write goes ``parse -> bind`` and then through ``sql()``
whole, with the WAL counters read before and after.  Every call is a span in
the :class:`~bench.trace.Recorder`; counts (rows scanned, partitions opened,
plan size, WAL bytes) are recorded as notes at the same boundary.  After the
statements, a set of stand-alone probes times the entry points a statement
does not reach from outside on its own (partition selection, predicate
compilation, a storage scan, a WAL append and fsync, the serving submit path).

Single client, no timers running: counts repeat exactly.  Every probe is
isolated: when its target cannot be imported or called, the reason is noted
once under ``unavailable``, the metrics that need it read as unavailable, and
the pass goes on.
"""

from __future__ import annotations

import copy
import importlib
import json
from pathlib import Path

from . import config
from .gen import Stmt
from .passes import Checker
from .trace import Recorder
from .workloads import Built, Workload

OPTIMIZER = config.ENGINE["optimizer"]
#: repetitions of the storage-scan, WAL and serving-overhead probes
PROBE_REPEATS = 5
WAL_PROBE_RECORDS = 100
SERVING_PROBE_STATEMENTS = 100

_MISSING = object()

#: span name -> (layer, module, attribute) of the imported entry points the
#: staged calls time; each is resolved once, before any span opens
_TARGETS = {
    "tokenize": ("sql", "repro.sql.lexer", "tokenize"),
    "parse": ("sql", "repro.sql", "parse"),
    "key": ("cache", "repro.cache.keys", "statement_key"),
    "commit": ("cache", "repro.cache", "result_footprint"),
    "fingerprint": ("obs", "repro.obs.stats_store", "fingerprint"),
    "compile": ("expr", "repro.expr.eval", "compile_predicate"),
}


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(module), name)


class TracedPass:
    def __init__(
        self,
        workload: Workload,
        built: Built,
        checker: Checker,
        recorder: Recorder,
        scratch: Path,
    ):
        self.workload = workload
        self.built = built
        self.db = built.db
        self.checker = checker
        self.rec = recorder
        self.scratch = scratch
        self.cache_on = workload.cache == "results"
        self._dead: set[str] = set()
        self._counting: dict[str, tuple] = {}
        self._fn = {
            name: self._try(name, layer, lambda: _resolve(module, attribute))
            for name, (layer, module, attribute) in _TARGETS.items()
        }

    # -- guarded calls --------------------------------------------------------------

    def _try(self, name: str, layer: str, fn):
        """Run ``fn``; the first failure of a probe marks it unavailable for
        the rest of the pass."""
        if name in self._dead:
            return _MISSING
        try:
            return fn()
        except Exception as error:  # isolation boundary: note the reason, go on
            self._dead.add(name)
            self.rec.note("unavailable", name, layer, reason=repr(error))
            return _MISSING

    def _call(self, trace_id: str, name: str, layer: str, fn, parent="statement"):
        """:meth:`_try` inside a span."""

        def timed():
            with self.rec.span(trace_id, name, layer, parent):
                return fn()

        return self._try(name, layer, timed)

    # -- statements -------------------------------------------------------------------

    def run(self, stmts: list[Stmt]) -> None:
        cache_before = self._cache_stats()
        admission_before = self._admission_stats()
        for index, stmt in enumerate(stmts):
            trace_id = f"s{index}"
            with self.rec.span(trace_id, "statement", "engine") as counts:
                counts["index"] = index
                counts["kind"] = stmt.kind
                if stmt.kind == "select":
                    reply = self._read(trace_id, stmt)
                else:
                    reply = self._write(trace_id, stmt)
            counts["ok"] = self.checker.settle(stmt, reply, sequential=True)
        self.rec.note("pass", "cache_stats", "cache", **delta(cache_before, self._cache_stats()))
        self.rec.note(
            "pass", "admission_stats", "serving",
            **delta(admission_before, self._admission_stats()),
        )

    def _sql(self, trace_id: str, stmt: Stmt):
        """The whole statement through ``sql()``: how a write runs, and the
        fallback when a staged call is unavailable."""
        try:
            with self.rec.span(trace_id, "sql", "engine", "statement"):
                return self.built.clients[0](stmt.sql, params=stmt.params)
        except Exception as error:
            return error

    def _read(self, trace_id: str, stmt: Stmt):
        reply = self._staged_read(trace_id, stmt)
        if reply is _MISSING:
            reply = self._sql(trace_id, stmt)
        self._observers(trace_id, stmt, reply)
        self._selection_probe(trace_id, stmt)
        return reply

    def _staged_read(self, trace_id: str, stmt: Stmt):
        db, sql, params = self.db, stmt.sql, stmt.params
        call = lambda name, layer, fn: self._call(trace_id, name, layer, fn)  # noqa: E731
        session = None
        if self.cache_on:
            key = call(
                "key", "cache", lambda: self._fn["key"](sql, params, OPTIMIZER, False)
            )
            if key is _MISSING:
                return _MISSING
            entry = call("lookup", "cache", lambda: db.cache.lookup_result(key))
            if entry is _MISSING:
                return _MISSING
            if entry is not None:
                return _Reply(list(entry.rows))
            session = call(
                "begin", "cache", lambda: db.cache.begin(key, self.workload.cache)
            )
        call("tokenize", "sql", lambda: self._fn["tokenize"](sql))
        statement = call("parse", "sql", lambda: self._fn["parse"](sql))
        if statement is _MISSING:
            return _MISSING
        logical = call("bind", "sql", lambda: db.binder.bind(statement))
        if logical is _MISSING:
            return _MISSING
        plan = call(
            "optimize", "optimizer",
            lambda: db.make_optimizer(OPTIMIZER).optimize(
                logical, len(params) if params else 0
            ),
        )
        if plan is _MISSING:
            return _MISSING
        call("validate", "physical", plan.validate)
        result = call("execute", "executor", lambda: db.execute_plan(plan, params))
        if result is _MISSING:
            return _MISSING
        self._note_plan(trace_id, plan)
        if session is not None and session is not _MISSING:
            call(
                "commit", "cache",
                lambda: _commit_result(self._fn["commit"], session, plan, result),
            )
        return result

    def _note_plan(self, trace_id: str, plan) -> None:
        self._try(
            "plan", "optimizer",
            lambda: self.rec.note(
                trace_id, "plan", "optimizer",
                nodes=plan.node_count(), bytes=plan.size_bytes(),
            ),
        )

    def _observers(self, trace_id: str, stmt: Stmt, reply) -> None:
        """The observer calls ``sql()`` makes around a statement, and the
        metrics export, each on its own."""
        db, sql = self.db, stmt.sql
        call = lambda name, fn: self._call(trace_id, name, "obs", fn)  # noqa: E731
        call("fingerprint", lambda: self._fn["fingerprint"](sql))
        call("live", lambda: db.live.complete(db.live.begin(sql)))
        metrics = getattr(reply, "metrics", None)
        if metrics is None:
            return  # a cache hit or an error: nothing was executed
        call("record", lambda: db.query_stats.record(sql, reply))
        exported = call("export", metrics.to_json)
        if exported is _MISSING:
            return

        def note_counts():
            export = json.loads(exported)
            totals, tables = export["totals"], export["tables"].values()
            self.rec.note(
                trace_id, "execute_counts", "executor",
                rows_scanned=totals["rows_scanned"],
                partitions_scanned=totals["partitions_scanned"],
                partitions_total=sum(t["partitions_total"] or 0 for t in tables),
                motion_rows=totals["motion_rows"],
                motion_bytes=totals["motion_bytes"],
                result_rows=len(reply.rows),
            )

        self._try("execute_counts", "executor", note_counts)

    def _selection_probe(self, trace_id: str, stmt: Stmt) -> None:
        """``PartitionScheme.select`` with this statement's own constants,
        then once more on a copy whose slots count how often they are
        examined."""
        selection = stmt.selection
        if selection is None:
            return

        def prepare():
            from repro.catalog import Interval, IntervalSet

            scheme = self.db.catalog.table(selection.table).partition_scheme
            if not selection.ranges:
                return scheme, None
            return scheme, {
                selection.key: IntervalSet(
                    [Interval(lo, hi, True, True) for lo, hi in selection.ranges]
                )
            }

        prepared = self._try("select", "catalog", prepare)
        if prepared is _MISSING:
            return
        scheme, wanted = prepared
        leaves = self._call(trace_id, "select", "catalog", lambda: scheme.select(wanted))
        if leaves is _MISSING:
            return

        def count_slots():
            if selection.table not in self._counting:
                self._counting[selection.table] = _counting_scheme(scheme)
            counted, visits = self._counting[selection.table]
            visits[0] = 0
            counted.select(wanted)
            self.rec.note(
                trace_id, "select_counts", "catalog",
                slots_visited=visits[0], leaves_selected=len(leaves),
            )

        self._try("select_counts", "catalog", count_slots)

    def _write(self, trace_id: str, stmt: Stmt):
        db, sql = self.db, stmt.sql
        call = lambda name, fn: self._call(trace_id, name, "sql", fn)  # noqa: E731
        call("tokenize", lambda: self._fn["tokenize"](sql))
        statement = call("parse", lambda: self._fn["parse"](sql))
        if statement is not _MISSING:
            if type(statement).__name__ == "InsertStmt":
                call("bind", lambda: db.binder.bind_insert_rows(statement))
            else:
                call("bind", lambda: db.binder.bind(statement))
        before = self._durability_stats()
        reply = self._sql(trace_id, stmt)
        after = self._durability_stats()
        if before and not isinstance(reply, Exception):
            self.rec.note(
                trace_id, "wal", "durability",
                fsyncs=after["wal_fsyncs"] - before["wal_fsyncs"],
                bytes=after["wal_bytes"] - before["wal_bytes"],
                records=after["wal_records"] - before["wal_records"],
                rows=reply.rows[0][0],
            )
        return reply

    # -- stats exports ---------------------------------------------------------------------

    def _cache_stats(self) -> dict:
        stats = self._try("cache_stats", "cache", lambda: cache_counters(self.db))
        return {} if stats is _MISSING else stats

    def _admission_stats(self) -> dict:
        if self.built.server is None:
            return {}
        stats = self._try(
            "admission_stats", "serving", lambda: admission_counters(self.built.server)
        )
        return {} if stats is _MISSING else stats

    def _durability_stats(self) -> dict:
        if self.db.durability is None:
            return {}
        stats = self._try("wal", "durability", self.db.durability.stats_dict)
        return {} if stats is _MISSING else stats

    # -- stand-alone probes -------------------------------------------------------------------

    def probes(self, stmts: list[Stmt]) -> None:
        shapes = self._distinct_shapes(stmts)
        for stmt in shapes:
            self._memo_probe(stmt)
            self._expr_probe(stmt)
        self._storage_probe()
        if self.db.durability is not None:
            self._wal_probe()
        if self.built.server is not None:
            self._serving_probe()

    def _distinct_shapes(self, stmts: list[Stmt]) -> list[Stmt]:
        """One read per fingerprint (or per SQL text without it)."""
        fingerprint = self._fn["fingerprint"]
        if fingerprint is _MISSING:
            fingerprint = lambda sql: sql  # noqa: E731
        seen: dict[str, Stmt] = {}
        for stmt in stmts:
            if stmt.kind == "select":
                seen.setdefault(fingerprint(stmt.sql), stmt)
        return list(seen.values())

    def _plan(self, stmt: Stmt):
        return self.db.plan(
            stmt.sql, OPTIMIZER, parameter_count=len(stmt.params) if stmt.params else 0
        )

    def _memo_probe(self, stmt: Stmt) -> None:
        def groups():
            tracer = _resolve("repro.obs.trace", "Tracer")()
            with _resolve("repro.obs.trace", "activate")(tracer):
                self._plan(stmt)
            return tracer.optimizer.summary()["groups"]

        found = self._call("probe", "memo", "optimizer", groups, parent=None)
        if found is not _MISSING:
            self.rec.note("probe", "memo_counts", "optimizer", groups=found)

    def _expr_probe(self, stmt: Stmt) -> None:
        """Compile each scan-level filter of the statement's plan, then
        apply it to a fixed sample of the table under it."""
        filters = self._try(
            "compile", "expr",
            lambda: [
                (op, table)
                for op in self._plan(stmt).walk()
                if type(op).__name__ == "Filter"
                and (table := _table_under(op)) is not None
            ],
        )
        if filters is _MISSING:
            return
        for op, table in filters:
            layout = op.children[0].output_layout()
            predicate = self._call(
                "probe", "compile", "expr",
                lambda: self._fn["compile"](op.predicate, layout, stmt.params),
                parent=None,
            )
            if predicate is _MISSING:
                return
            sample = self._sample(table)
            kept = self._call(
                "probe", "filter", "expr",
                lambda: sum(1 for row in sample if predicate(row)),
                parent=None,
            )
            if kept is not _MISSING:
                self.rec.note("probe", "filter_counts", "expr", rows=len(sample), kept=kept)

    def _sample(self, table: str) -> list[tuple]:
        limit = self.workload.sizes.expr_sample_rows
        return self.workload.dataset.rows[table][:limit]

    def _storage_probe(self) -> None:
        def scan():
            store = self.db.storage.store_by_name(self.workload.probe_table)
            return sum(
                len(batch)
                for segment in range(self.db.num_segments)
                for batch in store.scan_segment_batches(
                    segment, batch_size=config.ENGINE["batch_size"]
                )
            )

        for _ in range(PROBE_REPEATS):
            rows = self._call("probe", "scan_batches", "storage", scan, parent=None)
            if rows is _MISSING:
                return
            self.rec.note("probe", "scan_counts", "storage", rows=rows)

    def _wal_probe(self) -> None:
        """Append and fsync records the size of this workload's inserts on
        a scratch log file."""
        record = {
            "type": "insert", "segment": 0, "table": 16384, "oid": 16385,
            "row": [10_000_000, 18_050, 500.0], "copies": [True, True],
            "lsn": 1, "xid": 1,
        }
        path = self.scratch / "probe.wal"
        opened = self._try(
            "wal_append", "durability",
            lambda: _resolve("repro.durability.wal", "WalFile").open(path),
        )
        if opened is _MISSING:
            return
        wal, _ = opened
        try:
            for _ in range(WAL_PROBE_RECORDS):
                appended = self._call(
                    "probe", "wal_append", "durability",
                    lambda: wal.append(record), parent=None,
                )
                synced = self._call(
                    "probe", "wal_fsync", "durability", wal.sync, parent=None
                )
                if appended is _MISSING or synced is _MISSING:
                    return
        finally:
            wal.close()
            path.unlink(missing_ok=True)

    def _serving_probe(self) -> None:
        """The same reads through ``db.sql()`` and through a session, both
        uncached: the difference is the submit path."""
        stmts = self.workload.distinct_statements()[:SERVING_PROBE_STATEMENTS]
        session_sql = self.built.clients[0]
        for stmt in stmts:
            direct = self._call(
                "probe", "db_sql", "serving",
                lambda: self.db.sql(stmt.sql, params=stmt.params), parent=None,
            )
            served = self._call(
                "probe", "session_sql", "serving",
                lambda: session_sql(stmt.sql, params=stmt.params, cache="off"),
                parent=None,
            )
            if direct is _MISSING or served is _MISSING:
                return


class _Reply:
    """A result-cache hit: rows and nothing executed."""

    def __init__(self, rows: list[tuple]):
        self.rows = rows


def _commit_result(result_footprint, session, plan, result) -> None:
    """What ``sql()`` does after a result-cache miss: store the rows under
    the partitions the run opened."""
    footprint = result_footprint(plan.root, result.metrics.tracker.partitions)
    if footprint is not None:
        session.commit_result(result.rows, result.column_names, footprint)


def _table_under(op) -> str | None:
    """The table a filter reads directly (through a partition selector),
    or ``None`` when something else produces its input."""
    node = op.children[0]
    while type(node).__name__ == "PartitionSelector" and node.children:
        node = node.children[0]
    if type(node).__name__ in ("Scan", "DynamicScan"):
        return node.table.name
    return None


def _counting_scheme(scheme):
    """A copy of ``scheme`` whose slot constraints count each examination."""
    from repro.catalog import IntervalSet, PartitionSlot

    visits = [0]

    class Counting(IntervalSet):
        __slots__ = ()

        def overlaps(self, other):
            visits[0] += 1
            return super().overlaps(other)

        def contains(self, value):
            visits[0] += 1
            return super().contains(value)

    counted = copy.copy(scheme)
    levels = []
    for level in scheme.levels:
        clone = copy.copy(level)
        clone.slots = tuple(
            PartitionSlot(slot.name, Counting(slot.constraint.intervals))
            for slot in level.slots
        )
        levels.append(clone)
    counted.levels = tuple(levels)
    return counted, visits


def cache_counters(db) -> dict:
    """The result cache's counters from its public stats export."""
    results = db.cache.stats_dict()["results"]
    return {k: results[k] for k in ("hits", "misses", "invalidations", "evictions")}


def admission_counters(server) -> dict:
    """The admission controller's counters from the server's stats export."""
    stats = server.stats_dict()["admission"]
    return {
        "queued_seconds_total": stats["queued_seconds_total"],
        "queued_grants": stats["queued_grants"],
        "admitted": stats["admitted"],
        "rejected": sum(stats["rejected"].values()),
    }


def delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in before if key in after}
