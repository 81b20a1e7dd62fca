"""Interactive shell for the repro engine.

Run with ``python -m repro``.  Provides a psql-flavoured REPL over an
in-memory :class:`~repro.engine.Database`:

.. code-block:: text

    repro=# \\demo                     -- load the paper's orders demo
    repro=# SELECT avg(amount) FROM orders
            WHERE date BETWEEN '10-01-2013' AND '12-31-2013';
    repro=# \\explain SELECT ...       -- show the physical plan
    repro=# \\optimizer planner        -- switch to the legacy baseline
    repro=# \\d                        -- list tables
    repro=# \\q

The :class:`ReplSession` class holds all the logic and returns plain
strings, so it is unit-testable without a terminal.
"""

from __future__ import annotations

import dataclasses
import datetime
import random
import re
import textwrap

from .engine import Database
from .errors import ReproError
from .obs.prom import export_prometheus
from .resilience import INJECTION_POINTS, TRIGGER_MODES
from .settings import SET_FIELDS, apply_set

PROMPT = "repro=# "
CONTINUATION = "repro-# "


def _settings_help() -> str:
    """The ``SET`` lines of ``\\help`` for the rows of the settings table."""
    lines = []
    for field in SET_FIELDS.values():
        off = next(word for word in field.off if word)
        lines.append(
            f"  SET {field.set_name} V;  SET {field.set_name} {off};"
        )
        lines += textwrap.wrap(
            f"V: {field.valid}.  {field.summary}",
            width=76,
            initial_indent=" " * 19,
            subsequent_indent=" " * 19,
        )
    return "\n".join(lines)


_HELP = """\
Meta commands:
  \\d                 list tables (name, rows, partitions, distribution)
  \\d NAME            describe one table
  \\demo              load the demo schema (paper Figures 1-4)
  \\explain SQL       show the physical plan for SQL
  \\optimizer [NAME]  show or switch the optimizer (orca | planner)
  \\timing            toggle per-query timing output
  \\health            show segment health (primaries, mirrors, failovers)
  \\stats             cumulative per-query statistics (calls, time, rows,
                     partitions scanned/eligible, retries, failovers)
  \\stats prometheus  the same store in Prometheus text format
  \\stats reset       clear the statistics store
  \\cache             cache counters (hits, misses, invalidations, bytes)
                     and the cached statements
  \\cache prometheus  the cache counters in Prometheus text format
  \\cache clear       drop every cached entry
  \\sessions          serving-tier sessions and admission state (with a
                     running server; \\stats prometheus then also emits
                     the repro_serving_* families)
  \\activity          in-flight queries (pg_stat_activity-style: id,
                     session, phase, elapsed, rows, partitions k/N)
  \\activity cancel ID cancel one in-flight query by its id
  \\checkpoint        take a durability checkpoint now (snapshot buckets,
                     truncate the WAL; needs --data-dir)
  \\wal               WAL/checkpoint status (records, bytes, sync mode,
                     last checkpoint LSN; needs --data-dir)
  \\help              this text
  \\q                 quit
SET statements configure the session:
  SET inject_fault POINT [segment=N] [mode=fail_once|fail_n|always]
                   [n=K] [skip=K] [transient];      arm a fault
  SET inject_fault off;                             disarm all faults
%s
  SET slow_log SECONDS [PATH];  SET slow_log off;   structured slow-query
                   log: statements at/above the threshold append one JSON
                   line (phase timings, partition counters) to PATH
  SET wal sync|async;                               fsync the WAL on every
                   commit (sync, the default) or leave flushing to the OS
                   (async — faster, loses the tail on a machine crash)
SQL statements additionally support the EXPLAIN, EXPLAIN ANALYZE and
EXPLAIN (TRACE) prefixes (ANALYZE executes the query and annotates the
plan with per-node actual rows, partitions scanned and Motion traffic;
TRACE plans it under a tracer and shows the lifecycle span tree plus the
optimizer's search summary).
Everything else is executed as SQL (end with ';' or a blank line).""" % (
    _settings_help()
)

_EXPLAIN_RE = re.compile(
    r"^explain\b(?:\s+(analyze)\b|\s*\(\s*(trace)\s*\)|\s+(trace)\b)?(.*)$",
    re.IGNORECASE | re.DOTALL,
)
_SET_RE = re.compile(r"^set\s+(\w+)\b(.*)$", re.IGNORECASE | re.DOTALL)


class ReplSession:
    """State and command handling for one interactive session."""

    def __init__(self, db: Database | None = None, serving_session=None):
        self.db = db or Database(num_segments=4)
        #: where statements run and faults arm: a
        #: :class:`~repro.serving.Session` in the ``--serve`` network mode
        #: (or tests) — admission control, the session's fault and cancel
        #: scope — else the Database itself
        self.target = serving_session if serving_session is not None else self.db
        self.timing = False
        self.done = False
        #: count of statements that ended in an ERROR line — scripted
        #: invocations (``python -m repro < file.sql``) exit non-zero when
        #: any statement failed
        self.errors = 0
        #: the settings of every statement; edited by SET and \optimizer
        #: (``SET x off`` goes back to the target's value)
        self.settings = self.target.settings
        self._buffer: list[str] = []

    # -- line protocol -----------------------------------------------------

    @property
    def prompt(self) -> str:
        return CONTINUATION if self._buffer else PROMPT

    def handle_line(self, line: str) -> str:
        """Process one input line; returns text to display (may be '')."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith("\\"):
            return self._meta(stripped)
        if not stripped and not self._buffer:
            return ""
        self._buffer.append(line)
        text = "\n".join(self._buffer).strip()
        if text.endswith(";") or not stripped:
            self._buffer.clear()
            return self._run_sql(text.rstrip(";"))
        return ""

    # -- meta commands ---------------------------------------------------------

    def _meta(self, command: str) -> str:
        name, _, argument = command.partition(" ")
        argument = argument.strip()
        if name in ("\\q", "\\quit"):
            self.done = True
            return "bye"
        if name in ("\\help", "\\?"):
            return _HELP
        if name == "\\d":
            return self._describe(argument)
        if name == "\\demo":
            return self._load_demo()
        if name == "\\explain":
            return self._explain(argument)
        if name == "\\optimizer":
            if argument:
                try:
                    self.settings = dataclasses.replace(
                        self.settings, optimizer=argument
                    )
                except ReproError as exc:
                    return f"{exc} (orca | planner)"
            return f"optimizer: {self.settings.optimizer}"
        if name == "\\timing":
            self.timing = not self.timing
            return f"timing is {'on' if self.timing else 'off'}"
        if name == "\\health":
            status = self.db.health.status()
            lines = [
                "segment health:",
                f"  primaries: {' '.join(status['primaries'])}",
                f"  mirrors:   {' '.join(status['mirrors'])}",
                f"  failovers: {status['failover_count']}",
            ]
            if any(status["mirror_reads"]):
                lines.append(f"  mirror reads: {status['mirror_reads']}")
            return "\n".join(lines)
        if name == "\\stats":
            return self._stats(argument)
        if name == "\\cache":
            return self._cache(argument)
        if name == "\\sessions":
            return self._sessions()
        if name == "\\activity":
            return self._activity(argument)
        if name == "\\checkpoint":
            return self._checkpoint()
        if name == "\\wal":
            return self._wal()
        return f"unknown command {name!r}; try \\help"

    def _checkpoint(self) -> str:
        """``\\checkpoint`` — snapshot every segment's buckets and
        truncate the WAL."""
        try:
            summary = self.db.checkpoint()
        except ReproError as exc:
            return self._error(exc)
        return (
            f"checkpoint at lsn {summary['lsn']}: "
            f"{summary['bytes']} B in {summary['seconds'] * 1000:.2f} ms, "
            "wal truncated"
        )

    def _wal(self) -> str:
        """``\\wal`` — the durability subsystem's WAL/checkpoint status."""
        manager = self.db.durability
        if manager is None:
            return "durability is off (start with --data-dir PATH)"
        stats = manager.stats_dict()
        lines = [
            f"wal ({stats['wal_sync']}): {stats['wal_records']} records, "
            f"{stats['wal_bytes']} B appended, "
            f"{manager.wal_size_bytes()} B on disk, "
            f"{stats['wal_fsyncs']} fsyncs",
            f"checkpoints: {stats['checkpoints']} "
            f"(last at lsn {stats['last_checkpoint_lsn']}, "
            f"{stats['last_checkpoint_bytes']} B)",
        ]
        if stats["recovery_replayed_records"]:
            lines.append(
                f"replay: {stats['recovery_replayed_records']} records at restart"
            )
        resyncing = self.db.health.resyncing_segments
        if resyncing:
            lines.append(f"resyncing segments: {resyncing}")
        return "\n".join(lines)

    def _activity(self, argument: str) -> str:
        """``\\activity`` — the live in-flight registry; ``\\activity
        cancel ID`` cancels one query by its id."""
        if not argument:
            return self.db.live.activity.render()
        action, _, raw_id = argument.partition(" ")
        if action.lower() != "cancel":
            return "usage: \\activity [cancel ID]"
        try:
            query_id = int(raw_id.strip())
        except ValueError:
            return f"ERROR (sql): invalid query id {raw_id.strip()!r}"
        if self.db.cancel_query(query_id):
            return f"cancel requested for query {query_id}"
        return (
            f"no cancellable in-flight query with id {query_id} "
            "(only queries running with a cancel token can be cancelled)"
        )

    def _stats(self, argument: str) -> str:
        store = self.db.stats()
        cache = self.db.cache
        if not argument:
            text = store.render()
            totals = cache.stats_dict()["results"]
            if totals["hits"] or totals["misses"] or totals["bytes"]:
                text += (
                    f"\ncache ({self.settings.cache}): {totals['hits']} hits, "
                    f"{totals['misses']} misses, "
                    f"{totals['invalidations']} invalidations, "
                    f"{totals['bytes']} B cached (\\cache for detail)"
                )
            return text
        if argument.lower() == "reset":
            store.reset()
            return "query statistics reset"
        if argument.lower() == "prometheus":
            # the one consolidated scrape body (identical to GET /metrics):
            # query stats, cache, serving (while a server runs), live
            return export_prometheus(self.db)
        return "usage: \\stats [reset | prometheus]"

    def _sessions(self) -> str:
        """``\\sessions`` — the serving tier's sessions and admission
        state (requires a running server, i.e. ``Database.serve()``)."""
        server = self.db._server
        if server is None or server.closed:
            return "no server running (Database.serve() starts one)"
        snapshot = server.stats_dict()
        admission = snapshot["admission"]
        rejected = admission["rejected"]
        lines = [
            f"serving: {admission['inflight']} in flight, "
            f"{admission['queue_depth']} queued, "
            f"{admission['admitted']} admitted, "
            f"{sum(rejected.values())} rejected "
            f"(full={rejected['queue_full']}, "
            f"timeout={rejected['queue_timeout']})",
        ]
        if not snapshot["open_sessions"]:
            lines.append("no open sessions")
            return "\n".join(lines)
        lines.append(
            f"{'session':<16} {'inflight':>8} {'submitted':>9} "
            f"{'admitted':>8} {'rejected':>8} {'p50 ms':>8} {'p99 ms':>8}"
        )
        latency = snapshot["latency"]
        for name in sorted(snapshot["open_sessions"]):
            counters = snapshot["open_sessions"][name]
            quantiles = latency.get(name, {"p50_s": 0.0, "p99_s": 0.0})
            lines.append(
                f"{name:<16} {counters['inflight']:>8} "
                f"{counters['submitted']:>9} {counters['admitted']:>8} "
                f"{counters['rejected']:>8} "
                f"{quantiles['p50_s'] * 1000:>8.2f} "
                f"{quantiles['p99_s'] * 1000:>8.2f}"
            )
        return "\n".join(lines)

    def _cache(self, argument: str) -> str:
        manager = self.db.cache
        if not argument:
            return (
                f"session cache mode: {self.settings.cache}\n{manager.render()}"
            )
        if argument.lower() == "clear":
            dropped = manager.clear()
            return f"cache cleared ({dropped} entries dropped)"
        if argument.lower() == "prometheus":
            return export_prometheus(self.db, "cache")
        return "usage: \\cache [clear | prometheus]"

    def _describe(self, name: str) -> str:
        if name:
            try:
                table = self.db.catalog.table(name)
            except ReproError as exc:
                return str(exc)
            lines = [f"Table {table.name} (oid {table.oid})"]
            for column in table.schema:
                lines.append(f"  {column.name:<20} {column.data_type}")
            lines.append(f"  distribution: {table.distribution!r}")
            if table.is_partitioned:
                scheme = table.partition_scheme
                lines.append(
                    f"  partitioned: {scheme!r} ({table.num_leaves} leaves)"
                )
            return "\n".join(lines)
        tables = list(self.db.catalog.tables())
        if not tables:
            return "no tables (try \\demo)"
        lines = ["tables:"]
        for table in tables:
            stats = self.db.statistics.get(table)
            parts = f", {table.num_leaves} parts" if table.is_partitioned else ""
            lines.append(
                f"  {table.name:<20} ~{stats.row_count} rows{parts}"
            )
        return "\n".join(lines)

    def _error(self, exc: ReproError) -> str:
        """Render a failed statement: ``ERROR (<stage>): <message>``.

        The stage comes from the error class (sql, bind, optimizer,
        execution, ...) so a user can tell a parse failure from a runtime
        one without a traceback."""
        self.errors += 1
        stage = getattr(exc, "stage", "engine")
        return f"ERROR ({stage}): {exc}"

    def _explain(self, sql: str) -> str:
        if not sql:
            return "usage: \\explain SELECT ..."
        try:
            return self.db.explain(
                sql.rstrip(";"), optimizer=self.settings.optimizer
            )
        except ReproError as exc:
            return self._error(exc)

    def _run_sql(self, sql: str) -> str:
        if not sql:
            return ""
        explain = _EXPLAIN_RE.match(sql.strip())
        if explain is not None:
            body = explain.group(4).strip().rstrip(";")
            if not body:
                return "usage: EXPLAIN [ANALYZE | (TRACE)] SELECT ..."
            try:
                if explain.group(1):
                    # ANALYZE executes the query: same settings, same
                    # serving path as a plain statement.
                    return self.target.sql(
                        body, settings=self.settings, analyze=True
                    ).explain_analyze()
                optimizer = self.settings.optimizer
                if explain.group(2) or explain.group(3):
                    return self.db.explain_trace(body, optimizer=optimizer)
                return self.db.explain(body, optimizer=optimizer)
            except ReproError as exc:
                return self._error(exc)
        setting = _SET_RE.match(sql.strip())
        if setting is not None:
            output = self._set(setting.group(1).lower(), setting.group(2).strip())
            if output.startswith("ERROR"):
                # _set renders its own ERROR lines (they never raise), but a
                # failed SET must still fail a scripted run.
                self.errors += 1
            return output
        try:
            result = self.target.sql(sql, settings=self.settings)
        except ReproError as exc:
            return self._error(exc)
        lines = []
        if result.column_names:
            lines.append(" | ".join(result.column_names))
        for row in result.rows[:50]:
            lines.append(" | ".join(_render(value) for value in row))
        if len(result.rows) > 50:
            lines.append(f"... ({len(result.rows)} rows total)")
        else:
            lines.append(f"({len(result.rows)} rows)")
        scanned = result.metrics.partitions_scanned()
        if scanned:
            lines.append(f"partitions scanned: {scanned}")
        if result.metrics.retry_count or result.metrics.failover_count:
            lines.append(
                f"resilience: {result.metrics.retry_count} retries, "
                f"{result.metrics.failover_count} failovers"
            )
        if self.timing:
            lines.append(f"time: {result.elapsed_seconds * 1000:.2f} ms")
        return "\n".join(lines)

    # -- SET statements ------------------------------------------------------

    def _set(self, name: str, argument: str) -> str:
        argument = argument.rstrip(";").strip()
        if argument.startswith("="):
            argument = argument[1:].strip()
        if name == "inject_fault":
            return self._set_inject_fault(argument)
        if name == "slow_log":
            return self._set_slow_log(argument)
        if name == "wal":
            return self._set_wal(argument)
        # every other name is a row of the settings table (or unknown)
        self.settings, answer = apply_set(
            self.settings, self.target.settings, name, argument
        )
        return answer

    def _set_wal(self, argument: str) -> str:
        """``SET wal sync|async`` — fsync the WAL on every commit, or
        leave flushing to the OS page cache."""
        from .durability import ASYNC, SYNC

        manager = self.db.durability
        if manager is None:
            return (
                "ERROR (durability): durability is off "
                "(start with --data-dir PATH)"
            )
        value = argument.lower()
        if value not in (SYNC, ASYNC):
            return f"ERROR (sql): invalid wal mode {argument!r} (sync | async)"
        manager.wal_sync = value
        return f"wal is {value}"

    def _set_slow_log(self, argument: str) -> str:
        """``SET slow_log SECONDS [PATH]`` enables the structured
        slow-query log (JSONL, rotated); ``SET slow_log off`` disables
        it.  The sink is database-wide (every session's statements are
        eligible), matching ``log_min_duration_statement`` semantics."""
        slow_log = self.db.live.slow_log
        if not argument or argument.lower() in ("off", "none"):
            slow_log.configure(threshold_s=None)
            return "slow_log is off"
        words = argument.split(None, 1)
        try:
            threshold = float(words[0])
        except ValueError:
            return f"ERROR (sql): invalid slow_log threshold {words[0]!r}"
        path = words[1].strip() if len(words) > 1 else slow_log.path
        if path is None:
            return (
                "ERROR (sql): slow_log needs a sink "
                "(SET slow_log SECONDS PATH)"
            )
        slow_log.configure(threshold_s=threshold, path=path)
        return f"slow_log is {threshold}s -> {path}"

    def _set_inject_fault(self, argument: str) -> str:
        """``SET inject_fault POINT [segment=N] [mode=M] [n=K] [skip=K]
        [transient]`` — or ``SET inject_fault off`` to disarm.

        With a serving session attached, faults arm on that session's
        isolated injector — other sessions' queries never see them."""
        faults = self.target.faults
        if not argument:
            specs = faults.specs()
            if not specs:
                return "no faults armed"
            return "\n".join(f"armed: {spec}" for spec in specs)
        words = argument.split()
        if words[0].lower() in ("off", "reset", "none"):
            faults.disarm()
            return "faults disarmed"
        point = words[0].lower()
        if point not in INJECTION_POINTS:
            return (
                f"ERROR (sql): unknown injection point {point!r} "
                f"(one of: {', '.join(sorted(INJECTION_POINTS))})"
            )
        kwargs: dict = {}
        for word in words[1:]:
            key, eq, value = word.partition("=")
            key = key.lower()
            if not eq:
                if key == "transient":
                    kwargs["transient"] = True
                    continue
                return f"ERROR (sql): malformed fault option {word!r}"
            if key == "segment":
                try:
                    kwargs["segment"] = int(value)
                except ValueError:
                    return f"ERROR (sql): invalid segment {value!r}"
            elif key == "mode":
                if value.lower() not in TRIGGER_MODES:
                    return (
                        f"ERROR (sql): unknown mode {value!r} "
                        f"(one of: {', '.join(sorted(TRIGGER_MODES))})"
                    )
                kwargs["mode"] = value.lower()
            elif key in ("n", "skip"):
                try:
                    kwargs[key] = int(value)
                except ValueError:
                    return f"ERROR (sql): invalid {key} {value!r}"
            else:
                return f"ERROR (sql): unknown fault option {key!r}"
        spec = faults.arm(point, **kwargs)
        return f"armed: {spec}"

    def _load_demo(self) -> str:
        from .catalog import (
            DistributionPolicy,
            PartitionScheme,
            TableSchema,
            monthly_range_level,
            uniform_int_level,
        )
        from . import types as t

        if self.db.catalog.has_table("orders"):
            return "demo already loaded"
        self.db.create_table(
            "orders",
            TableSchema.of(
                ("order_id", t.INT), ("amount", t.FLOAT), ("date", t.DATE)
            ),
            distribution=DistributionPolicy.hashed("order_id"),
            partition_scheme=PartitionScheme(
                [monthly_range_level("date", datetime.date(2012, 1, 1), 24)]
            ),
        )
        self.db.create_table(
            "date_dim",
            TableSchema.of(
                ("date_id", t.INT), ("year", t.INT), ("month", t.INT)
            ),
            distribution=DistributionPolicy.hashed("date_id"),
        )
        self.db.create_table(
            "orders_fk",
            TableSchema.of(
                ("order_id", t.INT), ("amount", t.FLOAT), ("date_id", t.INT)
            ),
            distribution=DistributionPolicy.hashed("order_id"),
            partition_scheme=PartitionScheme(
                [uniform_int_level("date_id", 0, 730, 24)]
            ),
        )
        rng = random.Random(2014)
        start = datetime.date(2012, 1, 1)
        self.db.insert(
            "orders",
            (
                (
                    i,
                    round(rng.uniform(5, 500), 2),
                    start + datetime.timedelta(days=rng.randrange(730)),
                )
                for i in range(5000)
            ),
        )
        self.db.insert(
            "date_dim",
            (
                (
                    offset,
                    (start + datetime.timedelta(days=offset)).year,
                    (start + datetime.timedelta(days=offset)).month,
                )
                for offset in range(730)
            ),
        )
        self.db.insert(
            "orders_fk",
            (
                (i, round(rng.uniform(5, 500), 2), rng.randrange(730))
                for i in range(5000)
            ),
        )
        self.db.analyze()
        return (
            "loaded: orders (24 monthly parts), orders_fk (24 parts on "
            "date_id), date_dim — try:\n"
            "  SELECT avg(amount) FROM orders WHERE date BETWEEN "
            "'10-01-2013' AND '12-31-2013';"
        )


def _render(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def serve_main(argv: list[str]) -> int:  # pragma: no cover - network loop
    """``python -m repro --serve [PORT] [--metrics-port N] [--data-dir D]``
    — the multi-client TCP mode.

    Each connection gets its own REPL over its own serving session; all
    connections share one database through admission control.
    ``--metrics-port`` additionally binds the HTTP scrape sidecar
    (``/metrics``, ``/healthz``, ``/activity``) and starts the live
    telemetry ticker.  ``--data-dir`` enables the durability subsystem:
    the WAL and checkpoints live under that directory and a restart with
    the same path recovers the previous state (docs/durability.md)."""
    import sys

    from .serving import NetServer

    port = 0
    metrics_port: int | None = None
    data_dir: str | None = None
    positional: list[str] = []
    words = list(argv)
    while words:
        word = words.pop(0)
        if word in ("--metrics-port", "--data-dir"):
            if not words:
                print(f"{word} needs a value", file=sys.stderr)
                return 2
            word = f"{word}={words.pop(0)}"
        if word.startswith("--metrics-port="):
            try:
                metrics_port = int(word.split("=", 1)[1])
            except ValueError:
                print(f"invalid metrics port {word!r}", file=sys.stderr)
                return 2
        elif word.startswith("--data-dir="):
            data_dir = word.split("=", 1)[1]
            if not data_dir:
                print("--data-dir needs a value", file=sys.stderr)
                return 2
        else:
            positional.append(word)
    if positional:
        try:
            port = int(positional[0])
        except ValueError:
            print(f"invalid port {positional[0]!r}", file=sys.stderr)
            return 2
    db = Database(num_segments=4, data_dir=data_dir)
    server = NetServer(db, port=port).start()
    print(
        f"repro serving on {server.host}:{server.port} "
        "(newline-delimited REPL lines; \\x04 frames responses; Ctrl-C stops)"
    )
    scrape = None
    if metrics_port is not None:
        scrape = db.serve_scrape(port=metrics_port)
        print(
            f"repro scrape endpoints on {scrape.address} "
            "(/metrics /healthz /activity)"
        )
    try:
        while True:
            server._accept_thread.join(timeout=1.0)
            if not server._accept_thread.is_alive():
                break
    except KeyboardInterrupt:
        print()
    finally:
        if scrape is not None:
            scrape.close()
        server.close()
        server.server.close()
    return 0


def main() -> int:  # pragma: no cover - interactive loop
    import sys

    if len(sys.argv) > 1 and sys.argv[1] == "--serve":
        return serve_main(sys.argv[2:])
    data_dir: str | None = None
    words = sys.argv[1:]
    while words:
        word = words.pop(0)
        if word == "--data-dir":
            if not words:
                print("--data-dir needs a value", file=sys.stderr)
                return 2
            word = f"--data-dir={words.pop(0)}"
        if word.startswith("--data-dir="):
            data_dir = word.split("=", 1)[1]
            if not data_dir:
                print("--data-dir needs a value", file=sys.stderr)
                return 2
        else:
            print(f"unknown argument {word!r}", file=sys.stderr)
            return 2
    session = ReplSession(
        Database(num_segments=4, data_dir=data_dir) if data_dir else None
    )
    interactive = sys.stdin.isatty()
    if interactive:
        print("repro shell — \\help for commands, \\demo for sample data")
    while not session.done:
        try:
            line = input(session.prompt if interactive else "")
        except (EOFError, KeyboardInterrupt):
            if interactive:
                print()
            break
        output = session.handle_line(line)
        if output:
            print(output)
    # Scripted runs (stdin not a tty) signal failure to the caller; the
    # interactive shell already showed each ERROR line.
    if not interactive and session.errors:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
