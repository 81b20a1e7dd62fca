"""The public engine facade.

:class:`Database` wires together catalog, storage, statistics, the SQL
front end, both optimizers (Orca-style and the legacy Planner baseline)
and the MPP executor:

.. code-block:: python

    from repro import Database

    db = Database(num_segments=4)
    db.create_table(...)            # programmatic DDL (partitioning et al.)
    db.sql("INSERT INTO t VALUES (1, 'x')")
    db.analyze()                    # collect optimizer statistics
    result = db.sql("SELECT * FROM t WHERE pk < 10")
    print(db.explain("SELECT ...", optimizer="planner"))
"""

from __future__ import annotations

import sys
from typing import Any, Sequence

from .cache import CacheManager, result_footprint, statement_key
from .cache.lru import LruCache
from .cache.plans import PLAN_MAX_ENTRIES, shape_of
from .catalog import (
    Catalog,
    DistributionPolicy,
    PartitionScheme,
    TableDescriptor,
    TableSchema,
)
from .errors import ReproError, SqlError
from .executor.executor import ExecutionResult, MppExecutor, PreparedPlan
from .logical.ops import LogicalOp
from .obs import trace as obs_trace
from .obs.live import LiveTelemetry
from .obs.metrics import MetricsCollector
from .obs.render import render_explain_trace
from .obs.stats_store import QueryStatsStore, fingerprint
from .obs.trace import Tracer
from .optimizer.cost import CostModel
from .optimizer.orca import OrcaOptimizer
from .optimizer.planner import PlannerOptimizer
from .optimizer.stats import StatsRegistry
from .physical.plan import Plan
from .resilience import (
    CancelToken,
    FaultInjector,
    QueryLimits,
    RetryPolicy,
)
from .settings import DEFAULT_SETTINGS, ORCA, PLANNER, QuerySettings, resolve
from .sql.ast import InsertStmt
from .sql.binder import Binder
from .sql import lexer
from .sql.parser import parse, parse_tokens


class Database:
    """One in-process MPP database instance.

    ``workers`` was removed with intra-query threads: a statement's
    segment instances run in segment order on its own thread.  The
    keyword is still accepted as ``None`` or ``1`` so existing callers
    keep working; any other value raises :class:`ValueError`.
    """

    def __init__(
        self,
        num_segments: int = 4,
        cost_model: CostModel | None = None,
        workers: int | None = None,
        batch_size: int | None = None,
        cache: str | CacheManager | None = None,
        data_dir: str | None = None,
        wal_sync: str = "sync",
        checkpoint_interval_s: float | None = None,
        faults: FaultInjector | None = None,
    ):
        from .storage import StorageManager

        if workers not in (None, 1):
            raise ValueError("workers was removed: segment instances run serially")
        self.num_segments = num_segments
        self.catalog = Catalog()
        self.storage = StorageManager(self.catalog, num_segments)
        #: the instance's :class:`~repro.cache.CacheManager`.  ``cache``
        #: is the default mode ('off' | 'results') or a prebuilt manager.
        #: Storage mutations feed its partition-scoped invalidation
        #: whatever the mode.
        prebuilt = isinstance(cache, CacheManager)
        self.cache = cache if prebuilt else CacheManager()
        #: the default :class:`~repro.settings.QuerySettings` of every
        #: statement: sessions and ``sql()`` calls override fields of it
        #: (docs/architecture.md, "Statement settings")
        self.settings = resolve(
            DEFAULT_SETTINGS,
            overrides={
                "batch_size": batch_size,
                "cache": None if prebuilt else cache,
            },
        )
        self.storage.add_mutation_listener(self.cache.on_mutation)
        #: optimizer statistics (ANALYZE results) — renamed from ``stats``
        #: so :meth:`stats` can surface the cumulative query-stats store
        self.statistics = StatsRegistry()
        self.cost_model = cost_model or CostModel()
        self.binder = Binder(self.catalog)
        #: shape key -> (PreparedPlan, INSERT target or None): shared by
        #: every session, bounded by entries alone (docs/caching.md, "Plan
        #: reuse"); its lock is the only one, and entries never change
        self.plans: LruCache = LruCache(PLAN_MAX_ENTRIES, sys.maxsize)
        #: process-lifetime cumulative per-fingerprint query statistics
        #: (every ``sql()`` call is recorded; read via :meth:`stats`)
        self.query_stats = QueryStatsStore()
        #: shared fault injector — arm via ``db.faults.arm(...)`` (or the
        #: CLI's ``SET inject_fault ...``); injected faults exercise the
        #: retry/failover machinery end to end.  Passing ``faults=`` lets
        #: a caller arm recovery-path points *before* restart recovery
        #: replays the WAL (the crash-testable-recovery contract).
        self.faults = faults if faults is not None else FaultInjector()
        self.storage.set_faults(self.faults)
        #: the instance's :class:`~repro.durability.DurabilityManager`
        #: (None = volatile).  ``data_dir`` turns on write-ahead logging
        #: and — when the directory already holds a checkpoint/WAL —
        #: replays it back into catalog + storage before anything else
        #: runs.  ``wal_sync`` is the fsync gate ('sync' | 'async');
        #: ``checkpoint_interval_s`` starts the background checkpointer.
        self.durability = None
        if data_dir is not None:
            from .durability import DurabilityManager

            self.durability = DurabilityManager(
                data_dir,
                num_segments,
                wal_sync=wal_sync,
                faults=self.faults,
            )
            self.storage.attach_durability(self.durability)
            self.durability.recover_into(self.catalog, self.storage)
            if checkpoint_interval_s is not None:
                self.durability.start_checkpointer(checkpoint_interval_s)
        self.retry_policy = RetryPolicy()
        self.executor = MppExecutor(
            self.catalog,
            self.storage,
            num_segments,
            faults=self.faults,
            retry_policy=self.retry_policy,
        )
        #: the instance's :class:`~repro.serving.QueryServer`, created
        #: lazily by :meth:`serve` / :meth:`session`
        self._server = None
        #: the live operations telemetry hub (in-flight activity registry,
        #: latency/queue-wait/scan-ratio histograms, sampled gauge series,
        #: slow-query log) — see docs/observability.md.  The background
        #: ticker is NOT auto-started; the scrape server (or a caller)
        #: starts it, and :meth:`LiveTelemetry.sample_now` works without it.
        self.live = LiveTelemetry()
        self._register_live_sources()

    def _register_live_sources(self) -> None:
        """The gauge sources the live ticker samples.  Serving-tier
        sources read through :attr:`_server` at call time and return None
        (= skip the tick) while no server is open."""
        live = self.live
        live.add_source("queries_in_flight", lambda: float(len(live.activity)))
        live.add_source("cache_hit_rate", self._cache_hit_rate)

        def admission_gauge(key: str):
            def read() -> float | None:
                server = self._server
                if server is None or server.closed:
                    return None
                return float(server.admission.stats()[key])

            return read

        live.add_source("queue_depth", admission_gauge("queue_depth"))
        live.add_source("inflight_admitted", admission_gauge("inflight"))
        live.add_source(
            "resyncing_segments",
            lambda: float(len(self.health.resyncing_segments)),
        )

    def _cache_hit_rate(self) -> float | None:
        """The result cache's hit rate (None = no lookups yet, so the
        series records nothing rather than a fake zero)."""
        stats = self.cache.results.stats
        return stats.hit_rate if stats.lookups else None

    @property
    def health(self):
        """The instance's :class:`~repro.resilience.SegmentHealth`."""
        return self.storage.health

    # -- serving --------------------------------------------------------------

    def serve(self, **config):
        """The instance's concurrent serving front end (created on first
        use).  ``config`` forwards to
        :class:`~repro.serving.ServingConfig` — admission caps and queue
        bounds — and is only honoured on creation;
        reconfiguring requires :meth:`~repro.serving.QueryServer.close`
        first.  See docs/serving.md."""
        from .serving import QueryServer, ServingConfig

        if self._server is not None and self._server.closed:
            self._server = None
        if self._server is None:
            self._server = QueryServer(self, ServingConfig(**config))
        elif config:
            raise ReproError(
                "server already running; close() it before reconfiguring"
            )
        return self._server

    def session(self, **settings):
        """Open one serving :class:`~repro.serving.Session` against the
        (lazily created) server: its own default settings (``settings=``
        or keyword overrides of this Database's), its own fault injector
        and a cancel that never touches other sessions' queries."""
        return self.serve().session(**settings)

    def serve_scrape(self, host: str = "127.0.0.1", port: int = 0):
        """Start the HTTP scrape sidecar (``/metrics``, ``/healthz``,
        ``/activity``) bound to ``host:port`` (port 0 = ephemeral) and
        start the live-telemetry ticker.  Returns the
        :class:`~repro.serving.ScrapeServer`; the caller owns its
        ``close()``."""
        from .serving import ScrapeServer

        return ScrapeServer(self, host=host, port=port)

    # -- DDL / data -----------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: TableSchema,
        distribution: DistributionPolicy | None = None,
        partition_scheme: PartitionScheme | None = None,
    ) -> TableDescriptor:
        with self.storage.write_lock:
            descriptor = self.catalog.create_table(
                name, schema, distribution, partition_scheme
            )
            self.storage.register(descriptor)
            if self.durability is not None:
                try:
                    self.durability.log_create_table(descriptor)
                except BaseException:
                    # not logged, so not created: memory matches a reopen
                    self.storage.unregister(descriptor)
                    self.catalog.drop_table(name)
                    raise
        return descriptor

    def drop_table(self, name: str) -> None:
        with self.storage.write_lock:
            descriptor = self.catalog.table(name)
            if self.durability is not None:
                self.durability.log_drop_table(descriptor)
            self.storage.unregister(descriptor)
            self.catalog.drop_table(name)

    def checkpoint(self) -> dict:
        """Take a durability checkpoint now: snapshot every table, swap it
        in atomically, and truncate the WAL.  Returns the checkpoint
        summary (lsn, bytes, seconds).  Raises
        :class:`~repro.errors.DurabilityError` when the instance has no
        ``data_dir``."""
        if self.durability is None:
            from .errors import DurabilityError

            raise DurabilityError(
                "no durability configured (Database(data_dir=...))"
            )
        return self.durability.checkpoint()

    def insert(self, table: str, rows) -> int:
        """Bulk-load rows (faster than SQL INSERT for generators) as
        one write: all of them, or none when one fails."""
        return self.storage.store_by_name(table).write(rows)

    def analyze(self, table: str | None = None) -> None:
        """Collect statistics (ANALYZE) for one or all tables."""
        if table is not None:
            self.statistics.analyze(self.storage.store_by_name(table))
            return
        for descriptor in self.catalog.tables():
            self.statistics.analyze(self.storage.store(descriptor.oid))

    # -- observability -------------------------------------------------------

    def stats(self) -> QueryStatsStore:
        """The cumulative query statistics store (pg_stat_statements-style):
        per-fingerprint calls, timings, rows, partitions scanned vs.
        eligible, retries/failovers.  Each entry's time is the statements'
        end-to-end wall time (the live latency histogram's), less any
        admission queue wait.  Export with ``.to_json()``; the
        ``repro_query_*`` Prometheus families are in
        :func:`~repro.obs.prom.export_prometheus`; reset with
        ``.reset()``."""
        return self.query_stats

    # -- optimizers ---------------------------------------------------------------

    def make_optimizer(
        self,
        optimizer: str = ORCA,
        **options,
    ):
        """Build an optimizer instance; ``options`` forward to its
        constructor (e.g. ``enable_partition_elimination=False``)."""
        if optimizer == ORCA:
            return OrcaOptimizer(
                self.catalog,
                self.statistics,
                cost_model=self.cost_model,
                num_segments=self.num_segments,
                **options,
            )
        if optimizer == PLANNER:
            return PlannerOptimizer(
                self.catalog,
                self.statistics,
                num_segments=self.num_segments,
                **options,
            )
        raise ReproError(f"unknown optimizer {optimizer!r}")

    def bind(self, query: str) -> LogicalOp:
        with obs_trace.span("parse"):
            statement = parse(query)
        if isinstance(statement, InsertStmt):
            raise ReproError("INSERT statements are executed, not planned")
        with obs_trace.span("bind"):
            return self.binder.bind(statement)

    def _optimize(
        self, logical: LogicalOp, settings: QuerySettings, parameter_count: int
    ) -> Plan:
        """The optimize lifecycle phase (one span; the optimizer emits the
        nested ``place_partition_selectors`` span and search events)."""
        engine = self.make_optimizer(
            settings.optimizer, **dict(settings.optimizer_options)
        )
        with obs_trace.span("optimize", optimizer=settings.optimizer):
            return engine.optimize(logical, parameter_count)

    def plan(
        self,
        query: str,
        optimizer: str = ORCA,
        parameter_count: int = 0,
        **options,
    ) -> Plan:
        """Parse, bind and optimize a query into a validated physical
        plan, afresh: the plan cache is what memoizes this."""
        settings = resolve(
            self.settings, overrides={"optimizer": optimizer, **options}
        )
        plan = self._optimize(self.bind(query), settings, parameter_count)
        plan.validate()
        return plan

    def explain(self, query: str, optimizer: str = ORCA, **options) -> str:
        return self.plan(query, optimizer, **options).explain()

    def explain_trace(
        self, query: str, optimizer: str = ORCA, **options
    ) -> str:
        """``EXPLAIN (TRACE)``: plan the query under a fresh tracer and
        render the physical plan, the lifecycle span tree and the
        optimizer search summary (groups, rule firings, enforcer
        decisions, alternatives pruned, optimization time)."""
        tracer = Tracer()
        with obs_trace.activate(tracer):
            plan = self.plan(query, optimizer, **options)
        return render_explain_trace(plan.explain(), tracer)

    def explain_analyze(self, query: str, **keywords) -> str:
        """Execute the query with full metrics collection and render the
        physical plan annotated with per-node actuals (EXPLAIN ANALYZE).
        ``keywords`` are those of :meth:`sql`."""
        keywords["analyze"] = True
        return self.sql(query, **keywords).explain_analyze()

    # -- execution ---------------------------------------------------------------------

    def sql(
        self,
        query: str,
        *,
        params: Sequence[Any] | None = None,
        settings: QuerySettings | None = None,
        cancel: CancelToken | None = None,
        faults=None,
        activity=None,
        **overrides,
    ) -> ExecutionResult:
        """Parse, plan and execute one statement.

        How it runs is one :class:`~repro.settings.QuerySettings` value:
        ``settings`` if given, else the Database default, with the keyword
        ``overrides`` on top (``db.sql(q, batch_size=7, cache="results",
        enable_partition_elimination=False)``).  The fields, their ranges
        and what each does are tabulated in docs/architecture.md,
        "Statement settings"; an invalid value raises here, before
        anything runs.

        The remaining keywords are per-execution handles, not settings.
        ``cancel`` is a :class:`~repro.resilience.CancelToken` whose
        :meth:`cancel` makes the next guardrail checkpoint raise
        :class:`~repro.errors.QueryCancelled` (and makes the statement
        cancellable by id via :meth:`cancel_query`).  ``faults`` overrides
        the instance-wide :class:`~repro.resilience.FaultInjector` for
        this query (serving sessions each carry an isolated one).

        Every call registers with the live activity registry
        (``db.live``): the statement is visible in ``db.activity()`` /
        ``\\activity`` while it runs.  A cache hit and an execution end in
        one place: :meth:`LiveTelemetry.complete` fixes the finished record,
        and the latency histograms, the slow-query log, the metrics
        export's ``live`` section and the stats store read it.
        ``activity`` passes a pre-registered
        :class:`~repro.obs.live.QueryActivity` (the serving layer
        registers before admission so queued statements are visible);
        None registers a fresh record.
        """
        settings = resolve(self.settings, settings, overrides)
        limits = QueryLimits(settings.timeout, settings.max_rows, cancel)
        if activity is None:
            activity = self.live.begin(query, cancel=cancel)
        else:
            activity.adopt_cancel(cancel)
        # lexed once: the fingerprint, both cache keys and the parser share
        # the stream (None: it does not lex, and parsing raises that error)
        try:
            tokens = lexer.tokenize(query)
        except SqlError:
            tokens = None
        activity.fingerprint = fingerprint(query, tokens)
        tracer = Tracer() if settings.trace else None
        try:
            with obs_trace.feed_phases(activity.enter_phase):
                session, result = self._lookup_result(
                    query, tokens, params, settings, activity
                )
                if result is None:
                    with obs_trace.activate(tracer):
                        result = self._sql(
                            query,
                            tokens,
                            params,
                            settings,
                            limits,
                            session,
                            faults,
                            activity,
                        )
        except BaseException as error:
            self.live.complete(activity, error=error)
            raise
        # one completion path for a cache hit and an execution
        metrics = result.metrics
        if tracer is not None:
            result.trace = tracer
            metrics.trace_summary = tracer.to_dict()
            metrics.optimizer_summary = tracer.optimizer.summary()
        metrics.live_summary = self.live.complete(
            activity, rows=len(result.rows)
        )
        metrics.durability_summary = self._durability_summary()
        self.query_stats.record_activity(activity)
        return result

    def _durability_summary(self) -> dict:
        """The metrics ``"durability"`` section (schema v8): WAL and
        checkpoint counters plus live resync state."""
        summary = (
            self.durability.stats_dict()
            if self.durability is not None
            else {"enabled": False}
        )
        summary["resyncing_segments"] = self.health.resyncing_segments
        summary["resync_count"] = self.health.resync_count
        return summary

    def activity(self) -> list[dict]:
        """The in-flight query registry as JSON-ready rows
        (``pg_stat_activity``-style): one dict per running statement with
        its id, session, fingerprint, current phase, elapsed/queued time
        and rows/partitions so far.  The full hub export — histograms,
        sampled series, slow-log state — is ``db.live.to_dict()``."""
        return self.live.activity.snapshot()

    def cancel_query(self, query_id: int) -> bool:
        """Cancel one in-flight query by its activity id; returns whether
        a cancellable query with that id was found.  Only statements
        running with a :class:`~repro.resilience.CancelToken` (every
        serving-session query) are cancellable — the token keeps the
        per-row guardrail path opt-in."""
        return self.live.activity.cancel(query_id)

    def _statement_key(
        self,
        query: str,
        params: Sequence[Any] | None,
        settings: QuerySettings,
        tokens=None,
    ):
        """The cache key for one execution: the statement, its values and
        ``settings.plan_key``.  Optimizer options change plan shape (and
        with it part_scan_id assignment), so they fold into the key's
        optimizer tag."""
        optimizer, options = settings.plan_key
        tag = f"{optimizer}|{options!r}" if options else optimizer
        return statement_key(query, params, tag, tokens=tokens)

    def _lookup_result(
        self,
        query: str,
        tokens,
        params: Sequence[Any] | None,
        settings: QuerySettings,
        activity,
    ):
        """``(cache session, result)`` for one statement: no session with
        the cache off, and a result only for a hit, served from the result
        cache without executing."""
        if settings.cache == "off":
            return None, None
        key = self._statement_key(query, params, settings, tokens)
        session = self.cache.begin(key, settings.cache)
        # EXPLAIN ANALYZE and tracing report an execution, so they never
        # read the cache (they may still store)
        if settings.analyze or settings.trace:
            return session, None
        entry = self.cache.lookup_result(key)
        session.result_outcome = "miss" if entry is None else "hit"
        if entry is None:
            return session, None
        activity.enter_phase("cache_hit")
        metrics = MetricsCollector(self.num_segments)
        metrics.cache_summary = session.summary()
        return session, ExecutionResult(
            list(entry.rows), list(entry.column_names), metrics, 0.0
        )

    def _plan_statement(self, query: str, tokens, params, settings):
        """Parse, bind and optimize one statement: ``(plan, INSERT ...
        SELECT target or None, the parser's literal slots)``, or the
        finished result of an INSERT ... VALUES, which loads its rows
        without a plan."""
        with obs_trace.span("parse"):
            statement, slots = parse_tokens(
                lexer.tokenize(query) if tokens is None else tokens
            )
        #: the table an INSERT ... SELECT loads (None = a plain query)
        target = None
        if isinstance(statement, InsertStmt):
            if statement.select is None:
                with obs_trace.span("bind"):
                    table, rows = self.binder.bind_insert_rows(statement)
                count = self.insert(table, rows)
                return ExecutionResult(
                    [(count,)],
                    ["inserted"],
                    MetricsCollector(self.num_segments),
                    0.0,
                )
            # INSERT ... SELECT: plan and run the query, then load its
            # rows (schema-validated and re-routed through f_T).
            target = self.catalog.table(statement.table.name)
            with obs_trace.span("bind"):
                logical = self.binder.bind_select(statement.select)
        else:
            with obs_trace.span("bind"):
                logical = self.binder.bind(statement)
        plan = self._optimize(logical, settings, len(params) if params else 0)
        if target is not None and len(plan.root.output_layout()) != len(
            target.schema
        ):
            raise ReproError(
                f"INSERT INTO {target.name}: SELECT produces "
                f"{len(plan.root.output_layout())} columns, table "
                f"has {len(target.schema)}"
            )
        return plan, target, slots

    def _sql(
        self,
        query: str,
        tokens,
        params: Sequence[Any] | None,
        settings: QuerySettings,
        limits: QueryLimits,
        session=None,
        faults=None,
        activity=None,
    ) -> ExecutionResult:
        # A traced run reports the optimizer's search, so it plans afresh
        # and keeps nothing; a measured one (EXPLAIN ANALYZE) reports this
        # statement's own plan and estimates, so it plans afresh and may
        # still store.
        shape = None
        if tokens is not None and not settings.trace:
            versions = (self.catalog.version, self.statistics.version)
            shape = shape_of(
                tokens, activity.fingerprint, params, settings.plan_key, versions,
                exact=settings.optimizer == PLANNER,
            )
        cached = None
        if shape is not None and not settings.analyze:
            cached = self.plans.get(shape.key)
        if cached is None:
            planned = self._plan_statement(query, tokens, params, settings)
            if isinstance(planned, ExecutionResult):
                return planned  # INSERT ... VALUES: loaded, nothing planned
            plan, target, slots = planned
            values = None
        else:
            (prepared, target), values = cached, shape.values
        if session is not None:
            session.plan_outcome = "planned" if cached is None else "reused"
        with obs_trace.span("execute"):
            if cached is None:
                prepared = PreparedPlan(plan, params)
                if shape is not None and shape.served_by(slots, prepared.slots):
                    self.plans.put(shape.key, (prepared, target))
            plan, kernels = prepared.instance(values, params)
            result = self.executor.execute(
                plan,
                params,
                settings,
                limits=limits,
                faults=faults,
                activity=activity,
                kernels=kernels,
            )
        if session is not None:
            # A SELECT's result is stored with its invalidation footprint:
            # the leaf partitions the run actually opened, per root table
            # (None = whole table for unpartitioned scans).  DML plans
            # yield no footprint, and an INSERT's source rows are not its
            # answer: neither is stored.
            footprint = (
                result_footprint(plan.root, result.metrics.tracker.partitions)
                if target is None
                else None
            )
            if footprint is not None:
                session.commit_result(
                    result.rows, result.column_names, footprint
                )
            result.metrics.cache_summary = session.summary()
        if target is not None:
            count = self.insert(target.name, result.rows)
            return ExecutionResult(
                [(count,)],
                ["inserted"],
                result.metrics,
                result.elapsed_seconds,
            )
        return result

    def execute_plan(
        self,
        plan: Plan,
        params: Sequence[Any] | None = None,
        *,
        settings: QuerySettings | None = None,
        limits: QueryLimits | None = None,
        **overrides,
    ) -> ExecutionResult:
        return self.executor.execute(
            plan,
            params,
            resolve(self.settings, settings, overrides),
            limits=limits,
        )
