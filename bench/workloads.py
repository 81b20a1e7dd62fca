"""The four workloads: what each loads into the engine and sends to it.

A workload owns its generated :class:`~bench.gen.Dataset`, builds the engine
instance (the timed set-up), hands out one repetition's statements per
client, and names the independent answer to every statement.  The
end-to-end pass needs only ``Database(...)``, ``create_table``, ``insert``,
``analyze``, ``sql``, ``serve``/``session`` and ``checkpoint``.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Callable

from . import config, gen
from .config import Sizes
from .gen import Dataset, Stmt
from .oracle import SqliteOracle


class Built:
    """One engine instance with a workload's tables loaded."""

    def __init__(self, db, data_dir: Path | None):
        self.db = db
        self.data_dir = data_dir
        self.server = None
        #: one ``sql(query, params=...)`` callable per client
        self.clients: list[Callable] = [db.sql]
        self.setup_seconds = 0.0
        self.insert_seconds = 0.0
        self.rows_inserted = 0

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        if self.db.durability is not None:
            self.db.durability.close()

    def discard(self) -> None:
        self.close()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)


def open_database(data_dir: Path | None = None):
    from repro import Database

    engine = config.ENGINE
    return Database(
        num_segments=engine["num_segments"],
        workers=engine["workers"],
        batch_size=engine["batch_size"],
        cache=engine["cache"],
        data_dir=str(data_dir) if data_dir is not None else None,
        wal_sync=config.WAL_SYNC,
    )


def _partition_scheme(spec: tuple):
    from repro.catalog import PartitionScheme, range_level, uniform_int_level

    if spec[0] == "uniform_int":
        _, key, lo, hi, parts = spec
        return PartitionScheme([uniform_int_level(key, lo, hi, parts)])
    _, key, bounds = spec
    return PartitionScheme([range_level(key, bounds)])


def load(dataset: Dataset, data_dir: Path | None = None) -> Built:
    """Schema + bulk load + ``analyze()``: the timed part of set-up."""
    from repro import types
    from repro.catalog import DistributionPolicy, TableSchema

    kinds = {"int": types.INT, "float": types.FLOAT, "text": types.TEXT, "date": types.DATE}
    start = time.perf_counter()
    built = Built(open_database(data_dir), data_dir)
    db = built.db
    for table in dataset.tables:
        db.create_table(
            table.name,
            TableSchema.of(*((name, kinds[kind]) for name, kind in table.columns)),
            distribution=DistributionPolicy.hashed(table.distribution),
            partition_scheme=(
                _partition_scheme(table.partition) if table.partition else None
            ),
        )
        begin = time.perf_counter()
        built.rows_inserted += db.insert(table.name, dataset.rows[table.name])
        built.insert_seconds += time.perf_counter() - begin
    db.analyze()
    built.setup_seconds = time.perf_counter() - start
    return built


class Workload:
    name: str
    clients = 1
    #: cache mode its clients run statements under
    cache = config.ENGINE["cache"]
    #: table the storage-scan probe reads
    probe_table: str

    def __init__(self, seed: int, sizes: Sizes, dataset: Dataset):
        self.seed = seed
        self.sizes = sizes
        self.dataset = dataset
        self._oracle: SqliteOracle | None = None

    def build(self, data_dir: Path) -> Built:
        """The timed set-up.  ``data_dir`` is where a durable workload
        keeps its files; the others leave it alone."""
        return load(self.dataset)

    def repetition(self, client: int) -> list[Stmt]:
        """The next repetition's statements for one client."""
        raise NotImplementedError

    def distinct_statements(self) -> list[Stmt]:
        """Every distinct read, for the oracle/warm-up pass."""
        return list(dict.fromkeys(self.repetition(0)))

    @property
    def oracle(self) -> SqliteOracle:
        if self._oracle is None:
            self._oracle = SqliteOracle(self.dataset)
        return self._oracle

    def expected(self, stmt: Stmt) -> list[tuple]:
        """The independent answer to a read, at the oracle's current state."""
        return self.oracle.query(stmt)

    def checkable(self, stmt: Stmt) -> bool:
        """Whether a read's answer is the same under any interleaving of
        the clients (always, when there is one client)."""
        return True


class _FixedList(Workload):
    """A read-only workload: every repetition sends the same statements."""

    def __init__(self, seed: int, sizes: Sizes, dataset: Dataset, statements: list[Stmt]):
        super().__init__(seed, sizes, dataset)
        self._statements = statements

    def repetition(self, client: int) -> list[Stmt]:
        return self._statements


class PointLookup(_FixedList):
    name = "point_lookup"
    probe_table = gen.FACTS

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(
            seed, sizes, gen.point_dataset(seed, sizes), gen.point_statements(seed, sizes)
        )


class DssMix(_FixedList):
    name = "dss_mix"
    probe_table = "store_sales"

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(
            seed, sizes, gen.dss_dataset(seed, sizes), gen.dss_statements(seed, sizes)
        )


class WideScan(_FixedList):
    name = "wide_scan"
    probe_table = gen.WEEKLY

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(
            seed, sizes, gen.wide_dataset(seed, sizes), gen.wide_statements(sizes)
        )

    def expected(self, stmt: Stmt) -> list[tuple]:
        # a full scan must return the generator's own rows
        return self.dataset.rows[gen.FLAT]


class ServeMixed(Workload):
    name = "serve_mixed"
    clients = gen.CLIENTS
    cache = config.SESSION_CACHE
    probe_table = gen.FACTS
    #: after the last repetition, before close and after the reopen, the
    #: whole table must equal the oracle's with every acknowledged write
    END_STATE = Stmt("SELECT id, key, val FROM facts")
    #: the reopen is timed up to the first correct answer to this
    FIRST_ANSWER = Stmt("SELECT count(*), sum(val) FROM facts")

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes, gen.point_dataset(seed, sizes))
        self.pool = gen.serve_pool(seed, sizes)
        self._scripts = [
            gen.ServeScript(seed, sizes, client, self.pool)
            for client in range(self.clients)
        ]

    def build(self, data_dir: Path) -> Built:
        start = time.perf_counter()
        built = load(self.dataset, data_dir)
        built.server = built.db.serve(**config.SERVING)
        built.clients = [
            built.db.session(cache=self.cache).sql
            for _ in range(self.clients)
        ]
        built.setup_seconds = time.perf_counter() - start
        return built

    def repetition(self, client: int) -> list[Stmt]:
        return self._scripts[client].next_repetition()

    def distinct_statements(self) -> list[Stmt]:
        return self.pool

    def checkable(self, stmt: Stmt) -> bool:
        return gen.pool_is_stable(stmt, self.sizes)


CLASSES = {cls.name: cls for cls in (PointLookup, DssMix, WideScan, ServeMixed)}
