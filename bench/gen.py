"""Seeded generators for every workload's tables and statements.

Pure Python with no engine import: the engine is handed the rows and the SQL
text these functions return, and the oracle is handed the same.  The same
seed gives byte-identical output.  A seed changes *literals* (keys, values,
years, quarters) and never *shape*: statement counts, the order of statement
kinds and the Zipf rank sequence come from fixed structural streams, and rows
are spread evenly over partitions, so the work is the same for every seed.
"""

from __future__ import annotations

import datetime
import random
from typing import Iterator, NamedTuple

from .config import PARTITIONS, Sizes


class TableSpec(NamedTuple):
    name: str
    columns: tuple[tuple[str, str], ...]  # (name, "int"|"float"|"text"|"date")
    distribution: str  # hash-distribution column
    #: ``None``, ``("uniform_int", key, lo, hi, parts)`` or
    #: ``("range", key, bounds)``
    partition: tuple | None = None


class Dataset(NamedTuple):
    tables: tuple[TableSpec, ...]
    rows: dict[str, list[tuple]]


class Selection(NamedTuple):
    """The partition-key ranges a statement's constants pin (closed
    intervals; empty = no predicate reaches the key)."""

    table: str
    key: str
    ranges: tuple[tuple[int, int], ...]


class Stmt(NamedTuple):
    sql: str
    params: tuple | None = None
    kind: str = "select"  # select | insert | update | delete
    selection: Selection | None = None


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


# -- point_lookup / serve_mixed tables ------------------------------------------

FACTS = "facts"
DIM = "dim"


def point_dataset(seed: int, sizes: Sizes) -> Dataset:
    """``facts`` with one row per key (so every partition holds the same
    number of rows) and ``dim`` keyed the same way."""
    rng = _rng(seed, "point:data")
    n = sizes.point_rows
    keys = list(range(n))
    rng.shuffle(keys)
    facts = [(i, keys[i], float(rng.randint(0, 1000))) for i in range(n)]
    dim = [(k, rng.randint(0, 96)) for k in range(n)]
    tables = (
        TableSpec(
            FACTS,
            (("id", "int"), ("key", "int"), ("val", "float")),
            "id",
            ("uniform_int", "key", 0, n, PARTITIONS),
        ),
        TableSpec(DIM, (("key", "int"), ("grp", "int")), "key"),
    )
    return Dataset(tables, {FACTS: facts, DIM: dim})


def point_statements(seed: int, sizes: Sizes) -> list[Stmt]:
    """Four shapes round-robin, each with a fresh literal."""
    rng = _rng(seed, "point:statements")
    n, width = sizes.point_rows, sizes.range_width
    out = []
    for i in range(sizes.point_statements):
        shape = i % 4
        if shape == 1:
            k = rng.randrange(n - width)
            out.append(
                Stmt(
                    f"SELECT id, val FROM facts WHERE key BETWEEN {k} AND {k + width}",
                    selection=Selection(FACTS, "key", ((k, k + width),)),
                )
            )
            continue
        k = rng.randrange(n)
        point = Selection(FACTS, "key", ((k, k),))
        if shape == 0:
            out.append(
                Stmt(
                    f"SELECT count(*), sum(val) FROM facts WHERE key = {k}",
                    selection=point,
                )
            )
        elif shape == 2:
            out.append(
                Stmt(
                    "SELECT count(*) FROM facts WHERE key = $1",
                    params=(k,),
                    selection=point,
                )
            )
        else:
            out.append(Stmt(f"SELECT grp FROM dim WHERE key = {k}"))
    return out


# -- serve_mixed ------------------------------------------------------------------

CLIENTS = 2
WRITE_SHARE = 0.20
INSERT_SHARE, UPDATE_SHARE = 0.60, 0.25  # of writes; the rest are deletes


def serve_pool(seed: int, sizes: Sizes) -> list[Stmt]:
    """The distinct range-aggregate reads both clients draw from, hottest
    first.  Even ranks lie in the lower half of the key domain, which is
    never written, and odd ranks in the upper half, so every seed has the
    same share of hot reads that writes can invalidate."""
    rng = _rng(seed, "serve:pool")
    n, width = sizes.point_rows, sizes.range_width
    half = n // 2
    pool = []
    for rank in range(sizes.serve_pool):
        if rank % 2 == 0:
            a = rng.randrange(half - width)
        else:
            a = rng.randrange(half, n - width)
        pool.append(
            Stmt(
                "SELECT count(*), sum(val) FROM facts "
                f"WHERE key BETWEEN {a} AND {a + width}",
                selection=Selection(FACTS, "key", ((a, a + width),)),
            )
        )
    return pool


def pool_is_stable(stmt: Stmt, sizes: Sizes) -> bool:
    """Whether a pool read lies wholly in the never-written lower half of
    the key domain, so its answer is the same under any interleaving."""
    (_, hi), = stmt.selection.ranges
    return hi < sizes.point_rows // 2


def _serve_structure(client: int, sizes: Sizes) -> list[tuple[str, int]]:
    """The seed-independent shape of one client's repetition: the order of
    statement kinds and, for reads, the Zipf(1.0) rank drawn."""
    rng = random.Random(f"structure:{client}")
    total = sizes.serve_statements
    writes = round(total * WRITE_SHARE)
    inserts = round(writes * INSERT_SHARE)
    updates = round(writes * UPDATE_SHARE)
    deletes = writes - inserts - updates
    kinds = (
        ["select"] * (total - writes)
        + ["insert"] * inserts
        + ["update"] * updates
        + ["delete"] * deletes
    )
    rng.shuffle(kinds)
    # a delete removes a row this client inserted: a delete that would come
    # before any insert changes places with the next insert
    live = 0
    for i, kind in enumerate(kinds):
        if kind == "insert":
            live += 1
        elif kind == "delete":
            if live:
                live -= 1
            else:
                j = kinds.index("insert", i)
                kinds[i], kinds[j] = kinds[j], kinds[i]
                live += 1
    ranks = range(sizes.serve_pool)
    weights = [1.0 / (rank + 1) for rank in ranks]
    return [
        (kind, rng.choices(ranks, weights)[0] if kind == "select" else -1)
        for kind in kinds
    ]


class ServeScript:
    """One client's statement stream, one repetition at a time.

    Writes touch only keys in the upper half of the domain, and each client
    owns the keys congruent to its index, so the end state does not depend
    on how the clients interleave.
    """

    def __init__(self, seed: int, sizes: Sizes, client: int, pool: list[Stmt]):
        self._rng = _rng(seed, f"serve:client{client}")
        self._pool = pool
        self._structure = _serve_structure(client, sizes)
        half = sizes.point_rows // 2
        self._owned = [
            k for k in range(half, sizes.point_rows) if k % CLIENTS == client
        ]
        self._next_id = 10_000_000 * (client + 1)
        self._live: list[tuple[int, int]] = []  # (id, key) this client inserted

    def next_repetition(self) -> list[Stmt]:
        rng = self._rng
        out = []
        for kind, rank in self._structure:
            if kind == "select":
                out.append(self._pool[rank])
            elif kind == "insert":
                row_id, key = self._next_id, rng.choice(self._owned)
                self._next_id += 1
                self._live.append((row_id, key))
                val = float(rng.randint(0, 1000))
                out.append(
                    Stmt(f"INSERT INTO facts VALUES ({row_id}, {key}, {val})", kind=kind)
                )
            elif kind == "update":
                key, val = rng.choice(self._owned), float(rng.randint(0, 1000))
                out.append(
                    Stmt(f"UPDATE facts SET val = {val} WHERE key = {key}", kind=kind)
                )
            else:
                row_id, key = self._live.pop(rng.randrange(len(self._live)))
                out.append(
                    Stmt(
                        f"DELETE FROM facts WHERE key = {key} AND id = {row_id}",
                        kind=kind,
                    )
                )
        return out


# -- wide_scan ----------------------------------------------------------------------

SHIPDATE_START = datetime.date(1992, 1, 1)
SHIPDATE_END = datetime.date(1999, 1, 1)  # 7 years
FLAT = "lineitem"
WEEKLY = "lineitem_w"

_LINEITEM_COLUMNS = (
    ("l_orderkey", "int"),
    ("l_partkey", "int"),
    ("l_suppkey", "int"),
    ("l_linenumber", "int"),
    ("l_quantity", "float"),
    ("l_extendedprice", "float"),
    ("l_discount", "float"),
    ("l_tax", "float"),
    ("l_returnflag", "text"),
    ("l_linestatus", "text"),
    ("l_shipdate", "date"),
)


def wide_dataset(seed: int, sizes: Sizes) -> Dataset:
    """The same ``lineitem`` rows twice: unpartitioned, and in 361 roughly
    weekly ship-date partitions (Table 2's largest scenario)."""
    rng = _rng(seed, "wide:data")
    days = (SHIPDATE_END - SHIPDATE_START).days
    rows = [
        (
            i // 4 + 1,
            rng.randint(1, 20_000),
            rng.randint(1, 1_000),
            i % 4 + 1,
            float(rng.randint(1, 50)),
            round(rng.uniform(900.0, 105_000.0), 2),
            round(rng.uniform(0.0, 0.1), 2),
            round(rng.uniform(0.0, 0.08), 2),
            rng.choice("ANR"),
            rng.choice("OF"),
            SHIPDATE_START + datetime.timedelta(days=rng.randrange(days)),
        )
        for i in range(sizes.wide_rows)
    ]
    bounds = [
        SHIPDATE_START + datetime.timedelta(days=round(i * days / PARTITIONS))
        for i in range(PARTITIONS)
    ]
    bounds.append(SHIPDATE_END)
    tables = (
        TableSpec(FLAT, _LINEITEM_COLUMNS, "l_orderkey"),
        TableSpec(
            WEEKLY, _LINEITEM_COLUMNS, "l_orderkey", ("range", "l_shipdate", bounds)
        ),
    )
    return Dataset(tables, {FLAT: rows, WEEKLY: rows})


def wide_statements(sizes: Sizes) -> list[Stmt]:
    pair = [
        Stmt(f"SELECT * FROM {FLAT}"),
        Stmt(f"SELECT * FROM {WEEKLY}", selection=Selection(WEEKLY, "l_shipdate", ())),
    ]
    return pair * sizes.wide_pairs


# -- dss_mix ----------------------------------------------------------------------------

FIRST_DAY = datetime.date(1998, 1, 1)
NUM_DAYS = 1825  # five years of date surrogate keys
YEARS = (1998, 1999, 2000, 2001, 2002)
FACT_PARTITIONS = 60
CATEGORIES = (
    "Books", "Electronics", "Home", "Jewelry", "Music",
    "Shoes", "Sports", "Toys", "Women", "Men",
)
STATES = ("CA", "NY", "TX", "WA", "IL", "GA", "OH", "FL", "MI", "PA")

#: fact table -> (column prefix, date-key column, extra columns, row share)
_FACTS = {
    "store_sales": ("ss", "ss_sold_date_sk", "sales+profit", 1.0),
    "web_sales": ("ws", "ws_sold_date_sk", "sales", 1.0),
    "catalog_sales": ("cs", "cs_sold_date_sk", "sales", 1.0),
    "store_returns": ("sr", "sr_returned_date_sk", "returns", 0.5),
    "web_returns": ("wr", "wr_returned_date_sk", "returns", 0.5),
    "catalog_returns": ("cr", "cr_returned_date_sk", "returns", 0.5),
    "inventory": ("inv", "inv_date_sk", "inventory", 1.0),
}


def _fact_columns(prefix: str, date_key: str, layout: str) -> tuple:
    if layout == "inventory":
        return (
            (date_key, "int"),
            ("inv_item_sk", "int"),
            ("inv_quantity_on_hand", "int"),
        )
    head = ((date_key, "int"), (f"{prefix}_item_sk", "int"), (f"{prefix}_customer_sk", "int"))
    if layout == "returns":
        return head + ((f"{prefix}_return_amt", "float"),)
    sales = head + ((f"{prefix}_quantity", "int"), (f"{prefix}_sales_price", "float"))
    if layout == "sales+profit":
        sales += ((f"{prefix}_net_profit", "float"),)
    return sales


def _fact_rows(rng: random.Random, layout: str, count: int, sizes: Sizes) -> Iterator[tuple]:
    # date keys go round-robin over the days, so every partition of every
    # seed holds the same number of rows
    start = rng.randrange(NUM_DAYS)
    items, customers = sizes.dss_items, sizes.dss_customers
    for i in range(count):
        day = (start + i) % NUM_DAYS
        if layout == "inventory":
            yield (day, rng.randrange(items), rng.randint(0, 500))
            continue
        head = (day, rng.randrange(items), rng.randrange(customers))
        if layout == "returns":
            yield head + (round(rng.uniform(1.0, 200.0), 2),)
            continue
        row = head + (rng.randint(1, 20), round(rng.uniform(1.0, 300.0), 2))
        if layout == "sales+profit":
            row += (round(rng.uniform(-50.0, 150.0), 2),)
        yield row


def dss_dataset(seed: int, sizes: Sizes) -> Dataset:
    """A star schema shaped like the paper's TPC-DS subset: seven fact
    tables in 60 date-key partitions, and three dimensions."""
    rng = _rng(seed, "dss:data")
    tables = [
        TableSpec(
            "date_dim",
            (
                ("d_date_sk", "int"),
                ("d_date", "date"),
                ("d_year", "int"),
                ("d_moy", "int"),
                ("d_qoy", "int"),
                ("d_dow", "int"),
            ),
            "d_date_sk",
        ),
        TableSpec(
            "item",
            (
                ("i_item_sk", "int"),
                ("i_category", "text"),
                ("i_brand_id", "int"),
                ("i_current_price", "float"),
            ),
            "i_item_sk",
        ),
        TableSpec(
            "customer",
            (("c_customer_sk", "int"), ("c_state", "text"), ("c_birth_year", "int")),
            "c_customer_sk",
        ),
    ]
    rows: dict[str, list[tuple]] = {}
    rows["date_dim"] = []
    for sk in range(NUM_DAYS):
        day = FIRST_DAY + datetime.timedelta(days=sk)
        rows["date_dim"].append(
            (sk, day, day.year, day.month, (day.month - 1) // 3 + 1, day.isoweekday())
        )
    rows["item"] = [
        (
            sk,
            rng.choice(CATEGORIES),
            rng.randint(1, 100),
            round(rng.uniform(1.0, 300.0), 2),
        )
        for sk in range(sizes.dss_items)
    ]
    rows["customer"] = [
        (sk, rng.choice(STATES), rng.randint(1930, 2000))
        for sk in range(sizes.dss_customers)
    ]
    for name, (prefix, date_key, layout, share) in _FACTS.items():
        tables.append(
            TableSpec(
                name,
                _fact_columns(prefix, date_key, layout),
                f"{prefix}_item_sk",
                ("uniform_int", date_key, 0, NUM_DAYS, FACT_PARTITIONS),
            )
        )
        count = int(sizes.dss_fact_rows * share)
        rows[name] = list(_fact_rows(rng, layout, count, sizes))
    return Dataset(tuple(tables), rows)


def _sk(day: datetime.date) -> int:
    return (day - FIRST_DAY).days


def _year_sks(year: int) -> tuple[int, int]:
    return _sk(datetime.date(year, 1, 1)), _sk(datetime.date(year, 12, 31))


def _quarter_sks(year: int, quarter: int) -> tuple[int, int]:
    first = 3 * (quarter - 1) + 1
    lo = _sk(datetime.date(year, first, 1))
    if quarter == 4:
        return lo, _sk(datetime.date(year, 12, 31))
    return lo, _sk(datetime.date(year, first + 3, 1)) - 1


def dss_queries(seed: int) -> list[tuple[str, str, Stmt]]:
    """The 33-query mix as ``(name, category, statement)``: 15 *static*
    (constant ranges on the partition key), 11 *dynamic* (the key is bound
    through ``date_dim``) and 7 *none* (no predicate reaches the key).
    Every year and quarter is drawn from the seed; a month is the first of
    its drawn quarter.  The other constants are fixed, so that no seed has
    more rows to join or aggregate than another."""
    rng = _rng(seed, "dss:queries")
    out: list[tuple[str, str, Stmt]] = []

    def year() -> int:
        return rng.choice(YEARS)

    def quarter() -> tuple[int, int]:
        return rng.choice(YEARS), rng.randint(1, 4)

    def add(name, category, sql, table=None, key=None, ranges=()):
        selection = None
        if category != "dynamic":
            selection = Selection(table, key, tuple(ranges))
        out.append((name, category, Stmt(" ".join(sql.split()), selection=selection)))

    def static(name, table, select, span, extra="", tail=""):
        key = _FACTS[table][1]
        lo, hi = span
        add(
            name,
            "static",
            f"SELECT {select} FROM {table}{extra} "
            f"WHERE {key} BETWEEN {lo} AND {hi}{tail}",
            table,
            key,
            [span],
        )

    static("q01_ss_year_total", "store_sales", "sum(ss_sales_price) AS total", _year_sks(year()))
    static("q02_ss_quarter_avg", "store_sales", "avg(ss_sales_price) AS avg_price", _quarter_sks(*quarter()))
    static("q03_ws_year_count", "web_sales", "count(*) AS cnt", _year_sks(year()))
    static("q04_cs_quarter_sum", "catalog_sales", "sum(cs_sales_price) AS total", _quarter_sks(*quarter()))
    static("q05_sr_year_returns", "store_returns", "sum(sr_return_amt) AS refunds", _year_sks(year()))
    static("q06_wr_window", "web_returns", "count(*) AS cnt, avg(wr_return_amt) AS avg_amt", _quarter_sks(*quarter()))
    static("q07_cr_window", "catalog_returns", "sum(cr_return_amt) AS total", _year_sks(year()))
    static("q08_inv_snapshot", "inventory", "avg(inv_quantity_on_hand) AS avg_qty", _quarter_sks(*quarter()))
    static(
        "q09_ss_item_static", "store_sales", "i_category, sum(ss_sales_price) AS total",
        _quarter_sks(*quarter()), extra=", item",
        tail=" AND ss_item_sk = i_item_sk GROUP BY i_category",
    )
    static(
        "q10_ws_customer_static", "web_sales", "c_state, count(*) AS orders",
        _year_sks(year()), extra=", customer",
        tail=" AND ws_customer_sk = c_customer_sk GROUP BY c_state",
    )
    month_lo = _quarter_sks(*quarter())[0]
    static("q11_ss_point_month", "store_sales", "count(*) AS cnt", (month_lo, month_lo + 30))
    first = rng.choice(YEARS[:-1])
    static(
        "q12_cs_two_years", "catalog_sales", "avg(cs_quantity) AS avg_qty",
        (_year_sks(first)[0], _year_sks(first + 1)[1]),
    )
    static(
        "q13_inv_low_stock", "inventory", "count(*) AS cnt", _year_sks(year()),
        tail=" AND inv_quantity_on_hand < 50",
    )
    static(
        "q14_ss_profit_static", "store_sales", "sum(ss_net_profit) AS profit",
        _year_sks(year()), tail=" AND ss_quantity > 5",
    )
    a, b = _quarter_sks(*quarter()), _quarter_sks(*quarter())
    add(
        "q15_wr_or_ranges",
        "static",
        "SELECT count(*) AS cnt FROM web_returns "
        f"WHERE wr_returned_date_sk BETWEEN {a[0]} AND {a[1]} "
        f"OR wr_returned_date_sk BETWEEN {b[0]} AND {b[1]}",
        "web_returns",
        "wr_returned_date_sk",
        [a, b],
    )

    def dynamic(name, sql):
        add(name, "dynamic", sql)

    y, q = quarter()
    dynamic("q16_ss_in_subquery", f"""
        SELECT avg(ss_sales_price) AS avg_price FROM store_sales
        WHERE ss_sold_date_sk IN (SELECT d_date_sk FROM date_dim
          WHERE d_year = {y} AND d_moy BETWEEN {3 * q - 2} AND {3 * q})""")
    y, q = quarter()
    dynamic("q17_ss_date_join", f"""
        SELECT d_moy, sum(ss_sales_price) AS total FROM store_sales, date_dim
        WHERE ss_sold_date_sk = d_date_sk AND d_year = {y} AND d_qoy = {q}
        GROUP BY d_moy""")
    y, q = quarter()
    dynamic("q18_ws_date_join", f"""
        SELECT count(*) AS cnt FROM web_sales, date_dim
        WHERE ws_sold_date_sk = d_date_sk AND d_year = {y} AND d_moy = {3 * q - 2}""")
    y, q = quarter()
    dynamic("q19_cs_in_subquery", f"""
        SELECT sum(cs_sales_price) AS total FROM catalog_sales
        WHERE cs_sold_date_sk IN
          (SELECT d_date_sk FROM date_dim WHERE d_year = {y} AND d_qoy = {q})""")
    dynamic("q20_sr_date_join", f"""
        SELECT avg(sr_return_amt) AS avg_amt FROM store_returns, date_dim
        WHERE sr_returned_date_sk = d_date_sk
          AND d_year = {year()} AND d_dow = 1""")
    y, q = quarter()
    dynamic("q21_wr_in_subquery", f"""
        SELECT count(*) AS cnt FROM web_returns
        WHERE wr_returned_date_sk IN (SELECT d_date_sk FROM date_dim
          WHERE d_year = {y} AND d_moy = {3 * q - 2})""")
    y, q = quarter()
    dynamic("q22_cr_date_join", f"""
        SELECT sum(cr_return_amt) AS total FROM catalog_returns, date_dim
        WHERE cr_returned_date_sk = d_date_sk AND d_year = {y} AND d_qoy = {q}""")
    y, q = quarter()
    dynamic("q23_inv_date_join", f"""
        SELECT avg(inv_quantity_on_hand) AS avg_qty FROM inventory, date_dim
        WHERE inv_date_sk = d_date_sk AND d_year = {y} AND d_moy = {3 * q - 2}""")
    y, q = quarter()
    dynamic("q24_ss_star_dynamic", f"""
        SELECT i_category, sum(ss_sales_price) AS total
        FROM store_sales, date_dim, item
        WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
          AND d_year = {y} AND d_moy BETWEEN {3 * q - 2} AND {3 * q}
        GROUP BY i_category""")
    y, q = quarter()
    dynamic("q25_ws_star_dynamic", f"""
        SELECT c_state, sum(ws_sales_price) AS total
        FROM web_sales, date_dim, customer
        WHERE ws_sold_date_sk = d_date_sk AND ws_customer_sk = c_customer_sk
          AND d_year = {y} AND d_qoy = {q}
        GROUP BY c_state""")
    y, q = quarter()
    dynamic("q26_sr_two_months", f"""
        SELECT count(*) AS cnt FROM store_returns, date_dim
        WHERE sr_returned_date_sk = d_date_sk
          AND d_year = {y} AND d_moy BETWEEN {3 * q - 2} AND {3 * q - 1}""")

    def none(name, table, sql):
        add(name, "none", sql, table, _FACTS[table][1])

    none("q27_ss_full", "store_sales",
         "SELECT count(*) AS cnt, sum(ss_sales_price) AS total FROM store_sales")
    none("q28_ws_by_item", "web_sales", """
        SELECT i_category, avg(ws_sales_price) AS avg_price FROM web_sales, item
        WHERE ws_item_sk = i_item_sk AND i_current_price > 100
        GROUP BY i_category""")
    none("q29_cs_big_orders", "catalog_sales",
         "SELECT count(*) AS cnt FROM catalog_sales WHERE cs_quantity >= 15")
    none("q30_sr_by_state", "store_returns", """
        SELECT c_state, sum(sr_return_amt) AS refunds FROM store_returns, customer
        WHERE sr_customer_sk = c_customer_sk GROUP BY c_state""")
    none("q31_inv_total", "inventory",
         "SELECT sum(inv_quantity_on_hand) AS on_hand FROM inventory")
    none("q32_wr_heavy", "web_returns",
         "SELECT avg(wr_return_amt) AS avg_amt FROM web_returns WHERE wr_return_amt > 100")
    none("q33_cr_item_join", "catalog_returns", """
        SELECT i_category, count(*) AS cnt FROM catalog_returns, item
        WHERE cr_item_sk = i_item_sk GROUP BY i_category""")
    return out


def dss_statements(seed: int, sizes: Sizes) -> list[Stmt]:
    return [stmt for _, _, stmt in dss_queries(seed)] * sizes.dss_passes
