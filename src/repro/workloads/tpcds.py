"""TPC-DS-like decision-support workload (paper Sections 4.1 and 4.3).

The paper evaluates partition elimination on the TPC-DS queries that touch
its partitioned tables: ``store_sales``, ``web_sales``, ``catalog_sales``,
``store_returns``, ``web_returns``, ``catalog_returns`` and ``inventory``.
This module builds a scaled-down star schema with the same structure — all
seven fact tables range-partitioned on their date surrogate key — plus the
``date_dim``, ``item`` and ``customer`` dimensions, and defines a workload
of analytic query templates spanning the elimination categories of the
paper's Table 3:

* constant date-range predicates → *static* elimination (both optimizers);
* joins/IN-subqueries against ``date_dim`` → *dynamic* elimination (Orca
  only — the legacy Planner's parameter mechanism does not fire for these
  shapes);
* no date predicate at all → no elimination possible for either.
"""

from __future__ import annotations

import datetime
import random
from typing import Iterator

from ..catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    uniform_int_level,
)
from ..engine import Database
from .. import types as t

#: five years of days; surrogate keys 0 .. NUM_DAYS-1
FIRST_DAY = datetime.date(1998, 1, 1)
NUM_DAYS = 1825
#: each fact table is partitioned into this many date-sk ranges ("monthly")
FACT_PARTITIONS = 60

CATEGORIES = (
    "Books", "Electronics", "Home", "Jewelry", "Music", "Shoes", "Sports",
    "Toys", "Women", "Men",
)
STATES = ("CA", "NY", "TX", "WA", "IL", "GA", "OH", "FL", "MI", "PA")

#: the seven partitioned tables of the paper's experiment
FACT_TABLES = (
    "store_sales",
    "web_sales",
    "catalog_sales",
    "store_returns",
    "web_returns",
    "catalog_returns",
    "inventory",
)


def _fact_scheme(key: str) -> PartitionScheme:
    return PartitionScheme(
        [uniform_int_level(key, 0, NUM_DAYS, FACT_PARTITIONS)]
    )


def create_schema(db: Database) -> None:
    """DDL for the complete star schema."""
    db.create_table(
        "date_dim",
        TableSchema.of(
            ("d_date_sk", t.INT),
            ("d_date", t.DATE),
            ("d_year", t.INT),
            ("d_moy", t.INT),
            ("d_qoy", t.INT),
            ("d_dow", t.INT),
        ),
        distribution=DistributionPolicy.hashed("d_date_sk"),
    )
    db.create_table(
        "item",
        TableSchema.of(
            ("i_item_sk", t.INT),
            ("i_category", t.TEXT),
            ("i_brand_id", t.INT),
            ("i_current_price", t.FLOAT),
        ),
        distribution=DistributionPolicy.hashed("i_item_sk"),
    )
    db.create_table(
        "customer",
        TableSchema.of(
            ("c_customer_sk", t.INT),
            ("c_state", t.TEXT),
            ("c_birth_year", t.INT),
        ),
        distribution=DistributionPolicy.hashed("c_customer_sk"),
    )
    db.create_table(
        "store_sales",
        TableSchema.of(
            ("ss_sold_date_sk", t.INT),
            ("ss_item_sk", t.INT),
            ("ss_customer_sk", t.INT),
            ("ss_quantity", t.INT),
            ("ss_sales_price", t.FLOAT),
            ("ss_net_profit", t.FLOAT),
        ),
        distribution=DistributionPolicy.hashed("ss_item_sk"),
        partition_scheme=_fact_scheme("ss_sold_date_sk"),
    )
    db.create_table(
        "web_sales",
        TableSchema.of(
            ("ws_sold_date_sk", t.INT),
            ("ws_item_sk", t.INT),
            ("ws_customer_sk", t.INT),
            ("ws_quantity", t.INT),
            ("ws_sales_price", t.FLOAT),
        ),
        distribution=DistributionPolicy.hashed("ws_item_sk"),
        partition_scheme=_fact_scheme("ws_sold_date_sk"),
    )
    db.create_table(
        "catalog_sales",
        TableSchema.of(
            ("cs_sold_date_sk", t.INT),
            ("cs_item_sk", t.INT),
            ("cs_customer_sk", t.INT),
            ("cs_quantity", t.INT),
            ("cs_sales_price", t.FLOAT),
        ),
        distribution=DistributionPolicy.hashed("cs_item_sk"),
        partition_scheme=_fact_scheme("cs_sold_date_sk"),
    )
    db.create_table(
        "store_returns",
        TableSchema.of(
            ("sr_returned_date_sk", t.INT),
            ("sr_item_sk", t.INT),
            ("sr_customer_sk", t.INT),
            ("sr_return_amt", t.FLOAT),
        ),
        distribution=DistributionPolicy.hashed("sr_item_sk"),
        partition_scheme=_fact_scheme("sr_returned_date_sk"),
    )
    db.create_table(
        "web_returns",
        TableSchema.of(
            ("wr_returned_date_sk", t.INT),
            ("wr_item_sk", t.INT),
            ("wr_customer_sk", t.INT),
            ("wr_return_amt", t.FLOAT),
        ),
        distribution=DistributionPolicy.hashed("wr_item_sk"),
        partition_scheme=_fact_scheme("wr_returned_date_sk"),
    )
    db.create_table(
        "catalog_returns",
        TableSchema.of(
            ("cr_returned_date_sk", t.INT),
            ("cr_item_sk", t.INT),
            ("cr_customer_sk", t.INT),
            ("cr_return_amt", t.FLOAT),
        ),
        distribution=DistributionPolicy.hashed("cr_item_sk"),
        partition_scheme=_fact_scheme("cr_returned_date_sk"),
    )
    db.create_table(
        "inventory",
        TableSchema.of(
            ("inv_date_sk", t.INT),
            ("inv_item_sk", t.INT),
            ("inv_quantity_on_hand", t.INT),
        ),
        distribution=DistributionPolicy.hashed("inv_item_sk"),
        partition_scheme=_fact_scheme("inv_date_sk"),
    )


def generate_date_dim() -> Iterator[tuple]:
    for sk in range(NUM_DAYS):
        day = FIRST_DAY + datetime.timedelta(days=sk)
        yield (
            sk,
            day,
            day.year,
            day.month,
            (day.month - 1) // 3 + 1,
            day.isoweekday(),
        )


def generate_item(count: int, rng: random.Random) -> Iterator[tuple]:
    for sk in range(count):
        yield (
            sk,
            rng.choice(CATEGORIES),
            rng.randint(1, 100),
            round(rng.uniform(1.0, 300.0), 2),
        )


def generate_customer(count: int, rng: random.Random) -> Iterator[tuple]:
    for sk in range(count):
        yield (sk, rng.choice(STATES), rng.randint(1930, 2000))


def _sales_row(rng: random.Random, items: int, customers: int) -> tuple:
    return (
        rng.randrange(NUM_DAYS),
        rng.randrange(items),
        rng.randrange(customers),
        rng.randint(1, 20),
        round(rng.uniform(1.0, 300.0), 2),
    )


def load_data(
    db: Database,
    fact_rows: int = 2000,
    items: int = 400,
    customers: int = 300,
    seed: int = 2014,
) -> None:
    """Populate the schema; fact tables get ``fact_rows`` rows each."""
    rng = random.Random(seed)
    db.insert("date_dim", generate_date_dim())
    db.insert("item", generate_item(items, rng))
    db.insert("customer", generate_customer(customers, rng))
    db.insert(
        "store_sales",
        (
            _sales_row(rng, items, customers)
            + (round(rng.uniform(-50.0, 150.0), 2),)
            for _ in range(fact_rows)
        ),
    )
    db.insert(
        "web_sales",
        (_sales_row(rng, items, customers) for _ in range(fact_rows)),
    )
    db.insert(
        "catalog_sales",
        (_sales_row(rng, items, customers) for _ in range(fact_rows)),
    )
    for table in ("store_returns", "web_returns", "catalog_returns"):
        db.insert(
            table,
            (
                (
                    rng.randrange(NUM_DAYS),
                    rng.randrange(items),
                    rng.randrange(customers),
                    round(rng.uniform(1.0, 200.0), 2),
                )
                for _ in range(fact_rows // 2)
            ),
        )
    db.insert(
        "inventory",
        (
            (rng.randrange(NUM_DAYS), rng.randrange(items), rng.randint(0, 500))
            for _ in range(fact_rows)
        ),
    )
    db.analyze()


def build_database(
    fact_rows: int = 2000,
    num_segments: int = 4,
    seed: int = 2014,
) -> Database:
    db = Database(num_segments=num_segments)
    create_schema(db)
    load_data(db, fact_rows=fact_rows, seed=seed)
    return db


class WorkloadQuery:
    """One workload query with the elimination category it exercises."""

    def __init__(self, name: str, sql: str, kind: str):
        self.name = name
        self.sql = sql
        #: 'static' | 'dynamic' | 'none' — which elimination the shape allows
        self.kind = kind

    def __repr__(self) -> str:
        return f"WorkloadQuery({self.name}, {self.kind})"


def _year_range(year: int) -> tuple[int, int]:
    """date-sk range [lo, hi] covering one calendar year."""
    lo = (datetime.date(year, 1, 1) - FIRST_DAY).days
    hi = (datetime.date(year, 12, 31) - FIRST_DAY).days
    return lo, hi


def _quarter_range(year: int, quarter: int) -> tuple[int, int]:
    first_month = 3 * (quarter - 1) + 1
    lo = (datetime.date(year, first_month, 1) - FIRST_DAY).days
    if quarter == 4:
        hi = (datetime.date(year, 12, 31) - FIRST_DAY).days
    else:
        hi = (datetime.date(year, first_month + 3, 1) - FIRST_DAY).days - 1
    return lo, hi


def workload_queries() -> list[WorkloadQuery]:
    """The query workload for the Table 3 / Figure 16 / Figure 17 runs."""
    queries: list[WorkloadQuery] = []

    def add(name: str, kind: str, sql: str) -> None:
        queries.append(WorkloadQuery(name, " ".join(sql.split()), kind))

    # --- static elimination: constant ranges on the partition key --------
    y99 = _year_range(1999)
    y00 = _year_range(2000)
    y01 = _year_range(2001)
    q4_00 = _quarter_range(2000, 4)
    q2_01 = _quarter_range(2001, 2)
    add("q01_ss_year_total", "static", f"""
        SELECT sum(ss_sales_price) AS total FROM store_sales
        WHERE ss_sold_date_sk BETWEEN {y00[0]} AND {y00[1]}""")
    add("q02_ss_quarter_avg", "static", f"""
        SELECT avg(ss_sales_price) AS avg_price FROM store_sales
        WHERE ss_sold_date_sk BETWEEN {q4_00[0]} AND {q4_00[1]}""")
    add("q03_ws_year_count", "static", f"""
        SELECT count(*) AS cnt FROM web_sales
        WHERE ws_sold_date_sk BETWEEN {y99[0]} AND {y99[1]}""")
    add("q04_cs_quarter_sum", "static", f"""
        SELECT sum(cs_sales_price) AS total FROM catalog_sales
        WHERE cs_sold_date_sk BETWEEN {q2_01[0]} AND {q2_01[1]}""")
    add("q05_sr_year_returns", "static", f"""
        SELECT sum(sr_return_amt) AS refunds FROM store_returns
        WHERE sr_returned_date_sk BETWEEN {y01[0]} AND {y01[1]}""")
    add("q06_wr_window", "static", f"""
        SELECT count(*) AS cnt, avg(wr_return_amt) AS avg_amt
        FROM web_returns
        WHERE wr_returned_date_sk BETWEEN {q4_00[0]} AND {q4_00[1]}""")
    add("q07_cr_window", "static", f"""
        SELECT sum(cr_return_amt) AS total FROM catalog_returns
        WHERE cr_returned_date_sk BETWEEN {y00[0]} AND {y00[1]}""")
    add("q08_inv_snapshot", "static", f"""
        SELECT avg(inv_quantity_on_hand) AS avg_qty FROM inventory
        WHERE inv_date_sk BETWEEN {q2_01[0]} AND {q2_01[1]}""")
    add("q09_ss_item_static", "static", f"""
        SELECT i_category, sum(ss_sales_price) AS total
        FROM store_sales, item
        WHERE ss_item_sk = i_item_sk
          AND ss_sold_date_sk BETWEEN {q4_00[0]} AND {q4_00[1]}
        GROUP BY i_category""")
    add("q10_ws_customer_static", "static", f"""
        SELECT c_state, count(*) AS orders
        FROM web_sales, customer
        WHERE ws_customer_sk = c_customer_sk
          AND ws_sold_date_sk BETWEEN {y00[0]} AND {y00[1]}
        GROUP BY c_state""")
    add("q11_ss_point_month", "static", f"""
        SELECT count(*) AS cnt FROM store_sales
        WHERE ss_sold_date_sk BETWEEN {q4_00[0]} AND {q4_00[0] + 30}""")
    add("q12_cs_two_years", "static", f"""
        SELECT avg(cs_quantity) AS avg_qty FROM catalog_sales
        WHERE cs_sold_date_sk BETWEEN {y99[0]} AND {y00[1]}""")
    add("q13_inv_low_stock", "static", f"""
        SELECT count(*) AS cnt FROM inventory
        WHERE inv_date_sk BETWEEN {y01[0]} AND {y01[1]}
          AND inv_quantity_on_hand < 50""")
    add("q14_ss_profit_static", "static", f"""
        SELECT sum(ss_net_profit) AS profit FROM store_sales
        WHERE ss_sold_date_sk BETWEEN {y01[0]} AND {y01[1]}
          AND ss_quantity > 5""")
    add("q15_wr_or_ranges", "static", f"""
        SELECT count(*) AS cnt FROM web_returns
        WHERE wr_returned_date_sk BETWEEN {q4_00[0]} AND {q4_00[1]}
           OR wr_returned_date_sk BETWEEN {q2_01[0]} AND {q2_01[1]}""")

    # --- dynamic elimination: the partition key is bound through a join --
    add("q16_ss_in_subquery", "dynamic", """
        SELECT avg(ss_sales_price) AS avg_price FROM store_sales
        WHERE ss_sold_date_sk IN
          (SELECT d_date_sk FROM date_dim
           WHERE d_year = 2000 AND d_moy BETWEEN 10 AND 12)""")
    add("q17_ss_date_join", "dynamic", """
        SELECT d_moy, sum(ss_sales_price) AS total
        FROM store_sales, date_dim
        WHERE ss_sold_date_sk = d_date_sk AND d_year = 2001 AND d_qoy = 2
        GROUP BY d_moy""")
    add("q18_ws_date_join", "dynamic", """
        SELECT count(*) AS cnt FROM web_sales, date_dim
        WHERE ws_sold_date_sk = d_date_sk AND d_year = 1999 AND d_moy = 6""")
    add("q19_cs_in_subquery", "dynamic", """
        SELECT sum(cs_sales_price) AS total FROM catalog_sales
        WHERE cs_sold_date_sk IN
          (SELECT d_date_sk FROM date_dim WHERE d_year = 2002 AND d_qoy = 1)""")
    add("q20_sr_date_join", "dynamic", """
        SELECT avg(sr_return_amt) AS avg_amt FROM store_returns, date_dim
        WHERE sr_returned_date_sk = d_date_sk
          AND d_year = 2000 AND d_dow = 1""")
    add("q21_wr_in_subquery", "dynamic", """
        SELECT count(*) AS cnt FROM web_returns
        WHERE wr_returned_date_sk IN
          (SELECT d_date_sk FROM date_dim WHERE d_year = 2001 AND d_moy = 12)""")
    add("q22_cr_date_join", "dynamic", """
        SELECT sum(cr_return_amt) AS total FROM catalog_returns, date_dim
        WHERE cr_returned_date_sk = d_date_sk AND d_year = 1998 AND d_qoy = 4""")
    add("q23_inv_date_join", "dynamic", """
        SELECT avg(inv_quantity_on_hand) AS avg_qty FROM inventory, date_dim
        WHERE inv_date_sk = d_date_sk AND d_year = 2000 AND d_moy = 1""")
    add("q24_ss_star_dynamic", "dynamic", """
        SELECT i_category, sum(ss_sales_price) AS total
        FROM store_sales, date_dim, item
        WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
          AND d_year = 2001 AND d_moy BETWEEN 4 AND 6
        GROUP BY i_category""")
    add("q25_ws_star_dynamic", "dynamic", """
        SELECT c_state, sum(ws_sales_price) AS total
        FROM web_sales, date_dim, customer
        WHERE ws_sold_date_sk = d_date_sk
          AND ws_customer_sk = c_customer_sk
          AND d_year = 2000 AND d_qoy = 3
        GROUP BY c_state""")
    add("q26_ss_sr_dynamic", "dynamic", """
        SELECT count(*) AS cnt
        FROM store_returns, date_dim
        WHERE sr_returned_date_sk = d_date_sk
          AND d_year = 2002 AND d_moy BETWEEN 1 AND 2""")

    # --- no elimination possible: no predicate reaches the partition key --
    add("q27_ss_full", "none", """
        SELECT count(*) AS cnt, sum(ss_sales_price) AS total
        FROM store_sales""")
    add("q28_ws_by_item", "none", """
        SELECT i_category, avg(ws_sales_price) AS avg_price
        FROM web_sales, item
        WHERE ws_item_sk = i_item_sk AND i_current_price > 100
        GROUP BY i_category""")
    add("q29_cs_big_orders", "none", """
        SELECT count(*) AS cnt FROM catalog_sales WHERE cs_quantity >= 15""")
    add("q30_sr_by_state", "none", """
        SELECT c_state, sum(sr_return_amt) AS refunds
        FROM store_returns, customer
        WHERE sr_customer_sk = c_customer_sk
        GROUP BY c_state""")
    add("q31_inv_total", "none", """
        SELECT sum(inv_quantity_on_hand) AS on_hand FROM inventory""")
    add("q32_wr_heavy", "none", """
        SELECT avg(wr_return_amt) AS avg_amt FROM web_returns
        WHERE wr_return_amt > 100""")
    add("q33_cr_item_join", "none", """
        SELECT i_category, count(*) AS cnt
        FROM catalog_returns, item
        WHERE cr_item_sk = i_item_sk
        GROUP BY i_category""")
    return queries


def fact_table_of(query: WorkloadQuery) -> str:
    """The partitioned table a workload query mainly scans."""
    for table in FACT_TABLES:
        if table in query.sql.lower():
            return table
    raise ValueError(f"query {query.name} references no fact table")
