"""Shared fixtures: small, deterministic databases used across suites."""

from __future__ import annotations

import datetime
import random

import pytest

from repro import Database
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    list_level,
    monthly_range_level,
    uniform_int_level,
)

ORDERS_START = datetime.date(2012, 1, 1)


def rows_of(op, segment, ctx) -> list[tuple]:
    """Every row the executor's operators produce for ``op`` on one
    segment, at the context's batch width."""
    from repro.executor.iterators import drain

    return drain(op, segment, ctx)


def approx_rows(left, right, rel=1e-9):
    """Order-insensitive row-set comparison with float tolerance.

    Distributed execution sums floats in a different order than a serial
    reference, so exact equality is too strict for aggregates.
    """
    left_sorted = sorted(left, key=repr)
    right_sorted = sorted(right, key=repr)
    if len(left_sorted) != len(right_sorted):
        return False
    for a, b in zip(left_sorted, right_sorted):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, float) and isinstance(y, float):
                if x != pytest.approx(y, rel=rel, abs=1e-9):
                    return False
            elif x != y:
                return False
    return True


@pytest.fixture(scope="module")
def orders_db() -> Database:
    """The paper's Figure 1 scenario: ``orders`` with 24 monthly partitions
    plus a ``date_dim`` star-schema variant (Figure 3)."""
    db = Database(num_segments=4)
    db.create_table(
        "orders",
        TableSchema.of(
            ("order_id", t.INT), ("amount", t.FLOAT), ("date", t.DATE)
        ),
        distribution=DistributionPolicy.hashed("order_id"),
        partition_scheme=PartitionScheme(
            [monthly_range_level("date", ORDERS_START, 24)]
        ),
    )
    db.create_table(
        "date_dim",
        TableSchema.of(
            ("date_id", t.INT),
            ("year", t.INT),
            ("month", t.INT),
            ("day_of_week", t.INT),
        ),
        distribution=DistributionPolicy.hashed("date_id"),
    )
    db.create_table(
        "orders_fk",
        TableSchema.of(
            ("order_id", t.INT), ("amount", t.FLOAT), ("date_id", t.INT)
        ),
        distribution=DistributionPolicy.hashed("order_id"),
        partition_scheme=PartitionScheme(
            [uniform_int_level("date_id", 0, 730, 24)]
        ),
    )
    rng = random.Random(42)
    rows = []
    fk_rows = []
    for i in range(2400):
        offset = rng.randrange(729)
        rows.append(
            (i, round(rng.uniform(1, 100), 2), ORDERS_START + datetime.timedelta(days=offset))
        )
        fk_rows.append((i, round(rng.uniform(1, 100), 2), offset))
    db.insert("orders", rows)
    db.insert("orders_fk", fk_rows)
    dim = []
    for offset in range(730):
        day = ORDERS_START + datetime.timedelta(days=offset)
        dim.append((offset, day.year, day.month, day.isoweekday()))
    db.insert("date_dim", dim)
    db.analyze()
    return db


@pytest.fixture(scope="module")
def multilevel_db() -> Database:
    """Figure 9: two-level partitioning by date range and region."""
    db = Database(num_segments=2)
    db.create_table(
        "orders2",
        TableSchema.of(
            ("order_id", t.INT),
            ("amount", t.FLOAT),
            ("date_id", t.INT),
            ("region", t.TEXT),
        ),
        distribution=DistributionPolicy.hashed("order_id"),
        partition_scheme=PartitionScheme(
            [
                uniform_int_level("date_id", 0, 240, 24),
                list_level(
                    "region",
                    [("r1", ["Region 1"]), ("r2", ["Region 2"])],
                ),
            ]
        ),
    )
    rng = random.Random(7)
    db.insert(
        "orders2",
        [
            (
                i,
                round(rng.uniform(1, 50), 2),
                rng.randrange(240),
                f"Region {rng.randrange(1, 3)}",
            )
            for i in range(1200)
        ],
    )
    db.analyze()
    return db


@pytest.fixture(scope="module")
def rs_db() -> Database:
    """Section 4.4.2's synthetic R/S pair, 10 partitions each."""
    from repro.workloads.synthetic import build_rs_database

    return build_rs_database(num_parts=10, rows_per_table=600)
