"""Plan exploration tour: Memo internals, plan validation and plan size —
the machinery behind the paper's Figures 12-14.

Run with:  python examples/plan_explorer.py
"""

import random

from repro import Database
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    uniform_int_level,
)
from repro.errors import InvalidPlanError
from repro.physical.ops import BroadcastMotion, DynamicScan, PartitionSelector
from repro.physical.plan import Plan


def build() -> Database:
    db = Database(num_segments=4)
    db.create_table(
        "r",
        TableSchema.of(("pk", t.INT), ("v", t.INT)),
        distribution=DistributionPolicy.hashed("pk"),
        partition_scheme=PartitionScheme([uniform_int_level("pk", 0, 1000, 10)]),
    )
    db.create_table(
        "s",
        TableSchema.of(("a", t.INT), ("b", t.INT)),
        distribution=DistributionPolicy.hashed("a"),
    )
    rng = random.Random(1)
    db.insert("r", ((rng.randrange(1000), rng.randrange(50)) for _ in range(4000)))
    db.insert("s", ((rng.randrange(1000), rng.randrange(50)) for _ in range(200)))
    db.analyze()
    return db


def main() -> None:
    db = build()
    sql = "SELECT count(*) FROM r, s WHERE r.pk = s.a AND s.b < 5"

    # -- 1. the Memo after optimization (Figure 13) ------------------------
    engine = db.make_optimizer("orca")
    plan = engine.optimize(db.bind(sql))
    print("=== Memo groups and request tables (cf. Figure 13) ===")
    print(engine.memo.describe())

    # -- 2. the winning plan (Figure 14's Plan 4 shape) ---------------------
    print("\n=== Best plan ===")
    print(plan.explain())
    print(f"\nplan size: {plan.size_bytes()} bytes "
          f"({plan.node_count()} nodes); dispatched with metadata annex: "
          f"{plan.dispatched_size_bytes()} bytes")

    # -- 3. the Figure 12 validity rule in action ---------------------------
    print("\n=== Figure 12: invalid Motion placement is rejected ===")
    r = db.catalog.table("r")
    selector = next(
        op for op in plan.walk() if isinstance(op, PartitionSelector)
    )
    bad = Plan(
        # Motion ABOVE the producer separates it from the consumer.
        _bad_plan(selector.spec, r)
    )
    try:
        bad.validate()
    except InvalidPlanError as exc:
        print(f"rejected as expected: {exc}")


def _bad_plan(spec, table):
    from repro.expr.ast import ColumnRef
    from repro.physical.ops import HashJoin, Scan

    producer = BroadcastMotion(PartitionSelector(spec, Scan(table, "x")))
    consumer = DynamicScan(spec.table, "r", spec.part_scan_id)
    return HashJoin(
        "inner",
        producer,
        consumer,
        [ColumnRef("pk", "x")],
        [ColumnRef("pk", "r")],
    )


if __name__ == "__main__":
    main()
