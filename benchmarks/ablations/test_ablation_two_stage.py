"""Ablation — two-stage aggregation and distributed top-N.

Both optimizations trade extra local work for fewer rows through the
Motion.  Toggling them isolates the effect on rows moved and runtime.
"""

from __future__ import annotations

import random

from repro.engine import Database
from repro import types as t
from repro.catalog import DistributionPolicy, TableSchema

from .._helpers import emit, format_table, timed

ROWS = 40_000
AGG_QUERY = "SELECT k, count(*) AS c, avg(v) AS m FROM t GROUP BY k"
TOPN_QUERY = "SELECT a, v FROM t ORDER BY v DESC LIMIT 10"


def _build() -> Database:
    db = Database(num_segments=4)
    db.create_table(
        "t",
        TableSchema.of(("a", t.INT), ("k", t.INT), ("v", t.FLOAT)),
        distribution=DistributionPolicy.hashed("a"),
    )
    rng = random.Random(6)
    db.insert(
        "t",
        (
            (i, rng.randrange(50), rng.uniform(0, 100))
            for i in range(ROWS)
        ),
    )
    db.analyze()
    return db


def _rows_through_motions(db, plan) -> int:
    """Total rows buffered by all Motions during one execution."""
    from repro.executor.context import ExecContext
    from repro.executor.executor import _motions_deepest_first

    ctx = ExecContext(db.catalog, db.storage, db.num_segments)
    segments = range(db.num_segments)
    for slice_id, motion in enumerate(
        _motions_deepest_first(plan.root), start=1
    ):
        db.executor._run_motion_slice(motion, ctx, slice_id, set(), segments)
    total = 0
    for buffer in ctx.motion_buffers.values():
        total += sum(len(buffer.rows(t)) for t in range(buffer.num_segments))
    return total


def test_ablation_two_stage(benchmark):
    benchmark.pedantic(_report, rounds=1, iterations=1)


def _report():
    db = _build()
    rows = []
    baselines = {}
    for label, sql, options in (
        ("grouped agg, two-stage", AGG_QUERY, {}),
        ("grouped agg, single-stage", AGG_QUERY, {"enable_two_stage_agg": False}),
        ("top-10, distributed", TOPN_QUERY, {}),
        ("top-10, gather-all", TOPN_QUERY, {"enable_top_n": False}),
    ):
        plan = db.plan(sql, **options)
        result = db.execute_plan(plan)
        baselines[label] = sorted(result.rows, key=repr)
        rows.append(
            [
                label,
                f"{timed(lambda p=plan: db.execute_plan(p)) * 1000:.1f} ms",
                _rows_through_motions(db, plan),
            ]
        )
    # float summation order differs between the stagings; compare with
    # tolerance
    two_stage = baselines["grouped agg, two-stage"]
    single = baselines["grouped agg, single-stage"]
    assert len(two_stage) == len(single)
    for a, b in zip(two_stage, single):
        assert a[0] == b[0] and a[1] == b[1]
        assert abs(a[2] - b[2]) < 1e-9
    assert baselines["top-10, distributed"] == baselines["top-10, gather-all"]
    emit(
        "ablation_two_stage",
        format_table(["configuration", "runtime", "rows through motions"], rows),
    )
