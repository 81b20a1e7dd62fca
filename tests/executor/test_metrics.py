"""Tier-1 tests for the observability layer (Fig 16 / Table 2 as
assertions): per-DynamicScan partition counters match static-pruning
expectations under both optimizers, Motion rows-moved counters agree
across Gather/Broadcast/Redistribute shapes, and the JSON export is
stable and self-consistent."""

from __future__ import annotations

import json

import pytest

from repro.expr.ast import ColumnRef
from repro.physical.ops import (
    BroadcastMotion,
    GatherMotion,
    RedistributeMotion,
    Scan,
)
from repro.physical.plan import Plan
from repro.storage.distribution import segment_for

DIM_ROWS = 730  # date_dim rows in the orders_db fixture
SEGMENTS = 4


# ---------------------------------------------------------------------------
# Per-DynamicScan partition counters (Fig 16 as assertions)
# ---------------------------------------------------------------------------

PRUNING_CASES = [
    # (sql, table, expected partitions scanned)
    (
        "SELECT count(*) FROM orders WHERE date = '05-15-2013'",
        "orders",
        1,
    ),
    (
        "SELECT count(*) FROM orders "
        "WHERE date BETWEEN '10-01-2013' AND '12-31-2013'",
        "orders",
        3,
    ),
    # orders_fk: uniform_int_level("date_id", 0, 730, 24); 5 -> slot 0,
    # 700 -> slot 23.
    (
        "SELECT count(*) FROM orders_fk WHERE date_id IN (5, 700)",
        "orders_fk",
        2,
    ),
]


@pytest.mark.parametrize("optimizer", ["orca", "planner"])
@pytest.mark.parametrize("sql, table, expected", PRUNING_CASES)
def test_static_pruning_counters(orders_db, optimizer, sql, table, expected):
    result = orders_db.sql(sql, optimizer=optimizer, analyze=True)
    total = orders_db.catalog.table(table).num_leaves
    assert result.metrics.partitions_scanned(table) == expected
    stats = result.metrics.table_stats()[table]
    assert stats["partitions_scanned"] == expected
    assert stats["partitions_total"] == total
    # The per-node counters agree with the aggregate: exactly the scan
    # nodes of `table` carry the partitions, nothing else.
    scan_parts = 0
    for node in result.metrics.nodes:
        if node.table_name == table:
            for per_segment in node.partitions:
                scan_parts |= per_segment
    assert scan_parts.bit_count() == expected


def test_orca_selector_counters_and_mode(orders_db):
    sql = (
        "SELECT count(*) FROM orders "
        "WHERE date BETWEEN '10-01-2013' AND '12-31-2013'"
    )
    result = orders_db.sql(sql, analyze=True)
    summaries = [
        result.metrics.selector_summary(scan_id)
        for scan_id in result.metrics.selectors
    ]
    assert len(summaries) == 1
    (summary,) = summaries
    assert summary["mode"] == "static"
    assert summary["partitions_selected"] == 3
    assert summary["partitions_total"] == 24
    # Static selection pushes the selected OIDs once per segment.
    assert summary["oids_pushed"] == 3 * SEGMENTS


def test_join_dpe_selector_is_dynamic(orders_db):
    sql = (
        "SELECT count(*) FROM orders_fk o, date_dim d "
        "WHERE o.date_id = d.date_id AND d.year = 2012"
    )
    result = orders_db.sql(sql, analyze=True)
    modes = {
        result.metrics.selector_summary(scan_id)["mode"]
        for scan_id in result.metrics.selectors
    }
    assert "dynamic" in modes
    # 2012 covers date ids 0..365 of 730 -> at most half the partitions
    # (+1 slot of slack for the boundary partition).
    assert result.metrics.partitions_scanned("orders_fk") <= 13


# ---------------------------------------------------------------------------
# Motion counters: Gather / Broadcast / Redistribute agreement
# ---------------------------------------------------------------------------


def _motion_node(result):
    data = json.loads(result.metrics.to_json())
    root = data["nodes"][0]
    assert "motion" in root
    return root["motion"], data


def test_gather_motion_rows_moved(orders_db):
    table = orders_db.catalog.table("date_dim")
    plan = Plan(GatherMotion(Scan(table, "date_dim")))
    result = orders_db.execute_plan(plan)
    motion, _ = _motion_node(result)
    assert motion["kind"] == "gather"
    assert motion["rows_moved"] == DIM_ROWS == len(result.rows)
    # Everything lands on the coordinator (segment 0).
    assert motion["rows_by_target"] == [DIM_ROWS, 0, 0, 0]
    assert motion["bytes_moved"] > 0


def test_broadcast_motion_rows_moved(orders_db):
    table = orders_db.catalog.table("date_dim")
    plan = Plan(BroadcastMotion(Scan(table, "date_dim")))
    result = orders_db.execute_plan(plan)
    motion, _ = _motion_node(result)
    assert motion["kind"] == "broadcast"
    # One copy per segment; reading the buffer on every segment returns
    # num_segments * N rows.
    assert motion["rows_moved"] == DIM_ROWS * SEGMENTS == len(result.rows)
    assert motion["rows_by_target"] == [DIM_ROWS] * SEGMENTS


def test_redistribute_motion_rows_moved(orders_db):
    table = orders_db.catalog.table("date_dim")
    plan = Plan(
        RedistributeMotion(
            Scan(table, "date_dim"), [ColumnRef("year", "date_dim")]
        )
    )
    result = orders_db.execute_plan(plan)
    motion, _ = _motion_node(result)
    assert motion["kind"] == "redistribute"
    # Redistribution conserves rows and routes by the stable hash.
    assert motion["rows_moved"] == DIM_ROWS == len(result.rows)
    expected = [0] * SEGMENTS
    for _, year, _, _ in result.rows:
        expected[segment_for(year, SEGMENTS)] += 1
    assert motion["rows_by_target"] == expected


def test_motion_shapes_agree(orders_db):
    """The three shapes' counters are mutually consistent over the same
    input: gather == redistribute == broadcast / num_segments."""
    table = orders_db.catalog.table("date_dim")
    moved = {}
    for kind, root in (
        ("gather", GatherMotion(Scan(table, "d"))),
        ("broadcast", BroadcastMotion(Scan(table, "d"))),
        (
            "redistribute",
            RedistributeMotion(Scan(table, "d"), [ColumnRef("date_id", "d")]),
        ),
    ):
        result = orders_db.execute_plan(Plan(root))
        motion, _ = _motion_node(result)
        assert motion["kind"] == kind
        moved[kind] = motion["rows_moved"]
    assert moved["gather"] == moved["redistribute"]
    assert moved["broadcast"] == moved["gather"] * SEGMENTS


# ---------------------------------------------------------------------------
# JSON export, EXPLAIN ANALYZE, and the deprecated aliases
# ---------------------------------------------------------------------------


def test_metrics_json_round_trip(orders_db):
    sql = (
        "SELECT count(*) FROM orders "
        "WHERE date BETWEEN '10-01-2013' AND '12-31-2013'"
    )
    result = orders_db.sql(sql, analyze=True)
    data = json.loads(result.metrics.to_json())
    assert data["num_segments"] == SEGMENTS
    assert data["timing_collected"] is True
    # Every v1/v2 field survives in v3, plus the additive trace and
    # optimizer sections (null unless the statement ran with trace=True).
    for key in (
        "nodes",
        "partition_selectors",
        "slices",
        "tables",
        "totals",
        "resilience",
        "trace",
        "optimizer",
        "cache",
        "serving",
    ):
        assert key in data
    assert data["serving"] is None  # not a serving-session execution
    assert data["trace"] is None
    assert data["optimizer"] is None
    # A fault-free run records no retries or failovers.
    assert data["resilience"]["retry_count"] == 0
    assert data["resilience"]["failover_count"] == 0
    assert data["resilience"]["segment_health"]["down_segments"] == []
    # Node list is a pre-order tree: ids sequential, parents precede
    # children, the root has no parent.
    assert [node["id"] for node in data["nodes"]] == list(
        range(len(data["nodes"]))
    )
    assert data["nodes"][0]["parent"] is None
    for node in data["nodes"][1:]:
        assert node["parent"] is not None and node["parent"] < node["id"]
    assert data["nodes"][0]["actual_rows"] == len(result.rows)
    assert all(node["time_ms"] is not None for node in data["nodes"])
    assert data["totals"]["rows_scanned"] == result.rows_scanned
    assert data["slices"], "slice wall times recorded"


def test_timing_off_by_default(orders_db):
    result = orders_db.sql("SELECT count(*) FROM date_dim")
    data = json.loads(result.metrics.to_json())
    assert data["timing_collected"] is False
    assert all(node["time_ms"] is None for node in data["nodes"])
    # Row counters stay on regardless.
    assert data["nodes"][0]["actual_rows"] == 1


def test_explain_analyze_rendering(orders_db):
    text = orders_db.explain_analyze(
        "SELECT avg(amount) FROM orders "
        "WHERE date BETWEEN '10-01-2013' AND '12-31-2013'"
    )
    assert "actual rows=" in text
    assert "partitions: 3/24" in text
    assert "moved" in text  # Motion annotation
    assert "PartitionSelector 1: static, selected 3/24 partitions" in text
    assert "Slice 0 (root):" in text


def test_tracker_alias_removed(orders_db):
    import warnings

    result = orders_db.sql(
        "SELECT * FROM orders WHERE date = '05-15-2013'"
    )
    # The deprecated result.tracker alias is gone; the per-node metrics
    # views are the interface, and they carry no warning.
    assert not hasattr(result, "tracker")
    assert result.metrics.tracker.partitions_scanned("orders") == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert result.rows_scanned == result.metrics.total_rows_scanned
        assert result.partitions_scanned("orders") == 1
