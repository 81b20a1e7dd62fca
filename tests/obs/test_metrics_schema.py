"""The metrics export schema as one contract.

``MetricsCollector.to_dict()`` is what the CLI, the benchmarks and external
scrapers consume.  Its version integer and its key sets are pinned here and
nowhere else: a change to the export has to bump
:data:`~repro.obs.metrics.METRICS_SCHEMA_VERSION` *and* edit the golden key
sets below in the same commit, and no other test needs touching.
"""

from __future__ import annotations

import json

import pytest

from repro import Database, types
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    uniform_int_level,
)
from repro.obs.metrics import METRICS_SCHEMA_VERSION

#: the version the golden key sets below describe
GOLDEN_VERSION = 13

TOP_LEVEL = {
    "schema_version", "elapsed_seconds", "num_segments", "timing_collected",
    "nodes", "partition_selectors", "slices", "tables", "totals",
    "resilience", "trace", "optimizer", "parallel", "cache", "serving",
    "live", "durability",
}

#: section -> keys of the section (or of each of its entries)
GOLDEN = {
    "nodes": {
        "id", "op", "detail", "parent", "depth", "estimated_rows",
        "actual_rows", "rows_by_segment", "loops", "time_ms",
    },
    "partition_selectors": {
        "part_scan_id", "mode", "partitions_selected", "partitions_total",
        "oids_pushed",
    },
    "slices": {"id", "label", "seconds", "segments_dispatched"},
    "tables": {
        "partitions_scanned", "partitions_total", "partition_oids",
        "rows_scanned",
    },
    "totals": {
        "rows_scanned", "partitions_scanned", "segments_dispatched",
        "motion_rows", "motion_bytes",
    },
    "resilience": {
        "retries", "retry_count", "failovers", "failover_count",
        "fault_points", "segment_health",
    },
    "trace": {"phases", "spans"},
    "optimizer": {
        "groups", "group_expressions", "rule_firings", "property_requests",
        "winners_costed", "alternatives_pruned", "enforcers",
        "partition_selector_events", "optimization_seconds",
    },
    "parallel": {"batch_size", "instances", "instance_busy_seconds"},
    "cache": {
        "mode", "result", "stored", "hits", "misses", "invalidations",
        "bytes",
    },
    "serving": {
        "session", "queued_seconds", "queue_depth", "inflight",
        "admitted_total", "rejected_total",
    },
    "live": {
        "query_id", "session", "queued_seconds", "elapsed_seconds", "phases",
    },
    "durability": {
        "enabled", "data_dir", "wal_sync", "wal_records", "wal_bytes",
        "wal_fsyncs", "checkpoints", "last_checkpoint_seconds",
        "checkpoint_seconds_total", "last_checkpoint_bytes",
        "last_checkpoint_lsn",
        "recovery_replayed_records", "recovery_checkpoint_lsn",
        "resyncing_segments", "resync_count",
    },
}

#: per-operator extras on a ``nodes`` entry
NODE_EXTRAS = {"scan", "motion", "part_scan_id"}
SCAN_NODE = {
    "table", "partitions_scanned", "partitions_total", "partition_oids",
    "rows_scanned",
}
MOTION_NODE = {"kind", "rows_moved", "rows_by_target", "bytes_moved"}


@pytest.fixture
def exported(tmp_path):
    """One statement run with every opt-in section switched on: durable
    instance, serving session, tracing, result cache, timing."""
    db = Database(num_segments=4, data_dir=str(tmp_path))
    db.create_table(
        "t",
        TableSchema.of(("k", types.INT), ("v", types.INT)),
        distribution=DistributionPolicy.hashed("v"),
        partition_scheme=PartitionScheme([uniform_int_level("k", 0, 100, 10)]),
    )
    db.insert("t", [(i, i) for i in range(100)])
    db.analyze()
    result = db.session(name="contract").sql(
        "SELECT count(*) FROM t WHERE k < 30",
        trace=True,
        cache="results",
        analyze=True,
    )
    yield json.loads(result.metrics.to_json())
    db.durability.close()


def test_version_constant_matches_the_golden_key_sets(exported):
    assert METRICS_SCHEMA_VERSION == GOLDEN_VERSION
    assert exported["schema_version"] == METRICS_SCHEMA_VERSION


def test_export_key_sets(exported):
    assert set(exported) == TOP_LEVEL
    for section, keys in GOLDEN.items():
        value = exported[section]
        if section in ("partition_selectors", "tables"):
            entries = list(value.values())
        elif isinstance(value, list):
            entries = value
        else:
            entries = [value]
        assert entries, f"{section} is empty"
        extras = NODE_EXTRAS if section == "nodes" else set()
        for entry in entries:
            assert set(entry) - extras == keys, section
    scans = [n["scan"] for n in exported["nodes"] if "scan" in n]
    motions = [n["motion"] for n in exported["nodes"] if "motion" in n]
    assert scans and all(set(scan) == SCAN_NODE for scan in scans)
    assert motions and all(set(motion) == MOTION_NODE for motion in motions)


def test_opt_in_sections_are_null_when_off():
    db = Database(num_segments=2)
    db.create_table("u", TableSchema.of(("a", types.INT)))
    db.insert("u", [(1,), (2,)])
    data = db.sql("SELECT a FROM u").metrics.to_dict()
    assert set(data) == TOP_LEVEL
    for section in ("trace", "optimizer", "cache", "serving"):
        assert data[section] is None
    assert data["durability"] == {
        "enabled": False, "resyncing_segments": [], "resync_count": 0,
    }
