"""The scrape contract: the whole ``export_prometheus`` body of a fixed
scenario, line for line, against a golden file.

The scenario touches every family source: 4 segments, a ``data_dir``
(durability), the result cache (a miss, a store and a hit), one serving
session, an ``INSERT ... VALUES`` and the partition-pruned SELECTs whose
scanned-vs-eligible counts are the paper's evidence.  Wall time is not
deterministic, so every sample of a family whose name contains
``seconds`` has its value masked; every other sample is compared as is.

The golden file was captured once from the exporter as it stood before
the family table moved into :mod:`repro.obs.prom`; it is an oracle, so
it is never regenerated from the code it checks.
"""

from __future__ import annotations

import datetime
import pathlib
import re

from repro import Database
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    monthly_range_level,
)
from repro.obs.prom import export_prometheus

GOLDEN = pathlib.Path(__file__).parent / "golden" / "scrape_body.txt"
START = datetime.date(2012, 1, 1)
_SAMPLE = re.compile(r"^(?P<series>(?P<name>[a-z_]+)(?:\{.*\})?) (?P<value>\S+)$")


def scenario_body(data_dir) -> str:
    """The ``/metrics`` body after a fixed, deterministic workload."""
    db = Database(num_segments=4, data_dir=str(data_dir), cache="results")
    try:
        db.create_table(
            "orders",
            TableSchema.of(
                ("order_id", t.INT), ("amount", t.FLOAT), ("date", t.DATE)
            ),
            distribution=DistributionPolicy.hashed("order_id"),
            partition_scheme=PartitionScheme(
                [monthly_range_level("date", START, 12)]
            ),
        )
        db.insert(
            "orders",
            [
                (i, float(i % 97), START + datetime.timedelta(days=i % 360))
                for i in range(600)
            ],
        )
        db.sql("INSERT INTO orders VALUES (1000, 5.5, '2012-03-04')")
        pruned = (
            "SELECT count(*) FROM orders "
            "WHERE date BETWEEN '2012-02-01' AND '2012-03-31'"
        )
        db.sql(pruned)
        db.sql(pruned)  # a result-cache hit
        db.sql("SELECT sum(amount) FROM orders WHERE order_id = 7")
        session = db.session(name="app")
        session.sql("SELECT count(*) FROM orders WHERE date < '2012-02-01'")
        return export_prometheus(db)
    finally:
        if db._server is not None:
            db._server.close()
        db.durability.close()


def mask_seconds(body: str) -> str:
    """Replace the value of every sample whose family name contains
    ``seconds`` (``_bucket``/``_sum``/``_count`` included) with ``*``."""
    lines = []
    family = None
    for line in body.splitlines():
        if line.startswith("# TYPE "):
            family = line.split()[2]
        match = _SAMPLE.match(line)
        if match and family is not None and "seconds" in family:
            line = f"{match.group('series')} *"
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_scrape_body_matches_golden(tmp_path):
    body = mask_seconds(scenario_body(tmp_path / "data"))
    assert body.splitlines() == GOLDEN.read_text().splitlines()
