"""repro — a reproduction of "Optimizing Queries over Partitioned Tables
in MPP Systems" (Antova et al., SIGMOD 2014).

The package provides a complete, pure-Python MPP database simulator built
around the paper's contribution: a unified PartitionSelector/DynamicScan
query model for partitioned tables, and an Orca-style Cascades optimizer
that models partition selection — static and dynamic elimination — as an
enforced physical property alongside data distribution.

Quickstart::

    from repro import Database
    from repro.catalog import TableSchema, PartitionScheme, monthly_range_level
    from repro import types as t

    db = Database(num_segments=4)
    db.create_table(
        "orders",
        TableSchema.of(("order_id", t.INT), ("amount", t.FLOAT), ("date", t.DATE)),
        partition_scheme=PartitionScheme(
            [monthly_range_level("date", datetime.date(2012, 1, 1), 24)]
        ),
    )
    db.insert("orders", rows)
    db.analyze()
    result = db.sql(
        "SELECT avg(amount) FROM orders "
        "WHERE date BETWEEN '10-01-2013' AND '12-31-2013'"
    )
"""

from .engine import ORCA, PLANNER, Database
from .errors import ReproError

__version__ = "1.0.0"

__all__ = ["Database", "ORCA", "PLANNER", "ReproError", "__version__"]
