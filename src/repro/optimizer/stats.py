"""Table and column statistics.

Collected by scanning storage (an ``ANALYZE`` analogue) and consumed by
cardinality estimation and the cost model.  Partitioned tables additionally
keep per-leaf row counts so the cost of scanning a *subset* of partitions
can be priced accurately.
"""

from __future__ import annotations

from typing import Any

from ..catalog import TableDescriptor
from ..storage.table import TableStore


#: number of buckets collected for equi-depth histograms
HISTOGRAM_BUCKETS = 32


class Histogram:
    """Equi-depth histogram: ``boundaries`` are the values at the bucket
    edges (``len == buckets + 1``), each bucket holding an equal share of
    the non-null rows.  Estimation is robust to skew, unlike the uniform
    min/max interpolation it replaces."""

    __slots__ = ("boundaries",)

    def __init__(self, boundaries: list):
        if len(boundaries) < 2:
            raise ValueError("histogram needs at least two boundaries")
        self.boundaries = boundaries

    @staticmethod
    def build(values: list, buckets: int = HISTOGRAM_BUCKETS) -> "Histogram | None":
        """Build from non-null values; ``None`` when there is nothing to
        summarise or the values do not order."""
        if len(values) < 2:
            return None
        try:
            ordered = sorted(values)
        except TypeError:
            return None
        buckets = min(buckets, len(ordered) - 1)
        boundaries = [
            ordered[round(i * (len(ordered) - 1) / buckets)]
            for i in range(buckets + 1)
        ]
        return Histogram(boundaries)

    def fraction_below(self, value: Any) -> float:
        """Estimated fraction of rows with column value < ``value``."""
        import bisect

        boundaries = self.boundaries
        if value <= boundaries[0]:
            return 0.0
        if value > boundaries[-1]:
            return 1.0
        index = bisect.bisect_left(boundaries, value)
        buckets = len(boundaries) - 1
        lo, hi = boundaries[index - 1], boundaries[index]
        within = 0.5
        if hi != lo:
            try:
                within = (value - lo) / (hi - lo)
            except TypeError:
                try:  # dates: subtract to timedeltas
                    within = (value - lo).days / max((hi - lo).days, 1)
                except Exception:  # noqa: BLE001 - non-arithmetic domain
                    within = 0.5
        return min(1.0, (index - 1 + within) / buckets)

    def __repr__(self) -> str:
        return f"Histogram({len(self.boundaries) - 1} buckets)"


class ColumnStats:
    """Summary statistics of one column."""

    __slots__ = ("min_value", "max_value", "ndv", "null_fraction", "histogram")

    def __init__(
        self,
        min_value: Any,
        max_value: Any,
        ndv: int,
        null_fraction: float,
        histogram: Histogram | None = None,
    ):
        self.min_value = min_value
        self.max_value = max_value
        self.ndv = max(1, ndv)
        self.null_fraction = null_fraction
        self.histogram = histogram

    def __repr__(self) -> str:
        return (
            f"ColumnStats(min={self.min_value!r}, max={self.max_value!r}, "
            f"ndv={self.ndv}, nulls={self.null_fraction:.2f})"
        )


class TableStats:
    """Statistics of one table: row count, per-column stats, per-leaf rows."""

    def __init__(
        self,
        row_count: int,
        columns: dict[str, ColumnStats],
        leaf_rows: dict[int, int] | None = None,
    ):
        self.row_count = row_count
        self.columns = columns
        self.leaf_rows = leaf_rows or {}

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)

    def __repr__(self) -> str:
        return f"TableStats(rows={self.row_count}, cols={len(self.columns)})"


#: Assumed row count for tables that were never analyzed — deliberately
#: sizable so that unanalyzed tables are not treated as trivially small.
DEFAULT_ROW_COUNT = 1000


def collect_stats(store: TableStore) -> TableStats:
    """Compute statistics by a full pass over a table's storage."""
    descriptor = store.descriptor
    rows = list(store.scan_all())
    column_values: list[list[Any]] = [[] for _ in descriptor.schema.columns]
    null_counts = [0] * len(descriptor.schema.columns)
    for row in rows:
        for i, value in enumerate(row):
            if value is None:
                null_counts[i] += 1
            else:
                column_values[i].append(value)
    columns: dict[str, ColumnStats] = {}
    total = len(rows)
    for i, col in enumerate(descriptor.schema.columns):
        values = column_values[i]
        if values:
            columns[col.name] = ColumnStats(
                min_value=min(values),
                max_value=max(values),
                ndv=len(set(values)),
                null_fraction=null_counts[i] / total if total else 0.0,
                histogram=Histogram.build(values),
            )
        else:
            columns[col.name] = ColumnStats(None, None, 1, 1.0 if total else 0.0)
    leaf_rows: dict[int, int] = {}
    if descriptor.is_partitioned:
        for oid in descriptor.all_leaf_oids():
            leaf_rows[oid] = store.leaf_row_count(oid)
    return TableStats(total, columns, leaf_rows)


class StatsRegistry:
    """Per-database registry of table statistics."""

    def __init__(self) -> None:
        self._stats: dict[int, TableStats] = {}
        #: bumped by every ANALYZE (keys cached plans)
        self.version = 0

    def put(self, descriptor: TableDescriptor, stats: TableStats) -> None:
        self._stats[descriptor.oid] = stats
        self.version += 1

    def get(self, descriptor: TableDescriptor) -> TableStats:
        """Stats for a table; unanalyzed tables get a default estimate."""
        found = self._stats.get(descriptor.oid)
        if found is not None:
            return found
        return TableStats(DEFAULT_ROW_COUNT, {})

    def has(self, descriptor: TableDescriptor) -> bool:
        return descriptor.oid in self._stats

    def analyze(self, store: TableStore) -> TableStats:
        stats = collect_stats(store)
        self.put(store.descriptor, stats)
        return stats
