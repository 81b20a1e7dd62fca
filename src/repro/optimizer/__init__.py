"""Query optimization: statistics, cost model, the Orca-style Cascades
engine (PartitionSelectors placed as Memo enforcers, Section 3.1), and the
legacy Planner baseline.  The paper's standalone placement Algorithms 1-4
(Section 2.3) are a test oracle, ``tests/oracles/placement.py``."""

from .cost import CostModel
from .orca import OrcaOptimizer
from .planner import PlannerOptimizer
from .stats import StatsRegistry, TableStats, collect_stats

__all__ = [
    "CostModel",
    "OrcaOptimizer",
    "PlannerOptimizer",
    "StatsRegistry",
    "TableStats",
    "collect_stats",
]
