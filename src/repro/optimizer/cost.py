"""The cost model.

Costs are abstract units, linear in the work each operator performs.
Partitioning enters the model in three places, mirroring the paper:

* a DynamicScan pays a **per-partition open overhead** on top of per-row
  scan cost — this is what the Table 2 experiment measures (and why the
  overhead stays within a few percent: the per-row term dominates);
* a PartitionSelector with constant predicates reduces the consumer's scan
  cost by the **exact** fraction of partitions selected (``f*_T`` can be
  evaluated at costing time for constant predicates);
* a PartitionSelector with join predicates (dynamic elimination) reduces it
  by the configurable ``dpe_fraction`` — the optimizer cannot know at plan
  time how many partitions survive, exactly the cost-model-tuning caveat
  the paper discusses with its Figure 17 outliers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Cost constants.  All per-row unless stated otherwise.

    Frozen: cached plans were costed with these values, so a different
    model is a new instance (``dataclasses.replace``), never an edit."""

    scan_row: float = 1.0
    partition_open: float = 5.0  # per leaf partition opened
    filter_row: float = 0.1
    project_row: float = 0.05
    hash_build_row: float = 1.5
    hash_probe_row: float = 1.0
    nl_pair: float = 0.5  # per (outer, inner) pair examined
    agg_row: float = 1.2
    sort_row_log: float = 0.3  # multiplied by rows * log2(rows)
    motion_row: float = 2.0  # network transfer per row per destination
    gather_row: float = 1.0
    selector_tuple: float = 0.2  # per tuple through a streaming selector
    selector_setup: float = 10.0
    output_row: float = 0.1
    update_row: float = 4.0
    #: assumed fraction of partitions surviving dynamic (join-driven)
    #: partition elimination — a tunable, like the paper's cost parameters.
    dpe_fraction: float = 0.1

    def sort_cost(self, rows: float) -> float:
        import math

        if rows <= 1:
            return self.sort_row_log
        return self.sort_row_log * rows * math.log2(rows)


#: Cost of a plan alternative that violates a hard constraint.
INFINITE = float("inf")
