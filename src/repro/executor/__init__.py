"""MPP execution: channels, iterators, slice-at-a-time driver, and the
partition-selection built-in functions of the paper's Table 1."""

from .channels import ChannelRegistry, OidChannel
from .context import COORDINATOR_SEGMENT, ExecContext
from .executor import ExecutionResult, MppExecutor
from .runtime_funcs import (
    PartitionConstraint,
    partition_constraints,
    partition_expansion,
    partition_propagation,
    partition_selection,
)

__all__ = [
    "COORDINATOR_SEGMENT",
    "ChannelRegistry",
    "ExecContext",
    "ExecutionResult",
    "MppExecutor",
    "OidChannel",
    "PartitionConstraint",
    "partition_constraints",
    "partition_expansion",
    "partition_propagation",
    "partition_selection",
]
