"""Runtime: op-level IR, the workload compiler, and the batched
multi-cloud execution engine."""

from .cache import (
    PartitionCache,
    ResultWindow,
    clear_all_partition_caches,
    content_key,
    result_key,
)
from .compiler import clear_caches, compile_program
from .executor import (
    BatchExecutor,
    BatchReport,
    CloudResult,
    ExecutorStats,
    PipelineSpec,
)
from .program import PartitionStats, Program, StagePlan

__all__ = [
    "BatchExecutor",
    "BatchReport",
    "CloudResult",
    "ExecutorStats",
    "PartitionCache",
    "PartitionStats",
    "PipelineSpec",
    "Program",
    "ResultWindow",
    "StagePlan",
    "clear_all_partition_caches",
    "clear_caches",
    "compile_program",
    "content_key",
    "result_key",
]
