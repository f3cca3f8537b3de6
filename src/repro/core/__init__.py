"""FractalCloud's core contribution: Fractal partitioning + BPPO.

- :func:`fractal_partition` — shape-aware threshold-controlled
  partitioning (paper Alg. 1).
- :class:`FractalTree` / :class:`BlockLayout` — binary tree and its
  DFT-contiguous memory layout.
- :mod:`repro.core.bppo` — block-parallel sampling, neighbour search,
  interpolation, and gathering (the per-block loop kernels).
- :mod:`repro.core.ragged` — the CSR block layout (and whole-cloud
  fusion), the ragged FPS recurrence, and the per-block search loops the
  served path runs on it.
- :mod:`repro.core.dispatch` — the kernel registry; FPS chooses
  ``loop | ragged`` per call by its step rule, every other op has one
  implementation.
"""

from .blocks import Block, BlockStructure, PartitionCost
from .bppo import (
    BlockWork,
    OpTrace,
    allocate_samples,
    block_ball_query,
    block_fps,
    block_gather,
    block_interpolate,
    block_knn,
)
from .config import (
    DEFAULT_LARGE_SCALE_THRESHOLD,
    DEFAULT_SMALL_SCALE_THRESHOLD,
    FractalConfig,
)
from .dispatch import (
    BUILD_KERNEL_NAMES,
    KERNEL_NAMES,
    KERNELS,
    choose_kernel,
    resolve_kernel,
    run_build,
    run_op,
)
from .fractal import fractal_partition
from .ragged import RaggedBlocks, ragged_fps, ragged_of
from .graph import block_knn_graph, edge_recall, exact_knn_graph
from .layout import BlockLayout
from .serialize import load_block_structure, save_block_structure, save_tree
from .tree import FractalNode, FractalTree

__all__ = [
    "BUILD_KERNEL_NAMES",
    "Block",
    "BlockLayout",
    "BlockStructure",
    "BlockWork",
    "DEFAULT_LARGE_SCALE_THRESHOLD",
    "DEFAULT_SMALL_SCALE_THRESHOLD",
    "FractalConfig",
    "FractalNode",
    "FractalTree",
    "KERNELS",
    "KERNEL_NAMES",
    "OpTrace",
    "PartitionCost",
    "RaggedBlocks",
    "allocate_samples",
    "block_ball_query",
    "block_fps",
    "block_gather",
    "block_interpolate",
    "block_knn",
    "block_knn_graph",
    "choose_kernel",
    "edge_recall",
    "exact_knn_graph",
    "fractal_partition",
    "load_block_structure",
    "ragged_fps",
    "ragged_of",
    "resolve_kernel",
    "run_build",
    "run_op",
    "save_block_structure",
    "save_tree",
]
