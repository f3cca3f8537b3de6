"""FractalCloud's core contribution: Fractal partitioning + BPPO.

- :func:`fractal_partition` — shape-aware threshold-controlled
  partitioning (paper Alg. 1).
- :class:`FractalTree` / :class:`BlockLayout` — binary tree and its
  DFT-contiguous memory layout.
- :mod:`repro.core.bppo` — block-parallel sampling, neighbour search,
  interpolation, and gathering (the per-block loop kernels).
- :mod:`repro.core.ragged` — the CSR block layout and fused segment-wise
  kernels for small and mid-size blocks (and whole-cloud fusion).
- :mod:`repro.core.dispatch` — the kernel registry and cost-model
  dispatcher choosing ``loop | ragged`` per call.
- :mod:`repro.core.delta` — frame deltas, rebuild certificates, and the
  incremental-update glue of the streaming-frames protocol.
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
from .delta import (
    FrameDelta,
    PatchPolicy,
    attach_certificate,
    certificate_of,
    updater_from_certificate,
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
from .ragged import (
    RAGGED_BLOCK_MAX,
    RaggedBlocks,
    ragged_ball_query,
    ragged_fps,
    ragged_gather,
    ragged_interpolate,
    ragged_knn,
    ragged_of,
)
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
    "FrameDelta",
    "KERNELS",
    "KERNEL_NAMES",
    "OpTrace",
    "PartitionCost",
    "PatchPolicy",
    "RAGGED_BLOCK_MAX",
    "RaggedBlocks",
    "allocate_samples",
    "attach_certificate",
    "certificate_of",
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
    "ragged_ball_query",
    "ragged_fps",
    "ragged_gather",
    "ragged_interpolate",
    "ragged_knn",
    "ragged_of",
    "resolve_kernel",
    "run_build",
    "run_op",
    "save_block_structure",
    "save_tree",
    "updater_from_certificate",
]
