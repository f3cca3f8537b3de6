"""Fractal: shape-aware, threshold-controlled point-cloud partitioning.

This is the paper's Algorithm 1, implemented level-synchronously to mirror
the fractal engine's iterative hardware schedule (Fig. 9): every iteration
processes *all* oversized blocks of the current tree level at once — a
single inclusive traversal computes per-block min/max extrema, and a
single streaming pass partitions points against the resulting midpoints.

Key properties (tested in ``tests/test_fractal.py``):

- Leaves partition the input (disjoint, covering).
- Every leaf holds at most ``th`` points unless the block was fully
  degenerate (all remaining extents zero), which is flagged.
- Split dimensions cycle x→y→z with depth (default), so coplanar scenes
  cannot pin the recursion to a non-splittable axis (§VI-D).
- Leaves in DFT order are spatially coherent: consecutive leaves share an
  ancestor at distance ≤ their depth difference + 1.
- The level count matches Fig. 5: ~ceil(log2(n / th)) for balanced data
  (4 levels for 1 K points at th=64; 11 for 289 K at th=256).
"""

from __future__ import annotations

import numpy as np

from .config import FractalConfig
from .blocks import PartitionCost
from .tree import FractalNode, FractalTree

__all__ = ["fractal_partition"]

# Extents at or below this are treated as zero (non-splittable axis).
_DEGENERATE_EXTENT = 1e-12


def _choose_dim(coords_block: np.ndarray, depth: int, config: FractalConfig) -> int | None:
    """Pick the split dimension for a block, or None when fully degenerate.

    The cycle rule starts from ``(start_dim + depth) mod 3`` and advances
    until it finds an axis with non-zero extent (at most 3 probes); the
    longest rule picks the largest extent directly.
    """
    extents = coords_block.max(axis=0) - coords_block.min(axis=0)
    if config.split_rule == "longest":
        dim = int(np.argmax(extents))
        return dim if extents[dim] > _DEGENERATE_EXTENT else None
    for probe in range(3):
        dim = (config.start_dim + depth + probe) % 3
        if extents[dim] > _DEGENERATE_EXTENT:
            return dim
    return None


def fractal_partition(coords: np.ndarray, config: FractalConfig | None = None) -> FractalTree:
    """Partition ``coords`` into a fractal binary tree (paper Alg. 1).

    Args:
        coords: ``(n, 3)`` point coordinates, n >= 1.
        config: Fractal parameters; defaults to the paper's large-scale
            configuration (``th`` = 256, dimension cycling).

    Returns:
        A :class:`FractalTree` whose leaves (in DFT order) are the blocks.
    """
    config = config or FractalConfig()
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"coords must be (n, 3), got {coords.shape}")
    n = len(coords)
    if n == 0:
        raise ValueError("cannot partition an empty point cloud")

    cost = PartitionCost()
    next_id = 0
    root = FractalNode(node_id=next_id, indices=np.arange(n, dtype=np.int64), depth=0)
    next_id += 1

    # Level-synchronous expansion: `frontier` holds the oversized nodes of
    # the current level, matching one hardware iteration of Fig. 9(c).
    frontier = [root] if n > config.threshold else []
    num_levels = 0
    while frontier:
        num_levels += 1
        # One inclusive traversal per level: min/max over every frontier
        # block (they all stream through the midpoint unit concurrently).
        cost.traversals.append(int(sum(node.num_points for node in frontier)))
        # One streaming partition pass classifies the same points.
        cost.passes.append(int(sum(node.num_points for node in frontier)))

        next_frontier: list[FractalNode] = []
        for node in frontier:
            block = coords[node.indices]
            dim = _choose_dim(block, node.depth, config)
            if dim is None:
                # All remaining extents are zero: coincident points.
                node.forced_leaf = True
                continue
            mid = (float(block[:, dim].max()) + float(block[:, dim].min())) / 2.0
            go_left = block[:, dim] <= mid
            # With a positive extent both sides are non-empty: the min
            # point satisfies <= mid and the max point violates it.
            left_idx = node.indices[go_left]
            right_idx = node.indices[~go_left]
            if len(left_idx) == 0 or len(right_idx) == 0:
                # Float pathologies only (e.g. extent below precision at
                # this magnitude); treat as degenerate.
                node.forced_leaf = True
                continue

            node.split_dim = dim
            node.split_mid = mid
            left = FractalNode(next_id, left_idx, node.depth + 1, parent=node)
            right = FractalNode(next_id + 1, right_idx, node.depth + 1, parent=node)
            next_id += 2
            node.left, node.right = left, right
            for child in (left, right):
                if child.num_points > config.threshold:
                    next_frontier.append(child)
        frontier = next_frontier

    cost.levels = num_levels

    leaves = _collect_leaves_dft(root)
    return FractalTree(
        root=root,
        leaves=leaves,
        threshold=config.threshold,
        num_levels=num_levels,
        cost=cost,
    )


def _collect_leaves_dft(root: FractalNode) -> list[FractalNode]:
    """Leaves in depth-first (left-first) order — the memory layout order."""
    leaves: list[FractalNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(node)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return leaves
