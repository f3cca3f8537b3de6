"""Octree partitioning (HGPCN/ParallelNN-style, paper Fig. 16).

A uniform-based extension with dynamic subdivision: cells splitting into
eight equal octants whenever they exceed the leaf bound.  Adapts to
density better than a flat grid (cells subdivide where points concentrate)
but still splits *space* rather than the point distribution, so residual
imbalance — and the paper's reported ≈3 % accuracy loss — remains.

Cost model: every subdivision level is one streaming classification pass
over the oversized cells (three coordinate comparisons per point), plus
per-level control overhead for managing up to 8 children per node, which
is where the paper's "increased control complexity" shows up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.blocks import Block, BlockStructure, PartitionCost
from ..core.delta import OctreeCertificate, attach_certificate
from .base import Partitioner

__all__ = ["OctreePartitioner", "OctreeNode"]

_DEGENERATE_EXTENT = 1e-12


@dataclass
class OctreeNode:
    """One octree cell."""

    indices: np.ndarray
    depth: int
    lo: np.ndarray
    hi: np.ndarray
    children: list["OctreeNode"] = field(default_factory=list)
    parent: Optional["OctreeNode"] = field(default=None, repr=False)
    #: Octant code within the parent cell (root: -1).
    code: int = -1

    @property
    def is_leaf(self) -> bool:
        return not self.children


class OctreePartitioner(Partitioner):
    """Octree with max-points-per-leaf subdivision.

    Args:
        max_leaf_size: subdivision threshold.
        max_depth: hard recursion bound (guards coincident points).
    """

    name = "octree"

    def __init__(self, max_leaf_size: int = 256, max_depth: int = 24):
        if max_leaf_size < 1:
            raise ValueError(f"max_leaf_size must be >= 1, got {max_leaf_size}")
        self.max_leaf_size = max_leaf_size
        self.max_depth = max_depth

    def partition(self, coords: np.ndarray) -> BlockStructure:
        n = len(coords)
        if n == 0:
            raise ValueError("cannot partition an empty point cloud")

        cost = PartitionCost()
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        root = OctreeNode(np.arange(n, dtype=np.int64), 0, lo, hi)
        frontier = [root] if n > self.max_leaf_size else []
        levels = 0
        while frontier:
            levels += 1
            cost.passes.append(int(sum(len(node.indices) for node in frontier)))
            next_frontier: list[OctreeNode] = []
            for node in frontier:
                if node.depth >= self.max_depth:
                    continue
                extent = node.hi - node.lo
                if np.all(extent <= _DEGENERATE_EXTENT):
                    continue  # coincident points: give up on this cell
                mid = (node.lo + node.hi) / 2.0
                pts = coords[node.indices]
                octant = (
                    (pts[:, 0] > mid[0]).astype(np.int64) * 4
                    + (pts[:, 1] > mid[1]).astype(np.int64) * 2
                    + (pts[:, 2] > mid[2]).astype(np.int64)
                )
                for code in range(8):
                    mask = octant == code
                    if not np.any(mask):
                        continue
                    child_lo = np.where(
                        [code & 4, code & 2, code & 1], mid, node.lo
                    ).astype(np.float64)
                    child_hi = np.where(
                        [code & 4, code & 2, code & 1], node.hi, mid
                    ).astype(np.float64)
                    child = OctreeNode(
                        node.indices[mask], node.depth + 1, child_lo, child_hi,
                        parent=node, code=code,
                    )
                    node.children.append(child)
                    if len(child.indices) > self.max_leaf_size:
                        next_frontier.append(child)
            frontier = next_frontier
        cost.levels = levels

        leaves = self._collect_leaves(root)
        blocks = [Block(np.sort(leaf.indices), depth=max(leaf.depth, 1)) for leaf in leaves]
        spaces = [b.indices for b in blocks]
        structure = BlockStructure(
            num_points=n,
            blocks=blocks,
            search_spaces=spaces,
            cost=cost,
            strategy=self.name,
        )
        attach_certificate(
            structure,
            OctreeCertificate.from_tree(
                root, leaves, self.max_leaf_size, self.max_depth
            ),
        )
        return structure

    @staticmethod
    def _collect_leaves(root: OctreeNode) -> list[OctreeNode]:
        leaves: list[OctreeNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
            else:
                stack.extend(reversed(node.children))
        return leaves
