"""Density-uniform KD-tree partitioning (Crescent's strategy, Fig. 3(c)).

Recursively splits at the coordinate *median*, yielding strictly balanced
blocks (sizes differ by at most one at every level) and hence the best
possible workload balance — at the price of one exclusive sort per tree
node.  Those sorts are sequential level-to-level and non-decomposable
(paper §III-C "Exclusive Sorter"), which the cost counters expose:
``2^ceil(log2(n/BS)) - 1`` sorts versus Fractal's ``ceil(log2(n/BS))``
traversals (Fig. 5).

Being a binary tree, the KD-tree supports the same parent search-space
rule as Fractal, so its *accuracy* is comparable to Fractal's — the gap
the paper exploits is purely in preprocessing cost and parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.blocks import Block, BlockStructure, PartitionCost
from ..core.delta import KDTreeCertificate, attach_certificate
from .base import Partitioner

__all__ = ["KDTreePartitioner", "KDNode"]


@dataclass
class KDNode:
    """One KD-tree node (leaf blocks keep their index sets)."""

    indices: np.ndarray
    depth: int
    left: Optional["KDNode"] = None
    right: Optional["KDNode"] = None
    parent: Optional["KDNode"] = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class KDTreePartitioner(Partitioner):
    """Median KD-tree with a leaf-size bound.

    Args:
        max_leaf_size: maximum points per leaf block (Crescent's BS).
        parent_search: expose the parent node as the leaf's search space
            (True matches how block ops are run on binary trees; False is
            the leaf-only ablation).
    """

    name = "kdtree"

    def __init__(self, max_leaf_size: int = 256, parent_search: bool = True):
        if max_leaf_size < 1:
            raise ValueError(f"max_leaf_size must be >= 1, got {max_leaf_size}")
        self.max_leaf_size = max_leaf_size
        self.parent_search = parent_search

    def partition(self, coords: np.ndarray) -> BlockStructure:
        n = len(coords)
        if n == 0:
            raise ValueError("cannot partition an empty point cloud")

        cost = PartitionCost()
        root = KDNode(indices=np.arange(n, dtype=np.int64), depth=0)
        # Level-synchronous to count sequential levels the way the
        # hardware experiences them: every level waits for its sorts.
        frontier = [root] if n > self.max_leaf_size else []
        levels = 0
        while frontier:
            levels += 1
            next_frontier: list[KDNode] = []
            for node in frontier:
                m = node.num_points if hasattr(node, "num_points") else len(node.indices)
                dim = node.depth % 3
                # The exclusive sort: full median sort of the node.
                cost.sorts.append(int(m))
                order = np.argsort(coords[node.indices, dim], kind="stable")
                half = m // 2
                left_idx = node.indices[order[:half]]
                right_idx = node.indices[order[half:]]
                left = KDNode(left_idx, node.depth + 1, parent=node)
                right = KDNode(right_idx, node.depth + 1, parent=node)
                node.left, node.right = left, right
                for child in (left, right):
                    if len(child.indices) > self.max_leaf_size:
                        next_frontier.append(child)
            frontier = next_frontier
        cost.levels = levels

        leaves = self._collect_leaves(root)
        blocks = [Block(np.sort(leaf.indices), depth=leaf.depth) for leaf in leaves]
        spaces = []
        for leaf in leaves:
            if self.parent_search and leaf.parent is not None and leaf.depth > 1:
                spaces.append(np.sort(leaf.parent.indices))
            else:
                spaces.append(np.sort(leaf.indices))
        structure = BlockStructure(
            num_points=n,
            blocks=blocks,
            search_spaces=spaces,
            cost=cost,
            strategy=self.name,
        )
        attach_certificate(structure, KDTreeCertificate.from_tree(root, leaves))
        return structure

    @staticmethod
    def _collect_leaves(root: KDNode) -> list[KDNode]:
        leaves: list[KDNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
            else:
                stack.append(node.right)
                stack.append(node.left)
        return leaves
