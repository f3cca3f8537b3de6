"""Binary fractal tree produced by the Fractal partitioner.

The tree is both the *partition* (its leaves are the blocks) and the
*memory layout* (leaves in depth-first order are stored contiguously —
paper §IV-A).  Internal nodes keep their full index sets because BPPO
neighbour searching uses a leaf's immediate parent as its search space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .blocks import Block, BlockStructure, PartitionCost

__all__ = ["FractalNode", "FractalTree"]


@dataclass
class FractalNode:
    """One node of the fractal binary tree.

    Attributes:
        node_id: DFT-order id (root = 0), assigned at construction.
        indices: global point indices under this node.
        depth: 0 for the root.
        split_dim: dimension this node was *split on* (None for leaves).
        split_mid: midpoint value used for the split (None for leaves).
        left/right: children (None for leaves).
        parent: parent node (None for the root).
        forced_leaf: True when the node exceeds the threshold but could
            not be split (fully degenerate extent — e.g. all points
            coincident); tracked because the paper's imbalance discussion
            (§VI-D) bounds block size by ``th`` only for splittable data.
    """

    node_id: int
    indices: np.ndarray
    depth: int
    split_dim: Optional[int] = None
    split_mid: Optional[float] = None
    left: Optional["FractalNode"] = None
    right: Optional["FractalNode"] = None
    parent: Optional["FractalNode"] = field(default=None, repr=False)
    forced_leaf: bool = False

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    @property
    def num_points(self) -> int:
        return len(self.indices)

    @property
    def sibling(self) -> Optional["FractalNode"]:
        """The other child of this node's parent (None for the root)."""
        if self.parent is None:
            return None
        return self.parent.right if self.parent.left is self else self.parent.left


@dataclass
class FractalTree:
    """The result of Fractal partitioning (paper Alg. 1 + Fig. 6).

    Attributes:
        root: tree root (covers every point).
        leaves: leaf nodes in depth-first (DFT) order; these are the
            final blocks, and their concatenated index arrays define the
            post-Fractal memory order.
        threshold: the ``th`` used (maximum points per block, barring
            degenerate forced leaves).
        num_levels: number of sequential partitioning iterations
            (equals the maximum leaf depth; Fig. 5's "traversing" count).
        cost: preprocessing cost counters for the hardware model.
    """

    root: FractalNode
    leaves: list[FractalNode]
    threshold: int
    num_levels: int
    cost: PartitionCost

    @property
    def num_points(self) -> int:
        return self.root.num_points

    @property
    def num_blocks(self) -> int:
        return len(self.leaves)

    @property
    def block_sizes(self) -> np.ndarray:
        return np.array([leaf.num_points for leaf in self.leaves], dtype=np.int64)

    def nodes(self) -> Iterator[FractalNode]:
        """All nodes in DFT (pre-order) order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)

    @property
    def max_depth(self) -> int:
        return max(leaf.depth for leaf in self.leaves)

    def search_space(self, leaf: FractalNode) -> np.ndarray:
        """BPPO search space for ``leaf`` (paper §IV-B).

        Depth-0/1 leaves search themselves; deeper leaves search their
        immediate parent (which contains the leaf and its sibling
        subtree), giving a broader scope that is "sufficient for
        maintaining network accuracy" (Fig. 14).
        """
        if leaf.depth <= 1 or leaf.parent is None:
            return leaf.indices
        return leaf.parent.indices

    def dft_permutation(self) -> np.ndarray:
        """Original-index permutation putting leaves contiguously in DFT order."""
        return np.concatenate([leaf.indices for leaf in self.leaves])

    def block_structure(self) -> BlockStructure:
        """Export as the generic :class:`BlockStructure` interface."""
        blocks = [Block(leaf.indices, depth=leaf.depth) for leaf in self.leaves]
        spaces = [self.search_space(leaf) for leaf in self.leaves]
        return BlockStructure(
            num_points=self.num_points,
            blocks=blocks,
            search_spaces=spaces,
            cost=self.cost,
            strategy="fractal",
        )
