"""Incremental Fractal updates for dynamic point clouds (paper §VI-D).

The paper's adaptation discussion points at dynamic data ("exploit
spatial locality in dynamic graphs to accelerate their construction and
updates").  Streaming sensors (LiDAR at 10-20 Hz) change only part of the
scene between frames, so rebuilding the fractal tree from scratch wastes
the partitioning work the previous frame already paid for.

:class:`FractalUpdater` maintains a fractal partition under insertions
and removals:

- **insert** routes each new point down the existing split planes
  (O(depth) comparisons — exactly what the partition-unit comparators do)
  and splits any leaf that overflows the threshold *locally*;
- **remove** deletes points from their leaves and merges sibling leaves
  whose combined population falls under a hysteresis bound (th/2),
  keeping the tree from accumulating fragmentation;
- cost counters compare the points touched against a full rebuild, which
  is the quantity the hardware saves.

The resulting partition satisfies the same invariants as a fresh
:func:`~repro.core.fractal.fractal_partition` (disjoint cover, leaf
bound, parent search spaces) — tested in ``tests/test_update.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .blocks import Block, BlockStructure, PartitionCost
from .config import FractalConfig
from .fractal import fractal_partition

__all__ = ["FractalUpdater", "UpdateStats"]


@dataclass
class _Node:
    """Routing node: split plane for internal nodes, members for leaves."""

    depth: int
    dim: int = -1
    mid: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    members: Optional[set[int]] = None  # leaves only
    parent: Optional["_Node"] = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.members is not None


@dataclass
class UpdateStats:
    """Work counters for the rebuild-vs-update comparison."""

    points_routed: int = 0
    comparisons: int = 0
    leaf_splits: int = 0
    leaf_merges: int = 0
    points_resplit: int = 0

    @property
    def update_work(self) -> int:
        """Points touched by incremental maintenance."""
        return self.points_routed + self.points_resplit


class FractalUpdater:
    """A fractal partition that tracks a mutable point set.

    Args:
        coords: initial ``(n, 3)`` coordinates.
        config: Fractal parameters (threshold, split rule).

    Point identity: every point ever inserted has a stable integer id;
    removed ids are never reused.  :meth:`structure` exports the live
    partition over the live ids, plus an id→row map for user arrays.
    """

    def __init__(self, coords: np.ndarray, config: FractalConfig | None = None):
        self.config = config or FractalConfig()
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError(f"coords must be (n, 3), got {coords.shape}")
        self._coords = coords.copy()
        self._alive = np.ones(len(coords), dtype=bool)
        self.stats = UpdateStats()
        self._root = self._build(np.arange(len(coords), dtype=np.int64))

    # ------------------------------------------------------------- building
    def _build(self, indices: np.ndarray, depth: int = 0) -> _Node:
        """Build a routing subtree over ``indices`` with a fresh Fractal run."""
        if len(indices) == 0:
            return _Node(depth=depth, members=set())
        tree = fractal_partition(self._coords[indices], self.config)
        return self._convert(tree.root, indices, depth)

    def _convert(self, node, indices: np.ndarray, depth: int) -> _Node:
        if node.is_leaf:
            return _Node(depth=depth, members=set(indices[node.indices].tolist()))
        out = _Node(depth=depth, dim=node.split_dim, mid=node.split_mid)
        out.left = self._convert(node.left, indices, depth + 1)
        out.right = self._convert(node.right, indices, depth + 1)
        out.left.parent = out
        out.right.parent = out
        return out

    # ------------------------------------------------------------ mutation
    @property
    def num_points(self) -> int:
        return int(self._alive.sum())

    def insert(self, new_coords: np.ndarray) -> np.ndarray:
        """Insert points; returns their stable ids.

        The whole batch is routed in one vectorized descent
        (:meth:`_route_groups`) and lands per leaf with one bulk set
        update; leaves that overflow the threshold split once, after the
        batch — the local rebuild re-enforces the leaf bound recursively,
        so the partition invariants match per-point insertion.
        """
        new_coords = np.asarray(new_coords, dtype=np.float64).reshape(-1, 3)
        start = len(self._coords)
        ids = np.arange(start, start + len(new_coords), dtype=np.int64)
        self._coords = np.concatenate([self._coords, new_coords])
        self._alive = np.concatenate([self._alive, np.ones(len(new_coords), dtype=bool)])
        self.stats.points_routed += len(ids)
        touched = self._route_groups(new_coords)
        for leaf, rows in touched:
            leaf.members.update(ids[rows].tolist())
        for leaf, _ in touched:
            if leaf.is_leaf and len(leaf.members) > self.config.threshold:
                self._split_leaf(leaf)
        return ids

    def remove(self, ids: np.ndarray) -> None:
        """Remove points by id; merges underfilled sibling leaves.

        Ids are validated up front (any dead, duplicate, or out-of-range
        id raises before the partition is touched), the batch is routed
        in one vectorized descent, and each touched leaf pays one bulk
        ``difference_update``.  Merge maintenance runs after all
        removals: a cascade can absorb another touched leaf into its
        parent, so each leaf is merged only while still :meth:`_live`.
        """
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        bad = (ids < 0) | (ids >= len(self._alive))
        if bad.any() or not self._alive[ids].all():
            first = int(ids[bad][0]) if bad.any() else int(
                ids[~self._alive[ids]][0]
            )
            raise KeyError(f"point id {first} is not alive")
        if len(np.unique(ids)) != len(ids):
            unique, counts = np.unique(ids, return_counts=True)
            raise KeyError(
                f"point id {int(unique[counts > 1][0])} is not alive "
                "(repeated in one remove batch)"
            )
        touched = self._route_groups(self._coords[ids])
        self._alive[ids] = False
        for leaf, rows in touched:
            leaf.members.difference_update(ids[rows].tolist())
        for leaf, _ in touched:
            if leaf.is_leaf and self._live(leaf):
                self._maybe_merge(leaf)

    def _route_groups(self, pts: np.ndarray) -> list[tuple[_Node, np.ndarray]]:
        """``(leaf, rows)`` batches of ``pts`` via one vectorized descent.

        One searchsorted-style sweep per tree level: every node visit
        partitions its row set with a single vectorized comparison, so
        the per-point Python cost of routing a batch is O(leaves
        touched), not O(points).  Each returned leaf appears exactly
        once.
        """
        groups: list[tuple[_Node, np.ndarray]] = []
        stack: list[tuple[_Node, np.ndarray]] = [
            (self._root, np.arange(len(pts), dtype=np.int64))
        ]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                groups.append((node, rows))
                continue
            self.stats.comparisons += len(rows)
            go_left = pts[rows, node.dim] <= node.mid
            left_rows = rows[go_left]
            right_rows = rows[~go_left]
            if len(left_rows):
                stack.append((node.left, left_rows))
            if len(right_rows):
                stack.append((node.right, right_rows))
        return groups

    @staticmethod
    def _live(leaf: _Node) -> bool:
        """Whether ``leaf`` is still referenced by the routing tree.

        Batch maintenance defers merges until after every membership
        update; a merge cascade can absorb a sibling that is *also* on
        the touched list, leaving a detached node object behind.  A node
        is live iff its parent still points at it (the root always is) —
        the parent itself cannot have been merged away while it has an
        attached child, so one hop suffices.
        """
        parent = leaf.parent
        return parent is None or parent.left is leaf or parent.right is leaf

    def _split_leaf(self, leaf: _Node) -> None:
        members = np.array(sorted(leaf.members), dtype=np.int64)
        subtree = self._build(members, depth=leaf.depth)
        self.stats.leaf_splits += 1
        self.stats.points_resplit += len(members)
        if subtree.is_leaf:
            # Degenerate (coincident points): keep as an oversized leaf.
            leaf.members = subtree.members
            return
        leaf.members = None
        leaf.dim, leaf.mid = subtree.dim, subtree.mid
        leaf.left, leaf.right = subtree.left, subtree.right
        leaf.left.parent = leaf
        leaf.right.parent = leaf

    def _maybe_merge(self, leaf: _Node) -> None:
        parent = leaf.parent
        if parent is None:
            return
        sibling = parent.right if parent.left is leaf else parent.left
        if not sibling.is_leaf:
            return
        combined = len(leaf.members) + len(sibling.members)
        if combined > self.config.threshold // 2:
            return
        parent.members = leaf.members | sibling.members
        parent.dim, parent.mid = -1, 0.0
        parent.left = parent.right = None
        self.stats.leaf_merges += 1
        self._maybe_merge(parent)  # cascades up while underfilled

    # -------------------------------------------------------------- export
    def _collect(self, leaves: list[_Node], intervals: dict[int, tuple[int, int]]) -> None:
        """DFS over the tree, listing populated leaves in tour order.

        ``intervals[id(node)]`` becomes the half-open range of positions
        in ``leaves`` covered by the node's subtree — the Euler-tour view
        that lets :meth:`structure` assemble any subtree's member set by
        concatenating one contiguous run of leaf arrays, instead of the
        per-node Python set unions this method used to build.
        """
        stack: list[tuple[_Node, bool]] = [(self._root, False)]
        starts: list[tuple[int, int]] = []
        while stack:
            node, done = stack.pop()
            if done:
                key, lo = starts.pop()
                intervals[key] = (lo, len(leaves))
                continue
            if node.is_leaf:
                if node.members:
                    intervals[id(node)] = (len(leaves), len(leaves) + 1)
                    leaves.append(node)
                else:
                    intervals[id(node)] = (len(leaves), len(leaves))
                continue
            starts.append((id(node), len(leaves)))
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))

    def structure(self) -> tuple[BlockStructure, np.ndarray]:
        """Export the live partition.

        Returns:
            ``(structure, live_ids)`` — a :class:`BlockStructure` whose
            indices are *rows into* ``coords()`` (0..n_live-1), and the
            stable ids of those rows in order.

        One vectorised pass: leaves land in tour order with a per-leaf
        id array, an id→row lookup table replaces per-leaf searches, and
        every parent search space is one contiguous slice of the
        concatenated leaf ids (shared across that parent's leaves).
        """
        leaves: list[_Node] = []
        intervals: dict[int, tuple[int, int]] = {}
        self._collect(leaves, intervals)
        member_arrays = [
            np.sort(np.fromiter(leaf.members, dtype=np.int64,
                                count=len(leaf.members)))
            for leaf in leaves
        ]
        cat_ids = (
            np.concatenate(member_arrays)
            if member_arrays else np.empty(0, dtype=np.int64)
        )
        offsets = np.zeros(len(leaves) + 1, dtype=np.int64)
        if leaves:
            np.cumsum([len(m) for m in member_arrays], out=offsets[1:])
        live_ids = np.sort(cat_ids)
        # Leaves partition the live ids: a dense id→row table makes every
        # row lookup one gather (a sorted id subset maps to sorted rows).
        lookup = np.empty(max(len(self._alive), 1), dtype=np.int64)
        lookup[live_ids] = np.arange(len(live_ids), dtype=np.int64)
        blocks, spaces = [], []
        parent_rows: dict[int, np.ndarray] = {}
        for pos, (leaf, members) in enumerate(zip(leaves, member_arrays)):
            rows = lookup[members]
            blocks.append(Block(rows, depth=leaf.depth))
            if leaf.depth <= 1 or leaf.parent is None:
                spaces.append(rows)
                continue
            key = id(leaf.parent)
            space = parent_rows.get(key)
            if space is None:
                lo, hi = intervals[key]
                space = np.sort(lookup[cat_ids[offsets[lo]: offsets[hi]]])
                parent_rows[key] = space
            spaces.append(space)
        structure = BlockStructure(
            num_points=len(live_ids),
            blocks=blocks,
            search_spaces=spaces,
            cost=PartitionCost(),
            strategy="fractal",
        )
        return structure, live_ids

    def coords(self) -> np.ndarray:
        """Coordinates of live points, aligned with ``structure()`` rows."""
        return self._coords[self._alive]

    def rebuild_work(self) -> int:
        """Points a from-scratch Fractal rebuild would traverse."""
        tree = fractal_partition(self.coords(), self.config)
        return tree.cost.total_traversed_elements
