"""Space-uniform grid partitioning (PNNPU's strategy, paper Fig. 3(b)).

Divides the bounding box into equal cells with a single streaming pass —
minimal preprocessing cost, but cell populations follow the (highly
non-uniform) point density, producing severely imbalanced blocks and the
accuracy loss the paper reports (≈9 % for PointNeXt segmentation).

A cell's search space is the cell itself: the uniform grid has no
hierarchy to borrow neighbours from, which is exactly the border-loss
mechanism behind its accuracy gap.
"""

from __future__ import annotations

import numpy as np

from ..core.blocks import Block, BlockStructure, PartitionCost
from .base import Partitioner

__all__ = ["UniformPartitioner"]


class UniformPartitioner(Partitioner):
    """Uniform grid over the cloud's bounding box.

    Args:
        target_block_size: desired *average* points per occupied cell;
            the grid resolution is chosen so
            ``n / expected_occupied_cells ≈ target_block_size`` if points
            were uniform.  Real clouds concentrate on surfaces, so actual
            cell populations vary wildly — the point of Fig. 3(b).
        resolution: explicit cells-per-axis override (testing hook).
    """

    name = "uniform"

    def __init__(self, target_block_size: int = 256, resolution: int | None = None):
        if target_block_size < 1:
            raise ValueError(f"target_block_size must be >= 1, got {target_block_size}")
        if resolution is not None and resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        self.target_block_size = target_block_size
        self.resolution = resolution

    def _pick_resolution(self, n: int) -> int:
        if self.resolution is not None:
            return self.resolution
        # cells ≈ n / target on each axis: r^3 ≈ n / target.
        wanted_cells = max(1.0, n / self.target_block_size)
        return max(1, int(round(wanted_cells ** (1.0 / 3.0))))

    def partition(self, coords: np.ndarray) -> BlockStructure:
        n = len(coords)
        if n == 0:
            raise ValueError("cannot partition an empty point cloud")
        r = self._pick_resolution(n)

        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        extent = np.where(hi - lo > 0, hi - lo, 1.0)
        # One global streaming pass computes every point's cell id.
        cell = np.clip(((coords - lo) / extent * r).astype(np.int64), 0, r - 1)
        cell_id = cell[:, 0] * r * r + cell[:, 1] * r + cell[:, 2]

        order = np.argsort(cell_id, kind="stable")
        sorted_ids = cell_id[order]
        boundaries = np.nonzero(np.diff(sorted_ids))[0] + 1
        groups = np.split(order, boundaries)

        blocks = [Block(np.sort(g).astype(np.int64), depth=1) for g in groups]
        spaces = [b.indices for b in blocks]
        cost = PartitionCost(passes=[n], levels=1)
        return BlockStructure(
            num_points=n,
            blocks=blocks,
            search_spaces=spaces,
            cost=cost,
            strategy=self.name,
        )
