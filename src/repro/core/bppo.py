"""Block-Parallel Point Operations (BPPO, paper §IV-B).

Decomposes every point operation — sampling, grouping, interpolation,
gathering — from a global search over the whole cloud into independent
block-local searches over a :class:`~repro.core.blocks.BlockStructure`.
All blocks are mutually independent, so a parallel machine executes them
concurrently; the functional results here are exactly what such a machine
would produce, and every operation additionally returns an
:class:`OpTrace` describing the per-block work for the hardware model.

Semantics mirrored from the paper:

- **Block-wise sampling** runs FPS independently inside each block with a
  *fixed sampling rate* across blocks (no per-block hyper-parameters);
  quotas use largest-remainder rounding so totals match the requested
  sample count exactly.
- **Block-wise neighbour search** (ball query for grouping, KNN for
  interpolation) restricts each centre's candidates to its block's search
  space — the block itself at depth ≤ 1, the immediate parent below that.
- **Block-wise gathering** is functionally identical to global gathering
  (it never changes feature values — paper §VI-B), but its trace records
  the block-local access pattern that eliminates DRAM lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry import ops as exact_ops
from .blocks import BlockStructure

__all__ = [
    "BlockWork",
    "OpTrace",
    "allocate_samples",
    "block_fps",
    "block_ball_query",
    "block_knn",
    "block_interpolate",
    "block_gather",
]


@dataclass
class BlockWork:
    """Per-block work record consumed by the hardware timing model.

    Attributes:
        block_id: index into ``structure.blocks``.
        n_points: points in the block.
        n_search: size of the search space consulted.
        n_centers: query centres processed in this block.
        n_outputs: results produced (samples selected / neighbour rows).
        widened: True when the search space had to grow beyond the
            block's normal scope (rare candidate-starved KNN case).
    """

    block_id: int
    n_points: int
    n_search: int
    n_centers: int
    n_outputs: int
    widened: bool = False


@dataclass
class OpTrace:
    """Work summary of one block-parallel operation."""

    kind: str
    blocks: list[BlockWork] = field(default_factory=list)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def total_outputs(self) -> int:
        return sum(w.n_outputs for w in self.blocks)

    @property
    def total_search_elements(self) -> int:
        """Sum over blocks of centres × search size (distance computations)."""
        return sum(w.n_centers * w.n_search for w in self.blocks)

    @property
    def num_widened(self) -> int:
        return sum(1 for w in self.blocks if w.widened)


def allocate_samples(
    block_sizes: np.ndarray, num_samples: int, *, clamp: bool = False
) -> np.ndarray:
    """Largest-remainder allocation of a global sample budget to blocks.

    Every block receives ``num_samples * size / total`` samples, rounded
    so the total is exact and no block exceeds its population.  This is
    the "fixed sampling rate across all blocks" rule of §IV-B, with one
    robustness guarantee: when the budget allows (``num_samples >=
    num_blocks``), every block keeps at least one representative — a
    sparse far-away block must not vanish from the sampled set, or its
    whole region loses coverage (the outlier discussion of §VI-D).

    Args:
        block_sizes: ``(num_blocks,)`` positive block populations.
        num_samples: total samples, ``1 <= num_samples <= sum(sizes)``.
        clamp: when True, an over-budget request (``num_samples >
            sum(sizes)``) is clamped to ``sum(sizes)`` instead of raising
            — the behaviour streaming callers want when a fixed sample
            count meets an unexpectedly tiny cloud or block.  Without the
            clamp, the rounding overflow used to surface much later as a
            confusing ``ValueError`` inside ``farthest_point_sample``.

    Returns:
        ``(num_blocks,)`` int64 quotas summing to ``min(num_samples,
        sum(sizes))`` (with ``clamp``) or exactly ``num_samples``.
    """
    sizes = np.asarray(block_sizes, dtype=np.int64)
    total = int(sizes.sum())
    if np.any(sizes <= 0):
        raise ValueError("block sizes must be positive")
    if clamp:
        num_samples = min(int(num_samples), total)
    if not 1 <= num_samples <= total:
        raise ValueError(f"num_samples must be in [1, {total}], got {num_samples}")

    if num_samples >= len(sizes):
        base = np.ones(len(sizes), dtype=np.int64)
        weights = (sizes - 1).astype(np.float64)
        room = sizes - 1
    else:
        base = np.zeros(len(sizes), dtype=np.int64)
        weights = sizes.astype(np.float64)
        room = sizes
    spare = num_samples - int(base.sum())
    if weights.sum() > 0 and spare > 0:
        exact = spare * weights / weights.sum()
    else:
        exact = np.zeros(len(sizes))
    extra = np.minimum(np.floor(exact).astype(np.int64), room)
    quotas = base + extra
    remainder = num_samples - int(quotas.sum())
    if remainder > 0:
        # Leftover slots go to the largest fractional parts with room,
        # then (degenerate skew) to whichever blocks still have capacity.
        frac = exact - np.floor(exact)
        for block_id in np.argsort(-frac, kind="stable"):
            if remainder == 0:
                break
            if quotas[block_id] < sizes[block_id]:
                quotas[block_id] += 1
                remainder -= 1
        if remainder > 0:
            for block_id in np.argsort(-(sizes - quotas), kind="stable"):
                take = min(remainder, int(sizes[block_id] - quotas[block_id]))
                quotas[block_id] += take
                remainder -= take
                if remainder == 0:
                    break
    assert int(quotas.sum()) == num_samples
    return quotas


def block_fps(
    structure: BlockStructure,
    coords: np.ndarray,
    num_samples: int,
) -> tuple[np.ndarray, OpTrace]:
    """Block-wise farthest point sampling (paper Fig. 7, "Block-Wise Sample").

    FPS runs independently inside every block (search space = the block
    itself); the final sample set is the aggregation over blocks.  An
    over-budget request (``num_samples > structure.num_points``) is
    clamped to the cloud size, so tiny streamed clouds degrade to "take
    every point" instead of raising.

    Returns:
        ``(indices, trace)`` — global point indices of the sampled set
        (grouped by DFT block order) and the per-block work trace.
    """
    coords = np.asarray(coords, dtype=np.float64)
    quotas = allocate_samples(structure.block_sizes, num_samples, clamp=True)
    trace = OpTrace(kind="fps")
    chunks: list[np.ndarray] = []
    for block_id, (block, quota) in enumerate(zip(structure.blocks, quotas)):
        trace.blocks.append(
            BlockWork(
                block_id=block_id,
                n_points=len(block),
                n_search=len(block),
                n_centers=int(quota),
                n_outputs=int(quota),
            )
        )
        if quota == 0:
            continue
        local = exact_ops.farthest_point_sample(coords[block.indices], int(quota))
        chunks.append(block.indices[local])
    indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return indices, trace


def _group_centers_by_block(
    structure: BlockStructure, center_indices: np.ndarray
) -> list[np.ndarray]:
    """Positions (into ``center_indices``) of each block's centres.

    One stable argsort over the owner array replaces the per-block
    ``nonzero`` scan (O(m log m + blocks) instead of O(m · blocks));
    stability keeps each group in ascending position order, exactly what
    the scan produced.
    """
    owner = structure.block_of_point()
    center_owner = owner[np.asarray(center_indices, dtype=np.int64)]
    order = np.argsort(center_owner, kind="stable")
    counts = np.bincount(center_owner, minlength=structure.num_blocks)
    return np.split(order, np.cumsum(counts)[:-1])


def block_ball_query(
    structure: BlockStructure,
    coords: np.ndarray,
    center_indices: np.ndarray,
    radius: float,
    num: int,
) -> tuple[np.ndarray, OpTrace]:
    """Block-wise ball query for grouping (paper Fig. 7).

    Each centre searches only its block's search space (leaf, or
    leaf + parent for deep leaves).  Results are *global* point indices
    aligned row-for-row with ``center_indices``.

    Returns:
        ``(neighbors, trace)`` — ``(m, num)`` global indices and the trace.
    """
    coords = np.asarray(coords, dtype=np.float64)
    center_indices = np.asarray(center_indices, dtype=np.int64)
    neighbors = np.empty((len(center_indices), num), dtype=np.int64)
    trace = OpTrace(kind="ball_query")

    for block_id, rows in enumerate(_group_centers_by_block(structure, center_indices)):
        block = structure.blocks[block_id]
        space = structure.search_spaces[block_id]
        trace.blocks.append(
            BlockWork(
                block_id=block_id,
                n_points=len(block),
                n_search=len(space),
                n_centers=len(rows),
                n_outputs=len(rows) * num,
            )
        )
        if len(rows) == 0:
            continue
        local = exact_ops.ball_query(
            coords[center_indices[rows]], coords[space], radius, num
        )
        neighbors[rows] = space[local]
    return neighbors, trace


def block_knn(
    structure: BlockStructure,
    coords: np.ndarray,
    center_indices: np.ndarray,
    candidate_indices: np.ndarray,
    k: int,
) -> tuple[np.ndarray, OpTrace]:
    """Block-wise KNN over a candidate subset (used by interpolation).

    For each block, the usable candidates are the members of
    ``candidate_indices`` that fall inside the block's search space.  A
    block whose search space holds fewer than ``k`` candidates widens to
    the full candidate set (counted in the trace; rare for sane
    thresholds — tested in ``tests/test_bppo.py``).

    Returns:
        ``(neighbors, trace)`` — ``(m, k)`` indices *into coords* (global
        point ids drawn from ``candidate_indices``), rows aligned with
        ``center_indices``.
    """
    coords = np.asarray(coords, dtype=np.float64)
    center_indices = np.asarray(center_indices, dtype=np.int64)
    candidate_indices = np.asarray(candidate_indices, dtype=np.int64)
    if len(candidate_indices) < k:
        raise ValueError(f"need at least k={k} candidates, got {len(candidate_indices)}")

    in_candidates = np.zeros(structure.num_points, dtype=bool)
    in_candidates[candidate_indices] = True

    neighbors = np.empty((len(center_indices), k), dtype=np.int64)
    trace = OpTrace(kind="knn")
    for block_id, rows in enumerate(_group_centers_by_block(structure, center_indices)):
        block = structure.blocks[block_id]
        space = structure.search_spaces[block_id]
        local_candidates = space[in_candidates[space]]
        widened = len(local_candidates) < k
        if widened:
            local_candidates = candidate_indices
        trace.blocks.append(
            BlockWork(
                block_id=block_id,
                n_points=len(block),
                n_search=len(local_candidates),
                n_centers=len(rows),
                n_outputs=len(rows) * k,
                widened=widened,
            )
        )
        if len(rows) == 0:
            continue
        local = exact_ops.knn_search(
            coords[center_indices[rows]], coords[local_candidates], k
        )
        neighbors[rows] = local_candidates[local]
    return neighbors, trace


def block_interpolate(
    structure: BlockStructure,
    coords: np.ndarray,
    center_indices: np.ndarray,
    candidate_indices: np.ndarray,
    candidate_features: np.ndarray,
    k: int = 3,
) -> tuple[np.ndarray, OpTrace]:
    """Block-wise feature interpolation (propagation stages, Fig. 2(c)).

    Finds each centre's K nearest candidates *within its block's search
    space* and blends their features with inverse-distance weights.

    Args:
        structure: partition of the dense cloud the centres live in.
        coords: ``(n, 3)`` coordinates of the dense cloud.
        center_indices: global indices of points to restore features for.
        candidate_indices: global indices of the sampled points carrying
            features.
        candidate_features: features aligned with ``candidate_indices``
            (row i belongs to candidate i).

    Returns:
        ``(features, trace)`` — ``(m, c)`` interpolated features.
    """
    candidate_features = np.asarray(candidate_features, dtype=np.float64)
    if len(candidate_features) != len(candidate_indices):
        raise ValueError("candidate_features rows must align with candidate_indices")

    neighbors, trace = block_knn(structure, coords, center_indices, candidate_indices, k)
    trace.kind = "interpolate"
    features = _interpolate_from_neighbors(
        structure.num_points, coords, center_indices, candidate_indices,
        candidate_features, neighbors,
    )
    return features, trace


def _interpolate_from_neighbors(
    num_points: int,
    coords: np.ndarray,
    center_indices: np.ndarray,
    candidate_indices: np.ndarray,
    candidate_features: np.ndarray,
    neighbors: np.ndarray,
) -> np.ndarray:
    """Inverse-distance blend of neighbour features (shared by the serial
    and fused interpolation paths, so identical neighbours give
    bit-identical features)."""
    # Map global candidate ids back to feature rows.
    feature_row = np.full(num_points, -1, dtype=np.int64)
    feature_row[np.asarray(candidate_indices, dtype=np.int64)] = np.arange(
        len(candidate_indices)
    )
    coords = np.asarray(coords, dtype=np.float64)
    centers = coords[np.asarray(center_indices, dtype=np.int64)]
    weights = exact_ops.idw_weights(centers, coords[neighbors])
    gathered = candidate_features[feature_row[neighbors]]
    return np.einsum("mk,mkc->mc", weights, gathered)


def block_gather(
    structure: BlockStructure,
    features: np.ndarray,
    neighbor_indices: np.ndarray,
    center_indices: np.ndarray,
) -> tuple[np.ndarray, OpTrace]:
    """Block-wise gathering (paper Fig. 10).

    Functionally identical to :func:`repro.geometry.ops.gather_features`
    (feature values are never altered); the trace records that every
    access stays within the owning block's search space, which is what
    lets the hardware keep gathers fully on-chip.

    Args:
        structure: the partition.
        features: ``(n, c)`` global feature table.
        neighbor_indices: ``(m, k)`` global indices to gather.
        center_indices: ``(m,)`` global centre ids (locate each row's block).

    Returns:
        ``(gathered, trace)`` — ``(m, k, c)`` features and the trace.
    """
    neighbor_indices = np.asarray(neighbor_indices, dtype=np.int64)
    gathered = exact_ops.gather_features(features, neighbor_indices)

    trace = OpTrace(kind="gather")
    for block_id, rows in enumerate(
        _group_centers_by_block(structure, np.asarray(center_indices, dtype=np.int64))
    ):
        block = structure.blocks[block_id]
        space = structure.search_spaces[block_id]
        trace.blocks.append(
            BlockWork(
                block_id=block_id,
                n_points=len(block),
                n_search=len(space),
                n_centers=len(rows),
                n_outputs=int(len(rows) * neighbor_indices.shape[1]),
            )
        )
    return gathered, trace
