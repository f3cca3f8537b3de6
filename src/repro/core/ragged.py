"""Ragged CSR block layout and the point ops the served path runs on it.

The engine's fused windows work on a **CSR (compressed sparse row)
layout** of the whole partition:

- ``coords``: the cloud's coordinates permuted so every block's points are
  contiguous (block-major, matching DFT block order);
- ``offsets``: ``(num_blocks + 1,)`` int64 prefix sums delimiting each
  block's slice of the flat arrays;
- ``search_coords`` / ``search_offsets`` / ``search_perm``: the same CSR
  layout for the per-block *search spaces*;
- ``perm`` / ``owner``: the flat-slot → global-id permutation and its
  per-point inverse block map.

FPS (:func:`fps_on_layout`, and :func:`ragged_fps` over one partition)
visits **all blocks at once**: one greedy recurrence over the flat
point array, with ``np.ufunc.reduceat`` segment argmax, streaming the
layout's coordinate *columns* (``RaggedBlocks.columns``, SoA) through
preallocated buffers.  When one block's quota dominates
(:func:`fps_runs_serial`), the recurrence would pay segment reductions
for little else, so the op runs the reference FPS once per block
instead.  The neighbour searches
(:func:`ball_query_on_layout`, :func:`knn_on_layout`) read the CSR search
spaces but run **one reference call per populated block** — the
block-parallel point operations of paper §IV-B, each block searching its
own space.

Bit-parity contract
-------------------

Every op returns indices (and features) **bit-identical** to its serial
reference in :mod:`repro.core.bppo`:

- FPS: every step is elementwise (subtract, square, add, min) plus a
  first-tie argmax, and elementwise ops give the same bits however the
  flat array is sliced; ``(x² + y²) + z²`` accumulates in the order
  ``.sum(axis=1)`` reduces a length-3 axis.
- Searches: each block calls :func:`repro.geometry.ops.ball_query` /
  :func:`repro.geometry.ops.knn_search` on exactly the reference shapes
  (the block's centres × its search space or candidate set), so the
  distance form, the distance bits and the selection all match.  Above
  ``repro.geometry.ops._DIRECT_FORM_MAX`` entries the distances are a
  GEMM, whose bits depend on the matrix shape — never batch or share
  distance matrices across blocks.

``tests/test_batch_parity.py`` holds the proof obligations across all
partitioners, including exact-duplicate clouds and blocks smaller than
the group size.

Whole-cloud fusion
------------------

Blocks of *different clouds* are as independent as blocks of one cloud,
so :meth:`RaggedBlocks.concatenate` merges the layouts of several clouds
— equal-size or not — into one ragged problem (``block_group`` remembers
the owning cloud; ``group_point_offsets`` / ``group_block_offsets``
delimit each cloud's slice of the fused arrays).
:class:`repro.runtime.executor.BatchExecutor` uses this to run a whole
size-bucketed batch of serving clouds through one call per pipeline
stage; KNN widening consults only the block's own group, so
fusion never leaks candidates across clouds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..geometry import ops as exact_ops
from .blocks import BlockStructure
from .bppo import BlockWork, OpTrace, allocate_samples

__all__ = [
    "RaggedBlocks",
    "ball_query_on_layout",
    "fps_on_layout",
    "fps_runs_serial",
    "knn_on_layout",
    "ragged_of",
    "ragged_fps",
]


def _content_digest(coords: np.ndarray) -> bytes:
    """Exact float64 content fingerprint of a coordinate array.

    The ragged layout carries the coordinates themselves, so the memo on
    a structure must be rebuilt whenever they change, by even one ulp.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(coords.shape).encode())
    digest.update(np.ascontiguousarray(coords, dtype=np.float64).tobytes())
    return digest.digest()


@dataclass
class RaggedBlocks:
    """CSR layout of one partition (or a fusion of several).

    Attributes:
        num_points: points across all grouped clouds.
        perm: ``(num_points,)`` global point id at each flat slot
            (block-major; slot ``offsets[b] + i`` is point ``i`` of block
            ``b`` in the block's own index order).
        offsets: ``(num_blocks + 1,)`` int64 block boundaries into the
            flat point arrays.
        columns: ``(3, num_points)`` float64 permuted coordinates in
            column (SoA) form — row ``a`` is coordinate ``a`` of
            ``coords_global[perm]``, contiguous, each block's points
            adjacent.  The FPS recurrence streams one coordinate at a
            time, so it never gathers ``(n, 3)`` rows.
        owner: ``(num_points,)`` global point id → owning block id.
        search_perm: concatenated per-block search-space global ids.
        search_offsets: ``(num_blocks + 1,)`` boundaries into the search
            arrays.
        search_coords: coordinates of ``search_perm`` (contiguous per
            block).
        block_group: ``(num_blocks,)`` owning problem id per block —
            all zeros for a single cloud; :meth:`concatenate` numbers the
            fused clouds.  KNN widening is confined to the block's group.
        num_groups: number of fused problems (1 for a single cloud).
        group_point_offsets: ``(num_groups + 1,)`` int64 boundaries of
            each fused cloud's points in the virtual concatenated cloud —
            cloud ``g`` owns global ids ``[group_point_offsets[g],
            group_point_offsets[g + 1])``.  The split-back tables of
            mixed-size fusion read global ids straight off this.
        group_block_offsets: ``(num_groups + 1,)`` int64 boundaries of
            each fused cloud's blocks in the fused block order.
    """

    num_points: int
    perm: np.ndarray
    offsets: np.ndarray
    columns: np.ndarray
    owner: np.ndarray
    search_perm: np.ndarray
    search_offsets: np.ndarray
    search_coords: np.ndarray
    block_group: np.ndarray
    num_groups: int = 1
    group_point_offsets: np.ndarray | None = None
    group_block_offsets: np.ndarray | None = None

    @property
    def num_blocks(self) -> int:
        return len(self.offsets) - 1

    @property
    def coords(self) -> np.ndarray:
        """``(num_points, 3)`` view of :attr:`columns` (``coords_global[perm]``)."""
        return self.columns.T

    @property
    def block_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def search_sizes(self) -> np.ndarray:
        return np.diff(self.search_offsets)

    @classmethod
    def from_structure(
        cls, structure: BlockStructure, coords: np.ndarray
    ) -> "RaggedBlocks":
        """Build the CSR layout of ``structure`` over ``coords``."""
        coords = np.asarray(coords, dtype=np.float64)
        sizes = structure.block_sizes
        offsets = np.zeros(structure.num_blocks + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        perm = (
            np.concatenate([b.indices for b in structure.blocks])
            if structure.num_blocks
            else np.empty(0, dtype=np.int64)
        )
        search_sizes = structure.search_sizes
        search_offsets = np.zeros(structure.num_blocks + 1, dtype=np.int64)
        np.cumsum(search_sizes, out=search_offsets[1:])
        search_perm = (
            np.concatenate(structure.search_spaces)
            if structure.num_blocks
            else np.empty(0, dtype=np.int64)
        )
        owner = np.empty(structure.num_points, dtype=np.int64)
        owner[perm] = np.repeat(np.arange(structure.num_blocks), sizes)
        return cls(
            num_points=structure.num_points,
            perm=perm,
            offsets=offsets,
            columns=np.ascontiguousarray(coords[perm].T),
            owner=owner,
            search_perm=search_perm,
            search_offsets=search_offsets,
            search_coords=coords[search_perm],
            block_group=np.zeros(structure.num_blocks, dtype=np.int64),
            num_groups=1,
            group_point_offsets=np.array(
                [0, structure.num_points], dtype=np.int64
            ),
            group_block_offsets=np.array(
                [0, structure.num_blocks], dtype=np.int64
            ),
        )

    @classmethod
    def concatenate(cls, layouts: list["RaggedBlocks"]) -> "RaggedBlocks":
        """Fuse several single-cloud layouts into one ragged problem.

        The layouts may describe clouds of *different* sizes: cloud
        ``g``'s global point ids are shifted by the running point total,
        so the fused problem indexes one virtual concatenated cloud;
        ``block_group`` records the source cloud of every block, and
        ``group_point_offsets`` / ``group_block_offsets`` carry the
        per-cloud boundaries the executor's split-back needs.  One
        layout is already its own fusion and comes back unchanged.
        """
        if not layouts:
            raise ValueError("need at least one layout to concatenate")
        if len(layouts) == 1:
            return layouts[0]
        point_offsets = np.zeros(len(layouts) + 1, dtype=np.int64)
        np.cumsum([rb.num_points for rb in layouts], out=point_offsets[1:])
        perm = np.concatenate([rb.perm + off for rb, off in zip(layouts, point_offsets)])
        search_perm = np.concatenate(
            [rb.search_perm + off for rb, off in zip(layouts, point_offsets)]
        )
        block_counts = [rb.num_blocks for rb in layouts]
        offsets = np.zeros(sum(block_counts) + 1, dtype=np.int64)
        np.cumsum(np.concatenate([rb.block_sizes for rb in layouts]), out=offsets[1:])
        search_offsets = np.zeros(sum(block_counts) + 1, dtype=np.int64)
        np.cumsum(
            np.concatenate([rb.search_sizes for rb in layouts]),
            out=search_offsets[1:],
        )
        block_offsets = np.zeros(len(layouts) + 1, dtype=np.int64)
        np.cumsum(block_counts, out=block_offsets[1:])
        owner = np.concatenate(
            [rb.owner + boff for rb, boff in zip(layouts, block_offsets)]
        )
        return cls(
            num_points=int(point_offsets[-1]),
            perm=perm,
            offsets=offsets,
            columns=np.concatenate([rb.columns for rb in layouts], axis=1),
            owner=owner,
            search_perm=search_perm,
            search_offsets=search_offsets,
            search_coords=np.concatenate([rb.search_coords for rb in layouts]),
            block_group=np.repeat(np.arange(len(layouts)), block_counts),
            num_groups=len(layouts),
            group_point_offsets=point_offsets,
            group_block_offsets=block_offsets,
        )


def ragged_of(structure: BlockStructure, coords: np.ndarray) -> RaggedBlocks:
    """The (memoized) ragged layout of ``structure`` over ``coords``.

    The layout is attached to the structure instance, so cached partitions
    (:class:`repro.runtime.cache.PartitionCache`) carry their ragged
    layout along for free.  Revalidation is two-tier: the common case —
    the *same array object* across the ops of one pipeline pass — is an
    identity check; a different array revalidates by full-precision
    content digest, so the memo is never replayed for other
    coordinates.  The identity shortcut assumes callers do not mutate a
    cloud in place between ops on it — the same contract every
    content-keyed cache here already relies on.
    """
    coords = np.asarray(coords, dtype=np.float64)
    memo = getattr(structure, "_ragged", None)
    if memo is not None:
        memo_coords, memo_digest, layout = memo
        if memo_coords is coords or memo_digest == _content_digest(coords):
            return layout
    layout = RaggedBlocks.from_structure(structure, coords)
    structure._ragged = (coords, _content_digest(coords), layout)
    return layout


# ---------------------------------------------------------------------------
# Centre grouping
# ---------------------------------------------------------------------------


def _group_centers(
    rb: RaggedBlocks, center_indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort centres by owning block.

    Returns ``(order, counts, c_offsets)`` — positions into
    ``center_indices`` in (block, position) order, per-block centre
    counts, and their prefix sums.  Matches the stable grouping of
    ``bppo._group_centers_by_block`` (ascending positions inside each
    block) without materialising per-block Python lists.
    """
    center_owner = rb.owner[np.asarray(center_indices, dtype=np.int64)]
    order = np.argsort(center_owner, kind="stable")
    counts = np.bincount(center_owner, minlength=rb.num_blocks).astype(np.int64)
    c_offsets = np.zeros(rb.num_blocks + 1, dtype=np.int64)
    np.cumsum(counts, out=c_offsets[1:])
    return order, counts, c_offsets


# ---------------------------------------------------------------------------
# FPS
# ---------------------------------------------------------------------------


def fps_runs_serial(steps: np.ndarray) -> bool:
    """The FPS step rule: run the per-block reference, not the recurrence?

    ``steps`` are per-block FPS step counts (the quotas, or an estimate
    of them).  The per-block loop takes one Python trip per sample of
    every block (``sum(steps)``); the segment recurrence one trip per
    sample of the fullest block (``max(steps)``), each costing about two
    loop trips.  So the loop wins while the fullest block runs at least
    as many steps as all the others together — always for one block.
    """
    steps = np.asarray(steps)
    if steps.size == 0:
        return True
    fullest = steps.max()
    return bool(steps.sum() - fullest <= fullest)


def fps_on_layout(rb: RaggedBlocks, quotas: np.ndarray) -> np.ndarray:
    """Farthest-point-sample every block of a ragged layout at once.

    One greedy recurrence over the flat point array replaces the
    per-block Python loop: each iteration finds every
    still-active block's first-position argmax with two segment
    reductions, then updates the flat min-distance array against each
    block's own new selection (slot ``i`` only ever measures against
    selections of its owning block, so blocks — and fused clouds — remain
    exactly independent).  When :func:`fps_runs_serial` says the fullest
    block dominates, each populated block instead calls the reference
    :func:`repro.geometry.ops.farthest_point_sample` on its own rows of
    the layout.

    Returns global point indices grouped by block in block order, each
    block's picks in selection order — the exact layout of
    :func:`repro.core.bppo.block_fps`.
    """
    quotas = np.asarray(quotas, dtype=np.int64)
    sizes = rb.block_sizes
    out_offsets = np.zeros(rb.num_blocks + 1, dtype=np.int64)
    np.cumsum(quotas, out=out_offsets[1:])
    out = np.empty(int(out_offsets[-1]), dtype=np.int64)
    if out.size == 0:
        return out

    if fps_runs_serial(quotas):
        coords = rb.coords
        for b in np.nonzero(quotas)[0]:
            lo, hi = rb.offsets[b], rb.offsets[b + 1]
            local = exact_ops.farthest_point_sample(coords[lo:hi], int(quotas[b]))
            out[out_offsets[b]: out_offsets[b + 1]] = rb.perm[lo + local]
        return out

    starts = rb.offsets[:-1]
    owner_flat = np.repeat(np.arange(rb.num_blocks), sizes)
    active = quotas > 0
    out[out_offsets[:-1][active]] = rb.perm[starts[active]]

    max_quota = int(quotas.max())
    if max_quota == 1:
        return out
    # Same recurrence as farthest_point_sample, vectorized over blocks and
    # run one coordinate column at a time into preallocated buffers:
    # elementwise subtract/square give identical bits no matter how the
    # flat array is sliced, ``(x² + y²) + z²`` accumulates in exactly the
    # order ``.sum(axis=1)`` reduces a length-3 axis, and the segment
    # argmax replicates np.argmax's first-tie rule.
    n = rb.num_points
    min_d2, d2, term = np.empty((3, n))
    is_max = np.empty(n, dtype=bool)

    def sq_dists_to(picked: np.ndarray, dst: np.ndarray) -> None:
        """``dst[i]`` = squared distance of slot ``i`` to its block's pick."""
        for axis, column in enumerate(rb.columns):
            buf = term if axis else dst
            np.take(column[picked], owner_flat, out=buf, mode="clip")
            np.subtract(column, buf, out=buf)
            np.multiply(buf, buf, out=buf)
            if axis:
                np.add(dst, buf, out=dst)

    sq_dists_to(starts, min_d2)
    slots = np.arange(n)
    for i in range(1, max_quota):
        # Segment argmax (first-tie): per-block max, then the smallest
        # slot attaining it.
        seg_max = np.maximum.reduceat(min_d2, starts)
        np.take(seg_max, owner_flat, out=term, mode="clip")
        np.equal(min_d2, term, out=is_max)
        picked = np.minimum.reduceat(np.where(is_max, slots, n), starts)
        live = quotas > i
        out[(out_offsets[:-1] + i)[live]] = rb.perm[picked[live]]
        sq_dists_to(picked, d2)
        np.minimum(min_d2, d2, out=min_d2)
    return out


def ragged_fps(
    structure: BlockStructure,
    coords: np.ndarray,
    num_samples: int,
) -> tuple[np.ndarray, OpTrace]:
    """Ragged :func:`~repro.core.bppo.block_fps`: same indices, same trace."""
    coords = np.asarray(coords, dtype=np.float64)
    quotas = allocate_samples(structure.block_sizes, num_samples, clamp=True)
    trace = OpTrace(kind="fps")
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
    rb = ragged_of(structure, coords)
    return fps_on_layout(rb, quotas), trace


# ---------------------------------------------------------------------------
# Neighbour searches
# ---------------------------------------------------------------------------


def ball_query_on_layout(
    rb: RaggedBlocks,
    coords: np.ndarray,
    center_indices: np.ndarray,
    radius: float,
    num: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Ball query over every block of a ragged layout.

    Each populated block calls the reference
    :func:`repro.geometry.ops.ball_query` once, on its own centres and
    its CSR search-space slice — exactly the shapes
    :func:`repro.core.bppo.block_ball_query` uses, so the bits match.

    Returns ``(neighbors, center_counts)`` — ``(m, num)`` global indices
    aligned row-for-row with ``center_indices`` plus the per-block centre
    counts (for trace construction).
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if num < 1:
        raise ValueError(f"num must be >= 1, got {num}")
    coords = np.asarray(coords, dtype=np.float64)
    center_indices = np.asarray(center_indices, dtype=np.int64)
    neighbors = np.empty((len(center_indices), num), dtype=np.int64)
    order, counts, c_offsets = _group_centers(rb, center_indices)
    for b in np.nonzero(counts)[0]:
        rows = order[c_offsets[b]: c_offsets[b + 1]]
        space = slice(rb.search_offsets[b], rb.search_offsets[b + 1])
        local = exact_ops.ball_query(
            coords[center_indices[rows]], rb.search_coords[space], radius, num
        )
        neighbors[rows] = rb.search_perm[space][local]
    return neighbors, counts


def knn_on_layout(
    rb: RaggedBlocks,
    coords: np.ndarray,
    center_indices: np.ndarray,
    candidate_indices: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """KNN over a candidate subset for every block of a ragged layout.

    The per-block candidate sets are the CSR compaction of the search
    spaces against the candidate mask; blocks left with fewer than ``k``
    candidates widen to their *group's* full candidate set (the block's
    own cloud in a fused problem).  Each populated block then calls the
    reference :func:`repro.geometry.ops.knn_search` once, on the shapes
    :func:`repro.core.bppo.block_knn` uses.

    Returns ``(neighbors, center_counts, cand_counts, widened)``; the
    last three are per-block arrays for trace construction
    (``cand_counts`` is post-widening, matching the serial trace).
    """
    coords = np.asarray(coords, dtype=np.float64)
    center_indices = np.asarray(center_indices, dtype=np.int64)
    candidate_indices = np.asarray(candidate_indices, dtype=np.int64)
    if len(candidate_indices) < k:
        raise ValueError(
            f"need at least k={k} candidates, got {len(candidate_indices)}"
        )

    in_candidates = np.zeros(rb.num_points, dtype=bool)
    in_candidates[candidate_indices] = True

    # CSR compaction of search spaces down to the candidate subset; the
    # mask preserves search-space order, matching the serial
    # ``space[in_candidates[space]]`` per block.
    cand_mask = in_candidates[rb.search_perm]
    cand_sizes = np.add.reduceat(cand_mask.astype(np.int64), rb.search_offsets[:-1])
    cand_starts = np.zeros(rb.num_blocks + 1, dtype=np.int64)
    np.cumsum(cand_sizes, out=cand_starts[1:])
    cand_perm = rb.search_perm[cand_mask]
    cand_coords = rb.search_coords[cand_mask]

    widened = cand_sizes < k
    order, counts, c_offsets = _group_centers(rb, center_indices)
    neighbors = np.empty((len(center_indices), k), dtype=np.int64)

    # Widened blocks search their group's full candidate set (rare for
    # sane thresholds).  Group the candidates only when needed.
    group_cands: dict[int, np.ndarray] = {}
    if widened.any():
        if rb.num_groups == 1:
            group_cands = {0: candidate_indices}
        else:
            cand_groups = rb.block_group[rb.owner[candidate_indices]]
            group_cands = {
                int(g): candidate_indices[cand_groups == g]
                for g in np.unique(cand_groups)
            }

    for b in np.nonzero(counts)[0]:
        rows = order[c_offsets[b]: c_offsets[b + 1]]
        if widened[b]:
            cands = group_cands[int(rb.block_group[b])]
            cands_xyz = coords[cands]
        else:
            space = slice(cand_starts[b], cand_starts[b + 1])
            cands, cands_xyz = cand_perm[space], cand_coords[space]
        local = exact_ops.knn_search(coords[center_indices[rows]], cands_xyz, k)
        neighbors[rows] = cands[local]

    # Trace counts: widened blocks report their group's candidate count.
    trace_cands = cand_sizes.copy()
    for b in np.nonzero(widened)[0]:
        trace_cands[b] = len(group_cands.get(int(rb.block_group[b]), ()))
    return neighbors, counts, trace_cands, widened
