"""Ragged CSR block layout and fused segment-wise point-op kernels.

The per-block loop (``block_*``) pays Python/numpy dispatch overhead once
per block, which dominates once blocks are small.  This module holds the
representation that regime wants — a **CSR (compressed sparse row)
layout** of the whole partition:

- ``coords``: the cloud's coordinates permuted so every block's points are
  contiguous (block-major, matching DFT block order);
- ``offsets``: ``(num_blocks + 1,)`` int64 prefix sums delimiting each
  block's slice of the flat arrays;
- ``search_coords`` / ``search_offsets`` / ``search_perm``: the same CSR
  layout for the per-block *search spaces*;
- ``perm`` / ``owner``: the flat-slot → global-id permutation and its
  per-point inverse block map.

Kernels over this layout (:func:`ragged_fps`, :func:`ragged_ball_query`,
:func:`ragged_knn`, :func:`ragged_interpolate`) visit **all blocks at
once** with segment reductions (``np.ufunc.reduceat`` argmax/argmin tricks,
flat cumulative-sum hit ranking, one dense scatter handed to the shared
top-k rule ``repro.geometry.ops._knn_from_dists``) instead of looping.  FPS streams the layout's coordinate *columns*
(``RaggedBlocks.columns``, SoA) through preallocated buffers.  There is
no padding waste and — outside the two documented per-block escapes
below — no per-block Python work beyond trace construction.

Bit-parity contract
-------------------

Every kernel returns indices (and features) **bit-identical** to its
serial reference in :mod:`repro.core.bppo`.  Two mechanisms guarantee it:

1. Selection logic (radius hits in candidate order, first-hit padding,
   nearest fallback, (distance, index) lexicographic top-k, first-tie
   argmax for FPS) is uniquely determined by the distance bits, so any
   faithful implementation agrees exactly.
2. Distance bits match because each block's distances are computed with
   the *same arithmetic* the reference would use: blocks in the
   elementwise regime (``centers × candidates <=``
   ``repro.geometry.ops._DIRECT_FORM_MAX``) are evaluated in one flat
   elementwise pass (elementwise ops are bit-independent of how the
   problem is sliced), while larger blocks call the reference
   :func:`repro.geometry.ops.pairwise_sq_dists` on exactly the reference
   shapes (one call per block — the first per-block escape).  Blocks whose
   work product exceeds :data:`RAGGED_BLOCK_MAX` take the serial per-block
   path wholesale (the second escape): they are dominated by their own
   GEMM, so fusing buys nothing and the flat pair arrays would only
   cost memory.

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
size-bucketed batch of serving clouds through a single kernel invocation
per pipeline stage; KNN widening consults only the block's own group, so
fusion never leaks candidates across clouds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..geometry import ops as exact_ops
from ..geometry.ops import _DIRECT_FORM_MAX
from .blocks import BlockStructure
from .bppo import (
    BlockWork,
    OpTrace,
    _interpolate_from_neighbors,
    allocate_samples,
    block_gather,
)

__all__ = [
    "RAGGED_BLOCK_MAX",
    "RaggedBlocks",
    "ragged_of",
    "ragged_fps",
    "ragged_ball_query",
    "ragged_knn",
    "ragged_interpolate",
    "ragged_gather",
]

#: Per-block work-product ceiling (centres × search size) for the fused
#: flat path; blocks above it run the serial per-block reference inside
#: the ragged kernels — they are dominated by their own GEMM, and the
#: flat pair arrays would only cost memory.  Set to 512, deliberately
#: equal to ``repro.geometry.ops._DIRECT_FORM_MAX``, so every fused
#: block's distances come out of the one flat elementwise pass (the
#: per-block ``pairwise_sq_dists`` escape in ``_pair_sq_dists`` stays as
#: the correctness net if the constants ever drift apart).  It tunes
#: speed, never semantics: either route is bit-identical.
RAGGED_BLOCK_MAX = 512


def _content_digest(coords: np.ndarray) -> bytes:
    """Exact float64 content fingerprint of a coordinate array.

    The partition cache keys structures at float32 resolution (any
    partition of the right index set is valid), so one structure may be
    replayed for float64-*distinct* clouds; the ragged layout, however,
    carries the coordinates themselves and must be rebuilt when they
    change.  Hashing at full precision keeps the memo safe.
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
        per-cloud boundaries the executor's split-back needs.
        """
        if not layouts:
            raise ValueError("need at least one layout to concatenate")
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
    content digest, which guards against replaying a layout for a
    float32-equal but float64-distinct cloud (the partition cache keys
    structures at float32).  The identity shortcut assumes callers do not
    mutate a cloud in place between ops on it — the same contract every
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
# Segment primitives
# ---------------------------------------------------------------------------


def _segment_first_argmin(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment flat position of the first minimum (``np.argmin`` rule)."""
    seg_min = np.minimum.reduceat(values, starts)
    owner = np.repeat(
        np.arange(len(starts)), np.diff(np.append(starts, len(values)))
    )
    slots = np.arange(len(values))
    candidates = np.where(values == seg_min[owner], slots, len(values))
    return np.minimum.reduceat(candidates, starts)


def _ragged_arange(counts: np.ndarray, starts: np.ndarray | None = None) -> np.ndarray:
    """Concatenation of ``arange(c) + s`` for each count/start pair."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    local = np.arange(total) - np.repeat(ends - counts, counts)
    if starts is None:
        return local
    return local + np.repeat(np.asarray(starts, dtype=np.int64), counts)


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


def fps_on_layout(rb: RaggedBlocks, quotas: np.ndarray) -> np.ndarray:
    """Farthest-point-sample every block of a ragged layout at once.

    One greedy recurrence over the flat point array replaces the
    per-block Python loop: each iteration finds every
    still-active block's first-position argmax with two segment
    reductions, then updates the flat min-distance array against each
    block's own new selection (slot ``i`` only ever measures against
    selections of its owning block, so blocks — and fused clouds — remain
    exactly independent).

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
    # order ``.sum(axis=1)`` reduces a length-3 axis (see
    # ``_pair_sq_dists``), and the segment argmax replicates np.argmax's
    # first-tie rule.
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
# Flat pair machinery shared by ball query and KNN
# ---------------------------------------------------------------------------


def _pair_layout(
    m_counts: np.ndarray, s_counts: np.ndarray, cand_csr_starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of the centre-major flat pair space of selected blocks.

    Given per-block centre counts ``m`` and candidate counts ``s``, the
    pair space enumerates, block by block, every centre's candidates in
    candidate order (exactly the row-major layout of the reference's
    per-block ``(m, s)`` distance matrix).  Built from repeats and one
    ragged arange — no per-pair division.

    Returns ``(center_of_pair, cand_local, cand_flat, pairs_per_center,
    pair_offsets)``: flat centre row per pair, candidate position within
    the block's candidate array, candidate position within the CSR
    candidate-coordinate array (``cand_csr_starts`` maps each selected
    block to its slice), per-centre pair counts, and per-block pair
    boundaries.
    """
    pair_offsets = np.zeros(len(m_counts) + 1, dtype=np.int64)
    np.cumsum(m_counts * s_counts, out=pair_offsets[1:])
    pairs_per_center = np.repeat(s_counts, m_counts)
    center_of_pair = np.repeat(
        np.arange(len(pairs_per_center)), pairs_per_center
    )
    cand_local = _ragged_arange(pairs_per_center)
    block_of_center = np.repeat(np.arange(len(m_counts)), m_counts)
    cand_flat = cand_local + np.repeat(
        cand_csr_starts[block_of_center], pairs_per_center
    )
    return center_of_pair, cand_local, cand_flat, pairs_per_center, pair_offsets


def _pair_sq_dists(
    center_coords: np.ndarray,
    cand_coords_csr: np.ndarray,
    cand_csr_starts: np.ndarray,
    m_counts: np.ndarray,
    s_counts: np.ndarray,
    cand_flat: np.ndarray,
    center_of_pair: np.ndarray,
    pairs_per_center: np.ndarray,
    pair_offsets: np.ndarray,
) -> np.ndarray:
    """Per-pair squared distances matching the reference bits per block.

    Blocks in the elementwise regime (``m × s <= _DIRECT_FORM_MAX``) are
    computed in one flat elementwise pass over their pairs, one
    coordinate column at a time: ``(x² + y²) + z²`` accumulates in
    exactly the order ``((a - b) ** 2).sum(axis=-1)`` reduces a length-3
    axis, so the bits equal the reference direct form while the runtime
    stays on cheap 1-D repeats/gathers instead of ``(P, 3)`` row
    gathers.  Larger blocks call
    :func:`repro.geometry.ops.pairwise_sq_dists` on exactly the
    reference shapes — one compound numpy call per block, the only
    per-block Python work in the fused path (dead code while
    ``RAGGED_BLOCK_MAX == _DIRECT_FORM_MAX``, kept as the correctness
    net should the constants drift).
    """
    products = m_counts * s_counts
    direct = products <= _DIRECT_FORM_MAX
    if direct.all():
        d2 = None
        for axis in range(3):
            a = np.repeat(
                np.ascontiguousarray(center_coords[:, axis]), pairs_per_center
            )
            a -= np.ascontiguousarray(cand_coords_csr[:, axis])[cand_flat]
            a *= a
            d2 = a if d2 is None else d2 + a
        return d2
    d2 = np.empty(int(pair_offsets[-1]), dtype=np.float64)
    pair_block = np.repeat(np.arange(len(m_counts)), m_counts * s_counts)
    direct_pairs = direct[pair_block]
    if direct_pairs.any():
        idx = np.nonzero(direct_pairs)[0]
        a = center_coords[center_of_pair[idx]]
        b = cand_coords_csr[cand_flat[idx]]
        d2[idx] = ((a - b) ** 2).sum(axis=1)
    m_offsets = np.zeros(len(m_counts) + 1, dtype=np.int64)
    np.cumsum(m_counts, out=m_offsets[1:])
    for b in np.nonzero(~direct)[0]:
        centers_b = center_coords[m_offsets[b]: m_offsets[b + 1]]
        cands_b = cand_coords_csr[
            cand_csr_starts[b]: cand_csr_starts[b] + s_counts[b]
        ]
        d2[pair_offsets[b]: pair_offsets[b + 1]] = exact_ops.pairwise_sq_dists(
            centers_b, cands_b
        ).ravel()
    return d2


# ---------------------------------------------------------------------------
# Ball query
# ---------------------------------------------------------------------------


def ball_query_on_layout(
    rb: RaggedBlocks,
    coords: np.ndarray,
    center_indices: np.ndarray,
    radius: float,
    num: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Ball query over every block of a ragged layout at once.

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

    s_sizes = rb.search_sizes
    products = counts * s_sizes
    populated = counts > 0
    fused_mask = populated & (products <= RAGGED_BLOCK_MAX)
    # Oversize blocks: dominated by their own GEMM — serial reference path.
    for b in np.nonzero(populated & ~fused_mask)[0]:
        rows = order[c_offsets[b]: c_offsets[b + 1]]
        space = rb.search_perm[rb.search_offsets[b]: rb.search_offsets[b + 1]]
        local = exact_ops.ball_query(
            coords[center_indices[rows]],
            rb.search_coords[rb.search_offsets[b]: rb.search_offsets[b + 1]],
            radius,
            num,
        )
        neighbors[rows] = space[local]

    fused = np.nonzero(fused_mask)[0]
    if len(fused):
        mm = counts[fused]
        ss = s_sizes[fused]
        rows_cat = order[_ragged_arange(mm, c_offsets[fused])]
        center_coords = coords[center_indices[rows_cat]]
        starts = rb.search_offsets[fused]
        center_of_pair, cand_local, cand_flat, pairs_per_center, pair_offsets = (
            _pair_layout(mm, ss, starts)
        )
        d2 = _pair_sq_dists(
            center_coords, rb.search_coords, starts,
            mm, ss, cand_flat, center_of_pair, pairs_per_center, pair_offsets,
        )
        local = _select_ball_neighbors_flat(
            d2, cand_local, center_of_pair, pairs_per_center,
            float(radius) ** 2, num,
        )
        block_of_center = np.repeat(fused, mm)
        neighbors[rows_cat] = rb.search_perm[
            rb.search_offsets[block_of_center][:, None] + local
        ]
    return neighbors, counts


def _select_ball_neighbors_flat(
    d2: np.ndarray,
    cand_local: np.ndarray,
    center_of_pair: np.ndarray,
    pairs_per_center: np.ndarray,
    r2: float,
    num: int,
) -> np.ndarray:
    """PointNet++ neighbour selection over a flat ragged pair space.

    Implements the same decision procedure as
    ``repro.geometry.ops._select_ball_neighbors`` — in-radius candidates
    in candidate order, first hit pads short rows, hitless centres fall
    back to the first nearest candidate — with flat cumulative-sum hit
    ranking instead of a per-row sort, so the result is bit-identical
    given identical distance bits.
    """
    num_centers = len(pairs_per_center)
    c_starts = np.zeros(num_centers, dtype=np.int64)
    np.cumsum(pairs_per_center[:-1], out=c_starts[1:])

    hit = d2 <= r2
    csum = np.cumsum(hit)
    before = np.where(c_starts > 0, csum[c_starts - 1], 0)
    rank = (csum - hit) - np.repeat(before, pairs_per_center)
    hits_per_center = csum[c_starts + pairs_per_center - 1] - before

    out = np.full((num_centers, num), -1, dtype=np.int64)
    take = hit & (rank < num)
    out[center_of_pair[take], rank[take]] = cand_local[take]

    no_hit = hits_per_center == 0
    first = out[:, 0]
    if no_hit.any():
        nearest = cand_local[_segment_first_argmin(d2, c_starts)]
        first = np.where(no_hit, nearest, first)
    cols = np.arange(num)
    return np.where(cols[None, :] < hits_per_center[:, None], out, first[:, None])


def ragged_ball_query(
    structure: BlockStructure,
    coords: np.ndarray,
    center_indices: np.ndarray,
    radius: float,
    num: int,
) -> tuple[np.ndarray, OpTrace]:
    """Ragged :func:`~repro.core.bppo.block_ball_query`: identical output."""
    rb = ragged_of(structure, coords)
    neighbors, counts = ball_query_on_layout(
        rb, coords, center_indices, radius, num
    )
    trace = OpTrace(kind="ball_query")
    search_sizes = rb.search_sizes
    for block_id, block in enumerate(structure.blocks):
        trace.blocks.append(
            BlockWork(
                block_id=block_id,
                n_points=len(block),
                n_search=int(search_sizes[block_id]),
                n_centers=int(counts[block_id]),
                n_outputs=int(counts[block_id]) * num,
            )
        )
    return neighbors, trace


# ---------------------------------------------------------------------------
# KNN / interpolation
# ---------------------------------------------------------------------------


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
    own cloud in a fused problem) and run the serial reference path, as
    does any block above :data:`RAGGED_BLOCK_MAX`.

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

    # Widened blocks search their group's full candidate set (serial path;
    # rare for sane thresholds).  Group the candidates only when needed.
    populated = counts > 0
    if widened.any():
        if rb.num_groups == 1:
            group_cands = {0: candidate_indices}
        else:
            cand_groups = rb.block_group[rb.owner[candidate_indices]]
            group_cands = {
                g: candidate_indices[cand_groups == g]
                for g in np.unique(cand_groups)
            }
        for b in np.nonzero(widened & populated)[0]:
            rows = order[c_offsets[b]: c_offsets[b + 1]]
            cands = group_cands[int(rb.block_group[b])]
            local = exact_ops.knn_search(
                coords[center_indices[rows]], coords[cands], k
            )
            neighbors[rows] = cands[local]

    products = counts * cand_sizes
    fused_mask = populated & ~widened & (products <= RAGGED_BLOCK_MAX)
    for b in np.nonzero(populated & ~widened & ~fused_mask)[0]:
        rows = order[c_offsets[b]: c_offsets[b + 1]]
        cands_b = cand_perm[cand_starts[b]: cand_starts[b + 1]]
        local = exact_ops.knn_search(
            coords[center_indices[rows]],
            cand_coords[cand_starts[b]: cand_starts[b + 1]],
            k,
        )
        neighbors[rows] = cands_b[local]

    fused = np.nonzero(fused_mask)[0]
    if len(fused):
        mm = counts[fused]
        cc = cand_sizes[fused]
        rows_cat = order[_ragged_arange(mm, c_offsets[fused])]
        center_coords = coords[center_indices[rows_cat]]
        starts = cand_starts[fused]
        center_of_pair, cand_local, cand_flat, pairs_per_center, pair_offsets = (
            _pair_layout(mm, cc, starts)
        )
        d2 = _pair_sq_dists(
            center_coords, cand_coords, starts,
            mm, cc, cand_flat, center_of_pair, pairs_per_center, pair_offsets,
        )
        local = _select_knn_flat(d2, cand_local, center_of_pair, pairs_per_center, k)
        block_of_center = np.repeat(fused, mm)
        neighbors[rows_cat] = cand_perm[
            cand_starts[block_of_center][:, None] + local
        ]

    # Trace counts: widened blocks report their group's candidate count.
    trace_cands = cand_sizes.copy()
    if widened.any():
        if rb.num_groups == 1:
            trace_cands[widened] = len(candidate_indices)
        else:
            group_totals = np.bincount(
                rb.block_group[rb.owner[candidate_indices]],
                minlength=rb.num_groups,
            )
            trace_cands[widened] = group_totals[rb.block_group[widened]]
    return neighbors, counts, trace_cands, widened


def _select_knn_flat(
    d2: np.ndarray,
    cand_local: np.ndarray,
    center_of_pair: np.ndarray,
    pairs_per_center: np.ndarray,
    k: int,
) -> np.ndarray:
    """Top-``k`` by (distance, candidate order) over a flat pair space.

    The pairs scatter into a dense ``(centres, max_width)`` matrix (one
    vectorised store — the column *is* the local candidate index),
    padded with ``+inf`` for centres narrower than the widest, and
    ``repro.geometry.ops._knn_from_dists`` — the one shared top-k rule —
    picks from it, so the result is bit-identical to the serial
    reference given identical distance bits.  Every centre must own at
    least ``k`` pairs (guaranteed: widened blocks never reach this
    path), so the pad can never be selected.
    """
    num_centers = len(pairs_per_center)
    width = int(pairs_per_center.max()) if num_centers else 0
    dense = np.full((num_centers, width), np.inf)
    dense[center_of_pair, cand_local] = d2
    return exact_ops._knn_from_dists(dense, k)


def ragged_knn(
    structure: BlockStructure,
    coords: np.ndarray,
    center_indices: np.ndarray,
    candidate_indices: np.ndarray,
    k: int,
) -> tuple[np.ndarray, OpTrace]:
    """Ragged :func:`~repro.core.bppo.block_knn`: identical neighbours,
    widening decisions, and trace."""
    rb = ragged_of(structure, coords)
    neighbors, counts, cands, widened = knn_on_layout(
        rb, coords, center_indices, candidate_indices, k
    )
    trace = OpTrace(kind="knn")
    for block_id, block in enumerate(structure.blocks):
        trace.blocks.append(
            BlockWork(
                block_id=block_id,
                n_points=len(block),
                n_search=int(cands[block_id]),
                n_centers=int(counts[block_id]),
                n_outputs=int(counts[block_id]) * k,
                widened=bool(widened[block_id]),
            )
        )
    return neighbors, trace


def ragged_interpolate(
    structure: BlockStructure,
    coords: np.ndarray,
    center_indices: np.ndarray,
    candidate_indices: np.ndarray,
    candidate_features: np.ndarray,
    k: int = 3,
) -> tuple[np.ndarray, OpTrace]:
    """Ragged :func:`~repro.core.bppo.block_interpolate`: bit-identical
    features (same KNN, same inverse-distance blend)."""
    candidate_features = np.asarray(candidate_features, dtype=np.float64)
    if len(candidate_features) != len(candidate_indices):
        raise ValueError("candidate_features rows must align with candidate_indices")
    neighbors, trace = ragged_knn(
        structure, coords, center_indices, candidate_indices, k
    )
    trace.kind = "interpolate"
    features = _interpolate_from_neighbors(
        structure.num_points, coords, center_indices, candidate_indices,
        candidate_features, neighbors,
    )
    return features, trace


#: Gathering is already one fancy-indexing pass: the ragged name is the
#: serial op, so the kernel registry is complete for every pipeline stage.
ragged_gather = block_gather
