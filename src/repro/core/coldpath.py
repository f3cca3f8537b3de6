"""Fused build-and-sample: FPS interleaved with partition construction.

A cold :class:`~repro.runtime.cache.PartitionCache` miss pays the full
tree build *then* a separate block-FPS pass — two traversals of every
point before the first kernel output exists.  FuseFPS-style fusion folds
the sampling pass into the build: the moment a tree node is finalized as
a leaf, its points are already resident, so the FPS recurrence starts
immediately on that block while the builder keeps splitting the rest of
the cloud.

Where it pays, and where it cannot.  FuseFPS wins in hardware by not
re-reading points between construction and sampling.  A Python process
has no such traffic to save: the fused build costs exactly what
build-then-loop-FPS costs (measured within 2 % from 64 to 11.7K points),
because each leaf still runs the per-block recurrence one Python trip
per sample.  That recurrence is the right FPS kernel only while the
partition has one or two blocks; past that the two-pass build reaches
the ragged FPS (:func:`repro.core.ragged.fps_on_layout`, one trip per
sample of the *fullest* block for all blocks together) and is 2–3x
cheaper — 43 vs 15 ms on an 11.7K-point scene; that is all there is to
fusion inverting at scale.
:func:`repro.core.dispatch.choose_build_kernel` therefore fuses only up
to two expected blocks, where the tie also spares the engine one kernel
dispatch, and ``--build fused`` stays a pin.

The python analogue keeps the hardware contract that matters — **bit
identity** with the unfused path (``partitioner(coords)`` followed by
``block_fps``).  Two properties make that cheap to guarantee:

- the builders call :func:`~repro.partition.base.Partitioner.partition`'s
  ``on_leaf`` hook with exactly the index ordering the final
  :class:`~repro.core.blocks.Block` will carry, so per-leaf FPS sees the
  same candidate order as the reference;
- the exact FPS recurrence is *prefix-stable*: retaining ``min_d2``
  lets a provisional sample list be truncated or extended to the exact
  largest-remainder quota (only known once all block sizes are) without
  changing a single selected index.

Because final quotas are unknown mid-build, each leaf samples an
estimated pro-rata quota eagerly and the driver reconciles against
:func:`~repro.core.bppo.allocate_samples` afterwards.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockStructure
from .bppo import BlockWork, OpTrace, allocate_samples

__all__ = ["FusedBuildUnsupported", "fused_build_and_sample", "supports_fused_build"]


class FusedBuildUnsupported(TypeError):
    """The partitioner does not implement the ``on_leaf`` build hook."""


def supports_fused_build(partitioner) -> bool:
    """True when ``partitioner`` exposes the fused-build leaf hook."""
    return bool(getattr(partitioner, "supports_fused_build", False))


class _LeafSampler:
    """Incremental FPS over one finalized block.

    Replicates :func:`repro.geometry.ops.farthest_point_sample`
    (``start_index=0``) step for step: ``argmax`` over the running
    ``min_d2`` array, then an in-place ``minimum`` update.  Keeping the
    state alive is what makes quota reconciliation free: ``take(q)`` is a
    slice when the estimate overshot and a resumed recurrence when it
    undershot — both bit-identical to a fresh run at quota ``q``.
    """

    __slots__ = ("local", "selected", "min_d2")

    def __init__(self, local: np.ndarray, quota: int):
        self.local = local
        self.selected = [0]
        self.min_d2 = np.sum((local - local[0]) ** 2, axis=1)
        self._grow(quota)

    def _grow(self, upto: int) -> None:
        upto = min(int(upto), len(self.local))
        while len(self.selected) < upto:
            nxt = int(np.argmax(self.min_d2))
            self.selected.append(nxt)
            d2 = np.sum((self.local - self.local[nxt]) ** 2, axis=1)
            np.minimum(self.min_d2, d2, out=self.min_d2)

    def take(self, quota: int) -> np.ndarray:
        self._grow(quota)
        return np.asarray(self.selected[:quota], dtype=np.int64)


def fused_build_and_sample(
    partitioner,
    coords: np.ndarray,
    num_samples: int,
) -> tuple[BlockStructure, np.ndarray, OpTrace]:
    """Build the partition and FPS-sample it in one interleaved pass.

    Args:
        partitioner: a :class:`~repro.partition.base.Partitioner` whose
            ``partition`` accepts the ``on_leaf`` hook (kdtree, octree,
            uniform, fractal).
        coords: ``(n, 3)`` point coordinates.
        num_samples: global sample budget (clamped to ``n`` like
            :func:`~repro.core.bppo.block_fps`).

    Returns:
        ``(structure, sampled, trace)`` — bit-identical to
        ``structure = partitioner(coords)`` followed by
        ``block_fps(structure, coords, num_samples)``.

    Raises:
        FusedBuildUnsupported: the partitioner has no leaf hook.
    """
    if not supports_fused_build(partitioner):
        raise FusedBuildUnsupported(
            f"partitioner {getattr(partitioner, 'name', partitioner)!r} does not "
            f"support fused build-and-sample"
        )
    coords = np.ascontiguousarray(np.asarray(coords, dtype=np.float64))
    n = len(coords)
    if n == 0:
        raise ValueError("cannot partition an empty point cloud")
    budget = min(max(int(num_samples), 1), n)

    samplers: dict[int, _LeafSampler] = {}

    def on_leaf(block_indices: np.ndarray) -> None:
        # Pro-rata estimate of the final largest-remainder quota; ceil
        # overshoots slightly so reconciliation usually truncates.
        size = len(block_indices)
        est = min(size, max(1, -(-budget * size // n)))
        samplers[int(block_indices[0])] = _LeafSampler(coords[block_indices], est)

    structure = partitioner.partition(coords, on_leaf=on_leaf)
    structure.validate()

    quotas = allocate_samples(structure.block_sizes, budget, clamp=True)
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
        local = samplers[int(block.indices[0])].take(int(quota))
        chunks.append(block.indices[local])
    sampled = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return structure, sampled, trace
