"""Fused multi-cloud model forward passes.

One serving window holds many clouds with the same model pipeline; this
module runs the whole window as one forward pass per *stage* instead of
one forward pass per *cloud*.  The structure work (per-level partitions,
FPS, ball query, KNN) fuses exactly like the engine's BPPO path — each
cloud keeps its own cached partition and sample quota, the per-cloud
ragged CSR layouts concatenate into one problem, and every point
operation runs as a single layout-kernel invocation.  The network math
(shared MLPs, pooling, interpolation) is row-wise by construction —
delayed aggregation makes the MLP per-point, and the Dense
row-stability contract makes each row independent of its batch — so
running it over the concatenated rows is bit-identical to running each
cloud alone.

Every stage executes under a ``model.*`` span, so ``repro trace
summarize`` shows the network pipeline next to the point-op kernels.
The whole pass runs under :func:`repro.networks.layers.forward_only`:
the model keeps no activations once a window is served.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .. import obs
from ..core.bppo import allocate_samples
from ..core.ragged import (
    RaggedBlocks,
    ball_query_on_layout,
    fps_on_layout,
    knn_on_layout,
)
from ..geometry import ops as exact_ops
from ..networks.layers import Module, forward_only
from ..networks.models import PNNClassifier, PNNClassifierMSG, PNNSegmenter
from ..networks.modules import FPStage, SAStage
from ..networks.msg import SAStageMSG
from .registry import get_model

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cache import PartitionCache

__all__ = ["run_fused"]


def _span(name: str, **attrs):
    return obs.span(name, **attrs) if obs.enabled() else obs.NULL_SPAN


class _Level:
    """One fused pyramid level: per-cloud partitions concatenated.

    ``offsets[g] : offsets[g + 1]`` is cloud ``g``'s row range in every
    per-point array of this level (``coords``, features, logits).
    """

    def __init__(self, cache: "PartitionCache", coords_list: list[np.ndarray]):
        structures, layouts, sources = [], [], []
        for coords in coords_list:
            structure, layout, source = cache.acquire_ragged(coords)
            structures.append(structure)
            layouts.append(layout)
            sources.append(source)
        self.structures = structures
        self.sources = sources
        self.fused = RaggedBlocks.concatenate(layouts)
        self.coords = np.concatenate(coords_list)
        self.sizes = [len(c) for c in coords_list]
        self.offsets = np.zeros(len(coords_list) + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=self.offsets[1:])

    def slices(self):
        for g in range(len(self.sizes)):
            yield int(self.offsets[g]), int(self.offsets[g + 1])

    def sample(self, n_outs: list[int]) -> tuple[np.ndarray, list[int]]:
        """Fused block-FPS with per-cloud quotas.

        Returns global sampled indices (per-cloud contiguous, block-major
        within a cloud — the exact layout of the per-cloud kernels) and
        the per-cloud sample counts.
        """
        quotas = [
            allocate_samples(s.block_sizes, n, clamp=True)
            for s, n in zip(self.structures, n_outs)
        ]
        sampled = fps_on_layout(self.fused, np.concatenate(quotas))
        return sampled, [int(q.sum()) for q in quotas]


def _next_level(
    cache: "PartitionCache", level: _Level, sampled: np.ndarray, counts: list[int]
) -> _Level:
    """Build the next pyramid level from fused sampled indices."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return _Level(
        cache,
        [
            level.coords[sampled[int(offsets[g]): int(offsets[g + 1])]]
            for g in range(len(counts))
        ],
    )


def _sa(
    stage: SAStage,
    level: _Level,
    feats: np.ndarray | None,
    agg: str,
    label: str,
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """One fused set-abstraction stage: sample + group + compute."""
    with _span(label, points=level.fused.num_points):
        n_outs = [min(stage.n_out, n) for n in level.sizes]
        sampled, counts = level.sample(n_outs)
        neighbors, _ = ball_query_on_layout(
            level.fused, level.coords, sampled, stage.radius, stage.k
        )
        out = stage.compute(level.coords, feats, neighbors, agg=agg)
    return sampled, counts, out


def _sa_msg(
    stage: SAStageMSG,
    level: _Level,
    feats: np.ndarray | None,
    agg: str,
    label: str,
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Fused MSG stage: one shared FPS, one grouping pass per scale."""
    with _span(label, points=level.fused.num_points, scales=len(stage.scales)):
        n_outs = [min(stage.n_out, n) for n in level.sizes]
        sampled, counts = level.sample(n_outs)
        outputs = []
        for (radius, k), sub in zip(stage.scales, stage.stages):
            neighbors, _ = ball_query_on_layout(
                level.fused, level.coords, sampled, radius, k
            )
            outputs.append(sub.compute(level.coords, feats, neighbors, agg=agg))
        out = np.concatenate(outputs, axis=1)
    return sampled, counts, out


def _fp(
    fp: FPStage,
    dense: _Level,
    sparse_indices: np.ndarray,
    sparse_feats: np.ndarray,
    skip_feats: np.ndarray | None,
    label: str,
) -> np.ndarray:
    """Fused feature propagation onto every point of ``dense``."""
    with _span(label, points=dense.fused.num_points):
        centers = np.arange(dense.fused.num_points, dtype=np.int64)
        idx, _, _, _ = knn_on_layout(
            dense.fused, dense.coords, centers, sparse_indices, fp.k
        )
        weights = exact_ops.idw_weights(dense.coords, dense.coords[idx])
        row_of = np.full(dense.fused.num_points, -1, dtype=np.int64)
        row_of[sparse_indices] = np.arange(len(sparse_indices), dtype=np.int64)
        interp = np.einsum("mk,mkc->mc", weights, sparse_feats[row_of[idx]])
        if skip_feats is not None:
            x = np.concatenate([interp, skip_feats], axis=1)
        else:
            x = interp
        return fp.mlp.forward(x)


def _global_and_head(model, level: _Level, feats: np.ndarray) -> list[np.ndarray]:
    """Fused GlobalSA + classification head: per-cloud logit rows."""
    x = np.concatenate([level.coords, feats], axis=1)
    with _span("model.global_sa", points=len(x)):
        h = model.global_sa.mlp.forward(x)
        pooled = np.stack([h[lo:hi].max(axis=0) for lo, hi in level.slices()])
    with _span("model.head", clouds=len(pooled)):
        logits = model.head.forward(pooled)
    return [logits[g] for g in range(len(logits))]


def run_fused(
    name: str,
    items: list[tuple[int, np.ndarray, np.ndarray | None]],
    cache: "PartitionCache",
    agg: str = "auto",
) -> tuple[list[np.ndarray], list[str], list[int]]:
    """Run one model over a fused group of clouds.

    ``items`` are the engine's pre-normalised ``(index, coords,
    features)`` tuples (features, if any, are ignored — the serving
    backbones derive features from geometry).  Returns per-cloud
    ``(outputs, partition_sources, num_blocks)`` aligned with ``items``,
    where each output is bit-identical to ``model.forward`` on that
    cloud alone with the same partitioner.
    """
    with forward_only():
        return _forward(name, get_model(name), items, cache, agg)


def _forward(
    name: str,
    model: Module,
    items: list[tuple[int, np.ndarray, np.ndarray | None]],
    cache: "PartitionCache",
    agg: str,
) -> tuple[list[np.ndarray], list[str], list[int]]:
    level0 = _Level(
        cache,
        [np.ascontiguousarray(coords, dtype=np.float64) for _, coords, _ in items],
    )
    sources = list(level0.sources)
    num_blocks = [s.num_blocks for s in level0.structures]

    if isinstance(model, PNNClassifierMSG):
        s1, c1, f1 = _sa_msg(model.sa1, level0, None, agg, "model.sa1")
        level1 = _next_level(cache, level0, s1, c1)
        s2, c2, f2 = _sa_msg(model.sa2, level1, f1, agg, "model.sa2")
        level2 = _next_level(cache, level1, s2, c2)
        return _global_and_head(model, level2, f2), sources, num_blocks

    if isinstance(model, PNNClassifier):
        if model.stem is not None:
            with _span("model.stem", points=len(level0.coords)):
                feats0 = model.stem.forward(level0.coords)
        else:
            feats0 = None
        s1, c1, f1 = _sa(model.sa1, level0, feats0, agg, "model.sa1")
        level1 = _next_level(cache, level0, s1, c1)
        s2, c2, f2 = _sa(model.sa2, level1, f1, agg, "model.sa2")
        level2 = _next_level(cache, level1, s2, c2)
        return _global_and_head(model, level2, f2), sources, num_blocks

    if isinstance(model, PNNSegmenter):
        if model.stem is not None:
            with _span("model.stem", points=len(level0.coords)):
                feats0 = model.stem.forward(level0.coords)
        else:
            feats0 = None
        s1, c1, f1 = _sa(model.sa1, level0, feats0, agg, "model.sa1")
        level1 = _next_level(cache, level0, s1, c1)
        s2, c2, f2 = _sa(model.sa2, level1, f1, agg, "model.sa2")
        p1 = _fp(model.fp2, level1, s2, f2, f1, "model.fp2")
        p0 = _fp(model.fp1, level0, s1, p1, feats0, "model.fp1")
        with _span("model.head", points=len(p0)):
            logits = model.head.forward(p0)
        return (
            [logits[lo:hi] for lo, hi in level0.slices()],
            sources,
            num_blocks,
        )

    raise TypeError(
        f"model {name!r} has unsupported type {type(model).__name__} "
        "for fused execution"
    )
