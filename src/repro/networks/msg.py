"""Multi-scale grouping (MSG) set abstraction.

PointNet++'s MSG variant groups each sampled centre at several radii and
concatenates the per-scale pooled features — more robust to non-uniform
density (the original paper's motivation, and exactly the regime the
FractalCloud workloads live in).  Included as the optional-extension
backbone: one extra neighbour search per scale, which BPPO parallelises
the same way (the block search-space rule is radius-agnostic as long as
radii stay within the parent extent).
"""

from __future__ import annotations

import numpy as np

from .backends import PointOpsBackend
from .layers import Module, forward_only_active
from .modules import SAStage

__all__ = ["SAStageMSG"]


class SAStageMSG(Module):
    """Set abstraction with multi-scale grouping.

    Args:
        n_out: sampled centres.
        scales: list of ``(radius, k)`` pairs, one neighbour search each.
        in_channels: input feature channels.
        mlp_widths: per-scale shared-MLP widths (same widths every scale).
        rng: init RNG.

    Output channels = ``len(scales) * mlp_widths[-1]``.
    """

    def __init__(
        self,
        n_out: int,
        scales: list[tuple[float, int]],
        in_channels: int,
        mlp_widths: list[int],
        rng: np.random.Generator,
    ):
        if not scales:
            raise ValueError("need at least one (radius, k) scale")
        self.n_out = n_out
        self.scales = list(scales)
        # One single-scale SA stage per radius; sampling is shared, so the
        # per-scale stages only perform group -> gather -> MLP -> pool.
        self.stages = [
            SAStage(
                n_out=n_out, radius=r, k=k, in_channels=in_channels,
                mlp_widths=list(mlp_widths), rng=rng,
            )
            for r, k in scales
        ]
        self.out_channels = len(scales) * mlp_widths[-1]
        self._ctx: dict | None = None

    def forward(
        self,
        coords: np.ndarray,
        feats: np.ndarray | None,
        backend: PointOpsBackend,
        agg: str = "auto",
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns ``(center_coords, out_feats, center_indices)``."""
        n_out = min(self.n_out, len(coords))
        centers = backend.sample(coords, n_out)
        out = self.compute(coords, feats, backend, centers, agg=agg)
        self._ctx = None if forward_only_active() else {"n_scales": len(self.stages)}
        return coords[centers], out, centers

    def compute(
        self,
        coords: np.ndarray,
        feats: np.ndarray | None,
        backend: PointOpsBackend,
        centers: np.ndarray,
        agg: str = "auto",
    ) -> np.ndarray:
        """Per-scale group + MLP/aggregate over precomputed centres."""
        outputs = []
        for (radius, k), stage in zip(self.scales, self.stages):
            neighbors = backend.group(coords, centers, radius, k)
            outputs.append(stage.compute(coords, feats, neighbors, agg=agg))
        return np.concatenate(outputs, axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        if self._ctx is None:
            raise RuntimeError("backward called before forward")
        width = grad_out.shape[1] // self._ctx["n_scales"]
        total = None
        for i, stage in enumerate(self.stages):
            grad = stage.backward(grad_out[:, i * width:(i + 1) * width])
            if grad is not None:
                total = grad if total is None else total + grad
        return total


class _FixedSampleBackend(PointOpsBackend):
    """Wraps a backend but returns a predetermined sample set.

    Lets the MSG scales share one FPS result, as the real network does.
    """

    name = "fixed-sample"

    def __init__(self, inner: PointOpsBackend, centers: np.ndarray):
        self._inner = inner
        self._centers = np.asarray(centers, dtype=np.int64)

    def sample(self, coords: np.ndarray, num_samples: int) -> np.ndarray:
        if num_samples > len(self._centers):
            # Silently returning the short slice would hand the caller
            # fewer centres than it asked for and skew every per-scale
            # output shape downstream.
            raise ValueError(
                f"fixed sample set holds {len(self._centers)} centres, "
                f"cannot satisfy num_samples={num_samples}"
            )
        return self._centers[:num_samples]

    def group(self, coords, center_indices, radius, k):
        return self._inner.group(coords, center_indices, radius, k)

    def interpolate_indices(self, coords, center_indices, candidate_indices, k=3):
        return self._inner.interpolate_indices(
            coords, center_indices, candidate_indices, k
        )
