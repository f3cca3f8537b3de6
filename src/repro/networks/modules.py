"""PNN building blocks: set abstraction and feature propagation.

These implement the two computational pathways of Fig. 2(d) with manual
backprop.  Point operations (sampling / grouping / interpolation) go
through an injected :class:`~repro.networks.backends.PointOpsBackend`;
their index outputs are treated as constants of the backward pass (the
standard straight-through treatment — neighbour selection is not
differentiable), while feature gradients flow through gathers,
interpolation weights, MLPs, and pooling.

Set abstraction is structured Mesorasi-style: the shared MLP consumes
one row per *point* (absolute xyz ++ features — the delayed-aggregation
form, where per-point results are independent of which neighbourhoods a
point lands in), and aggregation happens on the ball-query indices.
:meth:`SAStage.compute` exposes both evaluation orders — ``eager``
gathers the input rows and runs the MLP over ``(m, k, c)``, ``delayed``
runs the MLP once over ``(n, c)`` and gathers the output rows — and the
two are bit-identical (the Dense row-stability contract), so the
``REPRO_AGG`` / ``agg=`` dispatch axis of :mod:`repro.core.dispatch`
only moves work between the GEMM and the gather.  The split between
``forward`` (sample + group via the backend, then compute) and
``compute`` (index-parameterised math) is what lets the fused serving
engine drive the same stage objects with fused cross-cloud indices.
"""

from __future__ import annotations

import numpy as np

from ..core import dispatch
from .backends import PointOpsBackend
from .layers import (
    Dense,
    Module,
    ReLU,
    SharedMLP,
    forward_only_active,
    max_pool,
    max_pool_backward,
)

__all__ = ["SAStage", "GlobalSA", "FPStage", "InvResBlock"]


class InvResBlock(Module):
    """Inverted-residual pointwise block (PointNeXt's InvResMLP, simplified).

    ``y = relu(x + W2 relu(W1 x))`` with an expansion factor of 2.
    """

    def __init__(self, channels: int, rng: np.random.Generator, expansion: int = 2):
        hidden = channels * expansion
        self.fc1 = Dense(channels, hidden, rng)
        self.act1 = ReLU()
        self.fc2 = Dense(hidden, channels, rng)
        self.act2 = ReLU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.fc2.forward(self.act1.forward(self.fc1.forward(x)))
        return self.act2.forward(x + h)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = self.act2.backward(grad)
        grad_h = self.fc1.backward(self.act1.backward(self.fc2.backward(grad)))
        return grad + grad_h


class SAStage(Module):
    """Set-abstraction stage: sample → group → MLP ⇄ aggregate.

    Args:
        n_out: number of sampled centres this stage keeps.
        radius: ball-query radius.
        k: group size.
        in_channels: input feature channels (0 when only coordinates).
        mlp_widths: hidden/output widths of the shared MLP (applied to
            ``3 + in_channels`` inputs: absolute xyz ++ features — the
            per-point form delayed aggregation requires; networks
            retrain from scratch under either order, exactly as
            Mesorasi retrains its restructured backbones).
        pooling: ``max`` (PointNet++/PointNeXt) or ``maxmean``
            (PointVector-style vector aggregation).
        post_blocks: number of InvResBlocks after pooling (PointNeXt).
    """

    def __init__(
        self,
        n_out: int,
        radius: float,
        k: int,
        in_channels: int,
        mlp_widths: list[int],
        rng: np.random.Generator,
        pooling: str = "max",
        post_blocks: int = 0,
    ):
        if pooling not in ("max", "maxmean"):
            raise ValueError(f"pooling must be 'max' or 'maxmean', got {pooling!r}")
        self.n_out = n_out
        self.radius = radius
        self.k = k
        self.in_channels = in_channels
        self.pooling = pooling
        self.mlp = SharedMLP([3 + in_channels] + list(mlp_widths), rng)
        self.out_channels = mlp_widths[-1]
        if pooling == "maxmean":
            self.fuse = Dense(2 * self.out_channels, self.out_channels, rng)
            self.fuse_act = ReLU()
        self.post = [InvResBlock(self.out_channels, rng) for _ in range(post_blocks)]
        self._ctx: dict | None = None

    def forward(
        self,
        coords: np.ndarray,
        feats: np.ndarray | None,
        backend: PointOpsBackend,
        agg: str = "auto",
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns ``(center_coords, out_feats, center_indices)``."""
        n = len(coords)
        n_out = min(self.n_out, n)
        centers = backend.sample(coords, n_out)
        neighbors = backend.group(coords, centers, self.radius, self.k)
        out = self.compute(coords, feats, neighbors, agg=agg)
        return coords[centers], out, centers

    def compute(
        self,
        coords: np.ndarray,
        feats: np.ndarray | None,
        neighbors: np.ndarray,
        agg: str = "auto",
    ) -> np.ndarray:
        """MLP + aggregation over precomputed ball-query indices.

        ``neighbors`` may index into any point set ``coords``/``feats``
        describe — including a fused multi-cloud concatenation — since
        every row of the MLP depends on its point alone.  ``agg`` picks
        the evaluation order (see :func:`repro.core.dispatch.
        resolve_agg`); both orders are bit-identical.
        """
        x = coords if feats is None else np.concatenate([coords, feats], axis=1)
        mode = dispatch.resolve_agg(
            agg,
            num_points=len(x),
            num_centers=len(neighbors),
            k=neighbors.shape[1] if neighbors.ndim == 2 else 1,
            mlp_widths=self.mlp.widths,
        )
        if mode == "delayed":
            h_all = self.mlp.forward(x)
            h = h_all[neighbors]
        else:
            h = self.mlp.forward(x[neighbors])

        pooled_max = max_pool(h, axis=1)
        if self.pooling == "maxmean":
            pooled_mean = h.mean(axis=1)
            fused = self.fuse_act.forward(
                self.fuse.forward(np.concatenate([pooled_max, pooled_mean], axis=1))
            )
            out = fused
        else:
            out = pooled_max
        for block in self.post:
            out = block.forward(out)

        self._ctx = None if forward_only_active() else {
            "n": len(x),
            "mode": mode,
            "neighbors": neighbors,
            "arg": np.argmax(h, axis=1),
            "h_shape": h.shape,
            "has_feats": feats is not None,
        }
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        """Backprop to the *input features*; returns None when stage had none."""
        ctx = self._ctx
        if ctx is None:
            raise RuntimeError("backward called before forward")
        for block in reversed(self.post):
            grad_out = block.backward(grad_out)
        if self.pooling == "maxmean":
            grad_out = self.fuse.backward(self.fuse_act.backward(grad_out))
            c = self.out_channels
            grad_max, grad_mean = grad_out[:, :c], grad_out[:, c:]
            grad_h = max_pool_backward(grad_max, ctx["arg"], ctx["h_shape"], axis=1)
            grad_h += grad_mean[:, None, :] / ctx["h_shape"][1]
        else:
            grad_h = max_pool_backward(grad_out, ctx["arg"], ctx["h_shape"], axis=1)

        if ctx["mode"] == "delayed":
            # Scatter the gathered-row gradients back to the per-point MLP
            # output, then one MLP backward over the (n, c) pass.
            grad_h_all = np.zeros(
                (ctx["n"], ctx["h_shape"][-1]), dtype=grad_h.dtype
            )
            np.add.at(grad_h_all, ctx["neighbors"], grad_h)
            grad_x = self.mlp.backward(grad_h_all)
            if not ctx["has_feats"]:
                return None
            return grad_x[:, 3:]
        grad_grouped = self.mlp.backward(grad_h)
        if not ctx["has_feats"]:
            return None
        grad_feat_part = grad_grouped[:, :, 3:]
        grad_feats = np.zeros((ctx["n"], self.in_channels))
        np.add.at(grad_feats, ctx["neighbors"], grad_feat_part)
        return grad_feats


class GlobalSA(Module):
    """Final whole-cloud abstraction for classification heads.

    Applies a shared MLP to every point (coords ++ features) and
    max-pools over the full cloud into one global descriptor.
    """

    def __init__(self, in_channels: int, mlp_widths: list[int], rng: np.random.Generator):
        self.mlp = SharedMLP([3 + in_channels] + list(mlp_widths), rng)
        self.in_channels = in_channels
        self.out_channels = mlp_widths[-1]
        self._ctx: dict | None = None

    def forward(self, coords: np.ndarray, feats: np.ndarray) -> np.ndarray:
        x = np.concatenate([coords, feats], axis=1)
        h = self.mlp.forward(x)
        self._ctx = None if forward_only_active() else {
            "arg": np.argmax(h, axis=0), "h_shape": h.shape
        }
        return max_pool(h, axis=0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        ctx = self._ctx
        if ctx is None:
            raise RuntimeError("backward called before forward")
        grad_h = max_pool_backward(grad_out, ctx["arg"], ctx["h_shape"], axis=0)
        grad_x = self.mlp.backward(grad_h)
        return grad_x[:, 3:]  # drop the coords part


class FPStage(Module):
    """Feature propagation: interpolate sparse features onto dense points.

    Implements the propagation pathway of Fig. 2(d): 3-NN inverse-distance
    interpolation of the sparser level's features, concatenated with the
    denser level's skip features, then a pointwise MLP.
    """

    def __init__(
        self,
        sparse_channels: int,
        skip_channels: int,
        mlp_widths: list[int],
        rng: np.random.Generator,
        k: int = 3,
    ):
        self.k = k
        self.sparse_channels = sparse_channels
        self.skip_channels = skip_channels
        self.mlp = SharedMLP([sparse_channels + skip_channels] + list(mlp_widths), rng)
        self.out_channels = mlp_widths[-1]
        self._ctx: dict | None = None

    def forward(
        self,
        dense_coords: np.ndarray,
        skip_feats: np.ndarray | None,
        sparse_indices: np.ndarray,
        sparse_feats: np.ndarray,
        backend: PointOpsBackend,
    ) -> np.ndarray:
        """``sparse_indices`` are ids *into dense_coords* (FPS subset)."""
        m = len(dense_coords)
        all_dense = np.arange(m)
        idx, weights = backend.interpolate_indices(
            dense_coords, all_dense, np.asarray(sparse_indices, dtype=np.int64), self.k
        )
        # Map global point ids back to rows of sparse_feats.
        row_of = np.full(m, -1, dtype=np.int64)
        row_of[np.asarray(sparse_indices, dtype=np.int64)] = np.arange(len(sparse_indices))
        rows = row_of[idx]
        interp = np.einsum("mk,mkc->mc", weights, sparse_feats[rows])

        if skip_feats is not None:
            x = np.concatenate([interp, skip_feats], axis=1)
        else:
            x = interp
        out = self.mlp.forward(x)
        self._ctx = None if forward_only_active() else {
            "rows": rows,
            "weights": weights,
            "n_sparse": len(sparse_indices),
            "has_skip": skip_feats is not None,
        }
        return out

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Returns ``(grad_sparse_feats, grad_skip_feats)``."""
        ctx = self._ctx
        if ctx is None:
            raise RuntimeError("backward called before forward")
        grad_x = self.mlp.backward(grad_out)
        grad_interp = grad_x[:, : self.sparse_channels]
        grad_skip = grad_x[:, self.sparse_channels:] if ctx["has_skip"] else None
        grad_sparse = np.zeros((ctx["n_sparse"], self.sparse_channels))
        np.add.at(
            grad_sparse,
            ctx["rows"],
            ctx["weights"][:, :, None] * grad_interp[:, None, :],
        )
        return grad_sparse, grad_skip
