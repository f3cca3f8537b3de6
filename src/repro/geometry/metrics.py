"""Quality metrics for approximate point operations.

The accuracy experiments (paper Fig. 3, Fig. 14, Fig. 17) hinge on how much
a partition-restricted point operation deviates from its global-search
reference.  These metrics quantify that deviation directly:

- :func:`neighbor_recall` — fraction of true neighbours a block-wise search
  recovers (drives grouping-quality degradation).
- :func:`coverage_radius` — how well a sampled subset covers the cloud
  (drives sampling-quality degradation; exact FPS minimises this greedily).
- :func:`sampling_distortion` — ratio of block-wise to exact coverage.
- :func:`chamfer_distance` — symmetric set-to-set distance.
"""

from __future__ import annotations

import numpy as np

from .ops import pairwise_sq_dists

__all__ = [
    "neighbor_recall",
    "coverage_radius",
    "sampling_distortion",
    "chamfer_distance",
    "block_balance_factor",
]


def neighbor_recall(approx_indices: np.ndarray, exact_indices: np.ndarray) -> float:
    """Mean per-centre overlap between approximate and exact neighbour sets.

    Both arguments are ``(m, k)`` index arrays *into the same candidate
    set*.  Padding duplicates (ball-query semantics) are collapsed before
    comparison, so recall is measured over distinct neighbours.
    """
    approx_indices = np.asarray(approx_indices)
    exact_indices = np.asarray(exact_indices)
    if approx_indices.shape[0] != exact_indices.shape[0]:
        raise ValueError(
            f"row counts differ: {approx_indices.shape[0]} vs {exact_indices.shape[0]}"
        )
    if approx_indices.shape[0] == 0:
        return 1.0
    recalls = np.empty(approx_indices.shape[0])
    for i in range(approx_indices.shape[0]):
        exact = set(exact_indices[i].tolist())
        approx = set(approx_indices[i].tolist())
        recalls[i] = len(exact & approx) / max(len(exact), 1)
    return float(recalls.mean())


def coverage_radius(coords: np.ndarray, sampled_indices: np.ndarray) -> float:
    """Max distance from any point to its nearest sampled point.

    Exact FPS greedily minimises this quantity; a good approximate sampler
    should stay close to the exact value (ratio near 1).
    """
    coords = np.asarray(coords, dtype=np.float64)
    sampled = coords[np.asarray(sampled_indices)]
    d2 = pairwise_sq_dists(coords, sampled)
    return float(np.sqrt(d2.min(axis=1).max()))


def sampling_distortion(
    coords: np.ndarray,
    approx_indices: np.ndarray,
    exact_indices: np.ndarray,
) -> float:
    """Coverage ratio of an approximate sampler vs exact FPS (>= ~1.0).

    1.0 means the approximate sample covers the cloud exactly as well as
    the reference; 1.3 means its worst-covered point is 30 % farther from
    the sample.
    """
    exact = coverage_radius(coords, exact_indices)
    approx = coverage_radius(coords, approx_indices)
    if exact == 0.0:
        return 1.0
    return float(approx / exact)


def chamfer_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Chamfer distance between point sets ``a`` (m,3), ``b`` (n,3)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d2 = pairwise_sq_dists(a, b)
    return float(np.sqrt(d2.min(axis=1)).mean() + np.sqrt(d2.min(axis=0)).mean())


def block_balance_factor(block_sizes: np.ndarray) -> float:
    """Max block size over mean block size (1.0 = strictly balanced).

    The paper's latency model is dominated by the largest block (§VI-D
    "Imbalance effect"), so this is the figure of merit for partition
    balance.
    """
    sizes = np.asarray(block_sizes, dtype=np.float64)
    if len(sizes) == 0:
        raise ValueError("no blocks")
    if np.any(sizes <= 0):
        raise ValueError("block sizes must be positive")
    return float(sizes.max() / sizes.mean())
