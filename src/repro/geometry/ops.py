"""Exact (global-search) reference point operations.

These are the operations the paper identifies as the large-scale
bottleneck (§II-B): farthest point sampling, ball query, K-nearest
neighbours, interpolation, and gathering.  All run a *global* search over
the candidate set, i.e. they reproduce the O(n²) baseline behaviour of
PointAcc/Mesorasi-style execution.  The block-parallel variants live in
``repro.core.bppo`` and are validated against these references.

Conventions (matching PointNet++ semantics):

- Ball query returns exactly ``num`` indices per centre; when fewer than
  ``num`` points fall within the radius the first found index is repeated
  (the standard padding used by PointNet++ and its descendants).  When a
  centre has *no* neighbour within the radius, the nearest point overall is
  used so downstream gathers never see an invalid index.
- Interpolation is inverse-distance-weighted over the K=3 nearest sampled
  points, with an epsilon guard for coincident points.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pairwise_sq_dists",
    "farthest_point_sample",
    "ball_query",
    "knn_search",
    "idw_weights",
    "interpolate_features",
    "interpolation_weights",
    "gather_features",
]


#: Below this many distance entries the direct ``(a-b)**2`` form is used:
#: it skips the GEMM and, being purely elementwise, produces bit-identical
#: values no matter how the problem is sliced or concatenated — the
#: property the ragged block kernels build on.  Above it, the expanded
#: GEMM form is faster and memory-lean.  The raw speed crossover sits near
#: ~150 entries, but the boundary is deliberately at 512 so the entire
#: mid-size block regime (the ragged kernels' territory, see
#: :mod:`repro.core.ragged`) stays on the slice-invariant form: a ~4 µs/call
#: concession on 150–512-entry serial problems buys fusing whole
#: partitions into one elementwise pass.
_DIRECT_FORM_MAX = 512


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of ``a`` (m,3) and ``b`` (n,3).

    Returns an ``(m, n)`` float64 matrix.  Small problems (``m * n <=``
    :data:`_DIRECT_FORM_MAX`) use the direct difference form; large ones
    use the expanded form with a clamp at zero to avoid negative
    round-off.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) * len(b) <= _DIRECT_FORM_MAX:
        return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    d2 = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def farthest_point_sample(
    coords: np.ndarray,
    num_samples: int,
    *,
    start_index: int = 0,
) -> np.ndarray:
    """Exact farthest point sampling (FPS) over the full cloud.

    Iteratively selects the point farthest (in Euclidean distance) from the
    already-sampled set, starting from ``start_index``.  This is the
    O(n * num_samples) formulation with an incrementally maintained
    min-distance array — the same dataflow the PointAcc FPS engine
    implements in hardware.

    Args:
        coords: ``(n, 3)`` candidate coordinates.
        num_samples: number of points to select (1 <= num_samples <= n).
        start_index: deterministic seed point (papers typically random;
            a fixed index keeps experiments reproducible).

    Returns:
        ``(num_samples,)`` int64 indices into ``coords``, in selection order.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    if not 1 <= num_samples <= n:
        raise ValueError(
            f"num_samples must be in [1, {n}], got {num_samples}; callers that "
            f"derive per-block quotas should clamp the allocation "
            f"(allocate_samples(..., clamp=True)) so a tiny block is never "
            f"asked for more samples than it holds"
        )
    if not 0 <= start_index < n:
        raise ValueError(f"start_index must be in [0, {n}), got {start_index}")

    selected = np.empty(num_samples, dtype=np.int64)
    selected[0] = start_index
    # min squared distance from each point to the sampled set so far
    min_d2 = np.sum((coords - coords[start_index]) ** 2, axis=1)
    for i in range(1, num_samples):
        nxt = int(np.argmax(min_d2))
        selected[i] = nxt
        d2 = np.sum((coords - coords[nxt]) ** 2, axis=1)
        np.minimum(min_d2, d2, out=min_d2)
    return selected


def ball_query(
    centers: np.ndarray,
    candidates: np.ndarray,
    radius: float,
    num: int,
) -> np.ndarray:
    """Ball query: up to ``num`` candidate indices within ``radius`` of each centre.

    Follows PointNet++ semantics: indices are taken in candidate order, the
    first in-radius index pads any remaining slots, and a centre with no
    in-radius candidate falls back to its single nearest candidate.

    Args:
        centers: ``(m, 3)`` query centres.
        candidates: ``(n, 3)`` search space.
        radius: inclusion radius (Euclidean).
        num: group size (number of neighbour slots per centre).

    Returns:
        ``(m, num)`` int64 indices into ``candidates``.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if num < 1:
        raise ValueError(f"num must be >= 1, got {num}")
    centers = np.asarray(centers, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    d2 = pairwise_sq_dists(centers, candidates)
    return _select_ball_neighbors(d2, float(radius) ** 2, num)


def _select_ball_neighbors(d2: np.ndarray, r2: float, num: int) -> np.ndarray:
    """PointNet++ neighbour selection from a squared-distance matrix.

    ``d2`` is ``(m, n)``: rows (centres) are independent, columns index
    candidates.  In-radius candidates are taken in candidate order, the
    first hit pads short rows, and a hitless centre falls back to its
    nearest candidate.
    """
    n = d2.shape[1]
    hit_idx = np.where(d2 <= r2, np.arange(n, dtype=np.int64), n)
    hit_idx = np.sort(hit_idx, axis=1)[:, :num]
    if hit_idx.shape[1] < num:
        hit_idx = np.concatenate(
            [hit_idx, np.full((len(hit_idx), num - hit_idx.shape[1]), n,
                              dtype=np.int64)], axis=1
        )
    first = hit_idx[:, 0]
    no_hit = first == n
    if np.any(no_hit):
        first = np.where(no_hit, np.argmin(d2, axis=1), first)
    return np.where(hit_idx == n, first[:, None], hit_idx)


def knn_search(centers: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """Exact K-nearest-neighbour indices for each centre.

    Neighbours are ordered nearest-first; equal distances break by
    candidate index (the (distance, index) order of
    :func:`_knn_from_dists`), so the full result — including which of
    several equidistant boundary candidates makes the cut — is
    deterministic and independent of how the candidate row is
    partitioned.  That invariance is what lets the ragged block kernels
    pad candidate rows and still reproduce this reference bit-for-bit.

    Args:
        centers: ``(m, 3)`` query centres.
        candidates: ``(n, 3)`` search space with ``n >= k``.
        k: neighbour count.

    Returns:
        ``(m, k)`` int64 indices into ``candidates``.
    """
    centers = np.asarray(centers, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(candidates) < k:
        raise ValueError(f"need at least k={k} candidates, got {len(candidates)}")
    d2 = pairwise_sq_dists(centers, candidates)
    return _knn_from_dists(d2, k)


def _knn_from_dists(d2: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` columns of each row of ``d2`` by (distance, index).

    The one place the top-k rule lives: every KNN path (serial, ragged,
    fused) hands its distance rows to this function.  The
    (distance, index) lexicographic order defines the result uniquely,
    so each algorithm below returns identical bits.

    Small ``k`` takes ``k`` first-minimum passes: ``argmin`` returns the
    first column attaining the row minimum — exactly the (distance,
    index) order — and the winner is retired by overwriting it with
    ``inf``.  That is ``k·n`` comparisons a row against a sort's
    ``n·log2 n``, so the passes run while ``k <= log2 n``.  They retire
    in ``d2`` itself (the matrix is the largest array of a fused window;
    a working copy would double it) and put the retired values back
    before returning.  Retiring with ``inf`` is only sound while a pass
    never has to choose among ``inf`` entries, and ``argmin`` propagates
    NaN instead of ranking it last: a row whose ``k``-th pick is not
    finite (``inf`` padding or real ``inf`` distances reaching into the
    top ``k``) or that holds a NaN is recomputed by the sort, whose
    answer is the contract.

    Everything else sorts: small rows take one stable argsort; large
    rows use an O(mn + m·c log c) partition — select the k-th smallest
    distance, close the candidate set over boundary ties (every column
    at distance <= the k-th value competes — this is what a bare
    ``argpartition`` gets wrong), then stable-order just that closure.
    """
    m, n = d2.shape
    # The passes need 2**k <= n and a matrix they may retire columns in.
    if not (m and n >> k and d2.flags.writeable):
        return _knn_by_sort(d2, k)
    rows = np.arange(m)
    out = np.empty((m, k), dtype=np.int64)
    picked = np.empty((m, k), dtype=d2.dtype)
    for j in range(k):
        col = d2.argmin(axis=1)
        out[:, j] = col
        picked[:, j] = d2[rows, col]
        if j < k - 1:
            d2[rows, col] = np.inf
    # Un-retire, first pick last: a pass that ran out of finite entries
    # re-picks a retired column, and the value to restore is the earliest.
    for j in reversed(range(k - 1)):
        d2[rows, out[:, j]] = picked[:, j]
    # Sound rows: first pick not NaN, last pick below inf (NaN + x is NaN,
    # and NaN < inf is False; a -inf first pick is a legitimate minimum).
    sound = picked[:, 0] + picked[:, -1] < np.inf
    if not sound.all():
        out[~sound] = _knn_by_sort(d2[~sound], k)
    return out


def _knn_by_sort(d2: np.ndarray, k: int) -> np.ndarray:
    """Sort/partition form of :func:`_knn_from_dists`: any ``k``, and the
    reference answer for rows holding ``inf`` or NaN."""
    m, n = d2.shape
    if n <= 256 or 2 * k >= n:
        return np.argsort(d2, axis=1, kind="stable")[:, :k].astype(np.int64)
    rows = np.arange(m)[:, None]
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    kth = d2[rows, part].max(axis=1, keepdims=True)
    closure_size = int((d2 <= kth).sum(axis=1).max())
    if closure_size == k:
        # No boundary ties anywhere: the winner *set* is unique and
        # ``part`` already holds it — just put it in (distance, index)
        # order.  The common case for continuous coordinates.
        vals = d2[rows, part]
        order = np.lexsort((part, vals), axis=1)
        return np.take_along_axis(part, order, axis=1).astype(np.int64)
    if 2 * closure_size >= n:  # massive boundary tie: sorting wins
        return np.argsort(d2, axis=1, kind="stable")[:, :k].astype(np.int64)
    masked = np.where(d2 <= kth, d2, np.inf)
    closure = np.argpartition(masked, closure_size - 1, axis=1)[:, :closure_size]
    vals = masked[rows, closure]
    order = np.lexsort((closure, vals), axis=1)[:, :k]
    return np.take_along_axis(closure, order, axis=1).astype(np.int64)


def idw_weights(
    centers: np.ndarray,
    neighbors_xyz: np.ndarray,
    *,
    eps: float = 1e-8,
) -> np.ndarray:
    """Normalised inverse-squared-distance weights of known neighbours.

    The single shared weight computation of every interpolation path —
    the exact backend, the serial block ops, and the ragged kernels all
    call this, so identical neighbour indices always yield
    bit-identical weights.  Inputs are coerced to float64 (one dtype
    contract for every caller; mixed-precision inputs used to make the
    exact and block backends disagree in the last ulp).

    Args:
        centers: ``(m, 3)`` query points.
        neighbors_xyz: ``(m, k, 3)`` coordinates of each centre's
            neighbours.
        eps: guard against coincident points.

    Returns:
        ``(m, k)`` float64 weights; rows sum to one.
    """
    centers = np.asarray(centers, dtype=np.float64)
    neighbors_xyz = np.asarray(neighbors_xyz, dtype=np.float64)
    d2 = np.sum((centers[:, None, :] - neighbors_xyz) ** 2, axis=2)
    inv = 1.0 / np.maximum(d2, eps)
    return inv / inv.sum(axis=1, keepdims=True)


def interpolation_weights(
    centers: np.ndarray,
    candidates: np.ndarray,
    k: int = 3,
    *,
    eps: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-distance weights over the K nearest candidates of each centre.

    This is the weight computation used by PointNet++ feature propagation
    (paper Fig. 2(c)): ``w_j = (1/d_j) / sum_i (1/d_i)`` over the K nearest
    sampled points.

    Returns:
        ``(indices, weights)`` with shapes ``(m, k)``; weights rows sum to 1.
    """
    idx = knn_search(centers, candidates, k)
    candidates = np.asarray(candidates, dtype=np.float64)
    return idx, idw_weights(centers, candidates[idx], eps=eps)


def interpolate_features(
    centers: np.ndarray,
    candidates: np.ndarray,
    candidate_features: np.ndarray,
    k: int = 3,
) -> np.ndarray:
    """Interpolate candidate features onto centres (3-NN inverse distance).

    Args:
        centers: ``(m, 3)`` points to restore features for.
        candidates: ``(n, 3)`` sampled points that carry features.
        candidate_features: ``(n, c)`` features of the candidates.
        k: neighbour count (3 in all evaluated networks).

    Returns:
        ``(m, c)`` interpolated features (float64).
    """
    candidate_features = np.asarray(candidate_features, dtype=np.float64)
    if candidate_features.ndim != 2 or len(candidate_features) != len(candidates):
        raise ValueError(
            f"candidate_features must be (n, c) with n={len(candidates)}, "
            f"got {candidate_features.shape}"
        )
    idx, weights = interpolation_weights(centers, candidates, k)
    return np.einsum("mk,mkc->mc", weights, candidate_features[idx])


def gather_features(features: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Gather feature rows by neighbour indices.

    Functionally this is just fancy indexing — the paper's contribution is
    about *where the bytes live* (block-local banks vs global random
    access), which the hardware model accounts for separately.

    Args:
        features: ``(n, c)`` feature table.
        indices: ``(m, k)`` (or any integer-shaped) indices into the table.

    Returns:
        Array of shape ``indices.shape + (c,)``.
    """
    features = np.asarray(features)
    indices = np.asarray(indices)
    if not np.issubdtype(indices.dtype, np.integer):
        raise ValueError(f"indices must be integers, got dtype {indices.dtype}")
    if indices.size and (indices.min() < 0 or indices.max() >= len(features)):
        raise IndexError(
            f"indices out of range [0, {len(features)}): "
            f"[{indices.min()}, {indices.max()}]"
        )
    return features[indices]
