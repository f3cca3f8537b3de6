"""Tests for the exact (global-search) point operations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from repro.geometry import (
    ball_query,
    farthest_point_sample,
    gather_features,
    interpolate_features,
    interpolation_weights,
    knn_search,
    pairwise_sq_dists,
)
from repro.geometry.ops import _knn_from_dists


class TestPairwiseDists:
    def test_matches_naive(self, rng):
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(9, 3))
        d2 = pairwise_sq_dists(a, b)
        naive = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(d2, naive)

    def test_never_negative(self, rng):
        a = rng.normal(size=(50, 3)) * 1e-4
        assert (pairwise_sq_dists(a, a) >= 0).all()

    def test_self_diagonal_zero(self, rng):
        a = rng.normal(size=(20, 3))
        assert np.allclose(np.diag(pairwise_sq_dists(a, a)), 0.0, atol=1e-9)


class TestFPS:
    def test_first_is_start_index(self, gaussian_cloud):
        idx = farthest_point_sample(gaussian_cloud, 10, start_index=42)
        assert idx[0] == 42

    def test_indices_unique(self, gaussian_cloud):
        idx = farthest_point_sample(gaussian_cloud, 200)
        assert len(set(idx.tolist())) == 200

    def test_matches_naive_greedy(self, rng):
        pts = rng.normal(size=(60, 3))
        idx = farthest_point_sample(pts, 12)
        # Naive reference: recompute greedily from scratch.
        chosen = [0]
        for _ in range(11):
            d2 = pairwise_sq_dists(pts, pts[chosen]).min(axis=1)
            chosen.append(int(np.argmax(d2)))
        assert idx.tolist() == chosen

    def test_greedy_selection_maximises_min_distance(self, rng):
        pts = rng.normal(size=(100, 3))
        idx = farthest_point_sample(pts, 20)
        # Each newly selected point is at least as far from the previous
        # selection as any other candidate was.
        for i in range(1, 20):
            sampled = pts[idx[:i]]
            d2_all = pairwise_sq_dists(pts, sampled).min(axis=1)
            assert d2_all[idx[i]] == pytest.approx(d2_all.max())

    def test_full_sample_covers_everything(self, rng):
        pts = rng.normal(size=(16, 3))
        idx = farthest_point_sample(pts, 16)
        assert sorted(idx.tolist()) == list(range(16))

    def test_bounds_checked(self, gaussian_cloud):
        with pytest.raises(ValueError, match="num_samples"):
            farthest_point_sample(gaussian_cloud, 0)
        with pytest.raises(ValueError, match="num_samples"):
            farthest_point_sample(gaussian_cloud, len(gaussian_cloud) + 1)
        with pytest.raises(ValueError, match="start_index"):
            farthest_point_sample(gaussian_cloud, 5, start_index=-1)


class TestBallQuery:
    def test_all_within_radius_or_fallback(self, rng):
        centers = rng.normal(size=(20, 3))
        cands = rng.normal(size=(200, 3))
        r = 0.8
        out = ball_query(centers, cands, r, 8)
        d2 = pairwise_sq_dists(centers, cands)
        for i in range(20):
            hits = np.nonzero(d2[i] <= r * r)[0]
            if len(hits):
                assert set(out[i]) <= set(hits.tolist())
            else:
                assert (out[i] == np.argmin(d2[i])).all()

    def test_padding_repeats_first_hit(self, rng):
        centers = np.zeros((1, 3))
        cands = np.array([[0.1, 0, 0], [5, 5, 5], [6, 6, 6]])
        out = ball_query(centers, cands, 0.5, 4)
        assert (out[0] == 0).all()

    def test_exact_shape(self, rng):
        out = ball_query(rng.normal(size=(5, 3)), rng.normal(size=(50, 3)), 1.0, 16)
        assert out.shape == (5, 16)

    def test_candidate_order_respected(self):
        centers = np.zeros((1, 3))
        cands = np.array([[0.3, 0, 0], [0.1, 0, 0], [0.2, 0, 0]])
        out = ball_query(centers, cands, 1.0, 2)
        assert out[0].tolist() == [0, 1]  # candidate order, not distance order

    def test_invalid_args(self, rng):
        pts = rng.normal(size=(4, 3))
        with pytest.raises(ValueError, match="radius"):
            ball_query(pts, pts, -1.0, 4)
        with pytest.raises(ValueError, match="num"):
            ball_query(pts, pts, 1.0, 0)


class TestKNN:
    def test_matches_scipy(self, rng):
        centers = rng.normal(size=(30, 3))
        cands = rng.normal(size=(300, 3))
        ours = knn_search(centers, cands, 5)
        _, scipy_idx = cKDTree(cands).query(centers, k=5)
        d2 = pairwise_sq_dists(centers, cands)
        ours_d = np.take_along_axis(d2, ours, axis=1)
        scipy_d = np.take_along_axis(d2, scipy_idx, axis=1)
        assert np.allclose(ours_d, scipy_d)

    def test_sorted_nearest_first(self, rng):
        centers = rng.normal(size=(10, 3))
        cands = rng.normal(size=(100, 3))
        idx = knn_search(centers, cands, 7)
        d2 = pairwise_sq_dists(centers, cands)
        picked = np.take_along_axis(d2, idx, axis=1)
        assert (np.diff(picked, axis=1) >= -1e-12).all()

    def test_self_query_returns_self_first(self, rng):
        pts = rng.normal(size=(50, 3))
        idx = knn_search(pts, pts, 3)
        assert (idx[:, 0] == np.arange(50)).all()

    def test_needs_enough_candidates(self, rng):
        with pytest.raises(ValueError, match="candidates"):
            knn_search(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), 3)

    def test_boundary_ties_break_by_index(self, rng):
        """Equidistant candidates at the k-th position: the lower index
        wins, matching a stable (distance, index) sort — on both the
        small-row argsort path and the large-row partition path."""
        for n in (40, 400):  # straddles the argsort/partition crossover
            base = rng.normal(size=(n, 3))
            cands = base[rng.integers(0, n // 4, size=n)]  # heavy duplicates
            centers = rng.normal(size=(6, 3))
            from repro.geometry.ops import pairwise_sq_dists as psd
            d2 = psd(centers, cands)
            reference = np.argsort(d2, axis=1, kind="stable")[:, :5]
            assert np.array_equal(knn_search(centers, cands, 5), reference)


def _topk_oracle(d2: np.ndarray, k: int) -> np.ndarray:
    """Top-k by (distance, index), spelled out as a two-key sort."""
    index = np.broadcast_to(np.arange(d2.shape[1]), d2.shape)
    return np.lexsort((index, d2), axis=1)[:, :k]


class TestTopK:
    """``_knn_from_dists`` is the one top-k rule every KNN path shares."""

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 9),
        n=st.one_of(st.integers(1, 70), st.integers(257, 300)),
        k=st.sampled_from((1, 3, 16, None)),  # None: k == n
        levels=st.integers(1, 6),
        pad=st.integers(0, 3),
        seed=st.integers(0, 10_000),
    )
    def test_matches_lexsort_oracle(self, m, n, k, levels, pad, seed):
        """Ties, duplicated candidates, ``k == n`` and ``inf`` padding:
        whichever algorithm runs, the answer is the (distance, index)
        order — and the caller's matrix comes back untouched."""
        rng = np.random.default_rng(seed)
        k = n if k is None else min(k, n)
        # A handful of distinct distances: heavy ties at every rank.
        d2 = rng.integers(0, levels, size=(m, n)).astype(np.float64)
        if pad:  # ragged rows: a different inf-padded tail per row
            real = rng.integers(max(1, n - pad * n // 4), n + 1, size=m)
            d2[np.arange(n)[None, :] >= real[:, None]] = np.inf
        before = d2.copy()
        got = _knn_from_dists(d2, k)
        assert got.dtype == np.int64
        assert np.array_equal(got, _topk_oracle(before, k))
        assert np.array_equal(d2, before)

    def test_non_finite_rows_match_the_sort(self, rng):
        """``inf`` reaching into the top k (padding wider than the real
        row, real ``inf`` distances, all-``inf`` rows) and NaN rows fall
        back to the sort path row by row; finite neighbours in the same
        matrix keep the pass answer, which is the same answer."""
        d2 = rng.random((12, 40))
        d2[0, 2:] = np.inf           # fewer finite entries than k
        d2[1, :] = np.inf            # nothing finite at all
        d2[2, 5] = np.nan            # one NaN
        d2[3, :3] = np.nan           # NaNs in the leading columns
        d2[4, 10:] = np.inf          # inf tail, top k still finite
        d2[5, ::2] = np.inf          # interleaved inf
        d2[6, :] = 1.0               # one giant tie
        d2[7, 7] = -np.inf           # a legitimate minimum
        for k in (1, 3, 5):
            before = d2.copy()
            reference = np.argsort(before, axis=1, kind="stable")[:, :k]
            assert np.array_equal(_knn_from_dists(d2, k), reference)
            assert np.array_equal(d2, before, equal_nan=True)

    def test_non_finite_cloud_through_knn_search(self, rng):
        """`_as_cloud` still admits non-finite clouds: the public search
        must answer them exactly as the sort did."""
        cands = rng.normal(size=(60, 3))
        cands[7] = np.inf
        cands[11, 1] = np.nan
        centers = rng.normal(size=(9, 3))
        centers[4, 0] = np.inf
        with np.errstate(invalid="ignore"):
            d2 = pairwise_sq_dists(centers, cands)
            got = knn_search(centers, cands, 3)
        assert np.array_equal(got, np.argsort(d2, axis=1, kind="stable")[:, :3])

    def test_read_only_input_is_not_written(self, rng):
        d2 = rng.random((5, 32))
        d2.setflags(write=False)
        assert np.array_equal(_knn_from_dists(d2, 3), _topk_oracle(d2, 3))


class TestInterpolation:
    def test_weights_are_simplex(self, rng):
        idx, w = interpolation_weights(rng.normal(size=(40, 3)), rng.normal(size=(20, 3)))
        assert idx.shape == w.shape == (40, 3)
        assert np.allclose(w.sum(axis=1), 1.0)
        assert (w >= 0).all()

    def test_exact_at_candidate_positions(self, rng):
        cands = rng.normal(size=(30, 3))
        feats = rng.normal(size=(30, 8))
        out = interpolate_features(cands[:5], cands, feats)
        assert np.allclose(out, feats[:5], atol=1e-4)

    def test_interpolation_within_convex_hull_of_neighbors(self, rng):
        centers = rng.normal(size=(25, 3))
        cands = rng.normal(size=(40, 3))
        feats = rng.normal(size=(40, 4))
        out = interpolate_features(centers, cands, feats)
        idx, w = interpolation_weights(centers, cands)
        lo = feats[idx].min(axis=1)
        hi = feats[idx].max(axis=1)
        assert (out >= lo - 1e-9).all() and (out <= hi + 1e-9).all()

    def test_feature_row_alignment_checked(self, rng):
        with pytest.raises(ValueError, match="candidate_features"):
            interpolate_features(
                rng.normal(size=(5, 3)), rng.normal(size=(10, 3)), rng.normal(size=(9, 4))
            )


class TestGather:
    def test_matches_fancy_indexing(self, rng):
        feats = rng.normal(size=(50, 6))
        idx = rng.integers(0, 50, size=(7, 4))
        assert np.array_equal(gather_features(feats, idx), feats[idx])

    def test_rejects_non_integer(self, rng):
        with pytest.raises(ValueError, match="integers"):
            gather_features(rng.normal(size=(5, 2)), np.zeros((2, 2)))

    def test_rejects_out_of_range(self, rng):
        feats = rng.normal(size=(5, 2))
        with pytest.raises(IndexError):
            gather_features(feats, np.array([[0, 5]]))


class TestOpsProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(10, 80), st.integers(1, 10), st.integers(0, 1000))
    def test_fps_coverage_decreases_with_more_samples(self, n, s, seed):
        pts = np.random.default_rng(seed).normal(size=(n, 3))
        idx_small = farthest_point_sample(pts, s)
        idx_big = farthest_point_sample(pts, min(2 * s, n))
        def coverage(sel):
            return pairwise_sq_dists(pts, pts[sel]).min(axis=1).max()
        assert coverage(idx_big) <= coverage(idx_small) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(5, 40), st.integers(1, 5), st.integers(0, 1000))
    def test_knn_picks_globally_nearest(self, n, k, seed):
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(4, 3))
        cands = rng.normal(size=(n + k, 3))
        idx = knn_search(centers, cands, k)
        d2 = pairwise_sq_dists(centers, cands)
        for i in range(4):
            kth = np.sort(d2[i])[k - 1]
            assert (d2[i][idx[i]] <= kth + 1e-12).all()
