"""Tests for the point-operation backends."""

import numpy as np
import pytest

from repro.geometry import farthest_point_sample, neighbor_recall
from repro.networks import BlockBackend, ExactBackend, make_backend
from repro.partition import FractalPartitioner


class TestExactBackend:
    def test_sample_is_reference_fps(self, gaussian_cloud):
        backend = ExactBackend()
        assert np.array_equal(
            backend.sample(gaussian_cloud, 50),
            farthest_point_sample(gaussian_cloud, 50),
        )

    def test_group_returns_global_indices(self, gaussian_cloud):
        backend = ExactBackend()
        centers = backend.sample(gaussian_cloud, 20)
        nbrs = backend.group(gaussian_cloud, centers, 0.5, 8)
        assert nbrs.shape == (20, 8)
        assert nbrs.max() < len(gaussian_cloud)

    def test_interpolate_weights_simplex(self, gaussian_cloud, rng):
        backend = ExactBackend()
        cands = rng.choice(len(gaussian_cloud), size=100, replace=False)
        idx, w = backend.interpolate_indices(gaussian_cloud, np.arange(50), cands)
        assert np.allclose(w.sum(axis=1), 1.0)
        assert set(idx.ravel().tolist()) <= set(cands.tolist())


class TestBlockBackend:
    def test_partition_cache_reused(self, gaussian_cloud):
        backend = BlockBackend(FractalPartitioner(threshold=64))
        backend.sample(gaussian_cloud, 50)
        backend.group(gaussian_cloud, np.arange(10), 0.5, 4)
        assert len(backend._cache) == 1  # same coords → one partition

    def test_cache_eviction(self, rng):
        backend = BlockBackend(FractalPartitioner(threshold=32), cache_size=2)
        for _ in range(4):
            backend.sample(rng.normal(size=(200, 3)), 10)
        assert len(backend._cache) <= 2

    def test_sample_count_exact(self, gaussian_cloud):
        backend = make_backend("fractal", max_points_per_block=64)
        idx = backend.sample(gaussian_cloud, 123)
        assert len(idx) == 123
        assert len(set(idx.tolist())) == 123

    def test_block_group_recall_reasonable(self, scene_coords):
        exact = ExactBackend()
        block = make_backend("fractal", max_points_per_block=256)
        centers = exact.sample(scene_coords, 256)
        e = exact.group(scene_coords, centers, 0.2, 16)
        b = block.group(scene_coords, centers, 0.2, 16)
        assert neighbor_recall(b, e) > 0.7

    def test_uniform_sampling_distorts_more_than_fractal(self, scene_coords):
        """The accuracy-ordering mechanism of Fig. 14: block-wise FPS over
        imbalanced space-uniform cells covers the scene far worse than
        over fractal blocks (density-aligned quotas)."""
        from repro.geometry import coverage_radius

        exact = ExactBackend()
        n_s = len(scene_coords) // 4
        exact_cov = coverage_radius(scene_coords, exact.sample(scene_coords, n_s))
        ratios = {}
        for name in ["fractal", "uniform"]:
            backend = make_backend(name, max_points_per_block=256)
            idx = backend.sample(scene_coords, n_s)
            ratios[name] = coverage_radius(scene_coords, idx) / exact_cov
        assert ratios["fractal"] < 2.0
        assert ratios["uniform"] > 1.5 * ratios["fractal"]

    def test_session_memoises_per_structure_state(self, gaussian_cloud):
        """MSG regression: grouping the same centres over the same cloud
        (once per scale) used to re-normalise the coordinates on every
        call."""
        backend = BlockBackend(FractalPartitioner(threshold=64))
        centers = np.arange(20)
        backend.group(gaussian_cloud, centers, 0.3, 4)
        backend.group(gaussian_cloud, centers, 0.6, 8)  # second scale
        session = backend._session(gaussian_cloud)
        assert len(backend._sessions) == 1  # one structure, one session
        # Normalised coords memoise per input array.
        backend.interpolate_indices(gaussian_cloud, np.arange(5), centers)
        assert session.coords64(gaussian_cloud) is session.coords64(
            gaussian_cloud
        )

    def test_shared_cache_is_used_and_warmed(self, gaussian_cloud):
        """The engine hands its PartitionCache to model backends: the
        backend must partition through it, not through a private one."""
        from repro.runtime.cache import PartitionCache

        partitioner = FractalPartitioner(threshold=64)
        shared = PartitionCache(partitioner, maxsize=4)
        backend = BlockBackend(partitioner, cache=shared)
        backend.sample(gaussian_cloud, 30)
        assert len(shared) == 1  # warmed the caller's cache
        structure, hit = shared.get(gaussian_cloud)
        assert hit
        assert backend._structure(gaussian_cloud) is structure

    def test_make_backend_names(self):
        assert make_backend("exact").name == "exact"
        assert make_backend("fractal").name == "fractal"
        with pytest.raises(ValueError):
            make_backend("quadtree")
