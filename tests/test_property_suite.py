"""Cross-module property-based tests (hypothesis).

End-to-end invariants that must hold for *any* input: fractal → BPPO →
metric chains, partitioner interchangeability, and simulator monotonicity
— the whole-system analogue of the per-module property tests.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import FractalConfig, fractal_partition
from repro.core.bppo import allocate_samples, block_ball_query, block_fps
from repro.core.layout import BlockLayout
from repro.geometry import farthest_point_sample, pairwise_sq_dists
from repro.runtime import BatchExecutor, PipelineSpec


def _cloud(seed: int, n: int, clustered: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if clustered:
        centers = rng.normal(scale=3.0, size=(4, 3))
        assignments = rng.integers(0, 4, size=n)
        return centers[assignments] + rng.normal(scale=0.3, size=(n, 3))
    return rng.normal(size=(n, 3))


class TestFractalChainProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(16, 600),
           st.integers(4, 64), st.booleans())
    def test_fps_chain_produces_valid_unique_samples(self, seed, n, th, clustered):
        coords = _cloud(seed, n, clustered)
        tree = fractal_partition(coords, FractalConfig(threshold=th))
        structure = tree.block_structure()
        s = max(1, n // 3)
        sampled, trace = block_fps(structure, coords, s)
        assert len(sampled) == s
        assert len(set(sampled.tolist())) == s
        assert sampled.min() >= 0 and sampled.max() < n
        assert trace.total_outputs == s

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(32, 400), st.integers(8, 64))
    def test_ball_query_chain_returns_indices_in_search_space(self, seed, n, th):
        coords = _cloud(seed, n, clustered=False)
        tree = fractal_partition(coords, FractalConfig(threshold=th))
        structure = tree.block_structure()
        centers, _ = block_fps(structure, coords, max(1, n // 4))
        neighbors, _ = block_ball_query(structure, coords, centers, 0.5, 8)
        owner = structure.block_of_point()
        spaces = [set(s.tolist()) for s in structure.search_spaces]
        for row, c in enumerate(centers):
            assert set(neighbors[row].tolist()) <= spaces[owner[c]]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(16, 500), st.integers(4, 128))
    def test_layout_roundtrip_any_cloud(self, seed, n, th):
        coords = _cloud(seed, n, clustered=True)
        tree = fractal_partition(coords, FractalConfig(threshold=th))
        layout = BlockLayout.from_tree(tree)
        stored = layout.reorder(coords)
        restored = stored[layout.inverse]
        assert np.allclose(restored, coords)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(32, 300))
    def test_block_sampling_never_catastrophically_worse(self, seed, n):
        """Mean coverage of block-FPS stays within a constant factor of
        exact FPS for arbitrary clouds (the accuracy-preservation core)."""
        coords = _cloud(seed, n, clustered=True)
        tree = fractal_partition(coords, FractalConfig(threshold=64))
        s = max(2, n // 4)
        sampled, _ = block_fps(tree.block_structure(), coords, s)
        exact = farthest_point_sample(coords, s)

        def mean_cov(sel):
            return np.sqrt(pairwise_sq_dists(coords, coords[sel]).min(axis=1)).mean()

        exact_cov = mean_cov(exact)
        if exact_cov < 1e-12:
            return  # degenerate: everything coincident
        assert mean_cov(sampled) / exact_cov < 4.0


class TestAllocationProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 300), min_size=2, max_size=30), st.data())
    def test_one_per_block_when_budget_allows(self, sizes, data):
        sizes = np.array(sizes)
        s = data.draw(st.integers(len(sizes), int(sizes.sum())))
        quotas = allocate_samples(sizes, s)
        assert (quotas >= 1).all()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 300), min_size=1, max_size=30), st.data())
    def test_rate_fairness(self, sizes, data):
        """No block's sampling rate deviates wildly from the global rate
        (the 'fixed sampling rate' rule, up to rounding + min-one)."""
        sizes = np.array(sizes)
        total = int(sizes.sum())
        s = data.draw(st.integers(min(len(sizes), total), total))
        quotas = allocate_samples(sizes, s)
        global_rate = s / total
        rates = quotas / sizes
        # Every block's rate is within [rate/4 - eps, 4*rate + 1/size].
        assert (rates <= 4 * global_rate + 1.0 / sizes + 1e-9).all()


class TestExecutorProperties:
    """The batched engine is a pure function of (cloud, pipeline): its
    per-cloud results must not depend on batch order or cache state."""

    @staticmethod
    def _run(clouds, **kwargs):
        engine = BatchExecutor("kdtree", block_size=32, **kwargs)
        pipeline = PipelineSpec(radius=0.5, group_size=4)
        return engine, engine.run(clouds, pipeline)

    @staticmethod
    def _assert_same(a, b):
        assert np.array_equal(a.sampled, b.sampled)
        assert np.array_equal(a.neighbors, b.neighbors)
        assert np.array_equal(a.interpolated, b.interpolated)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5), st.booleans())
    def test_batch_order_invariance(self, seed, m, clustered):
        clouds = [_cloud(seed + i, 20 + (37 * i) % 180, clustered)
                  for i in range(m)]
        _, forward = self._run(clouds)
        _, reversed_ = self._run(clouds[::-1])
        for i in range(m):
            self._assert_same(forward.results[i], reversed_.results[m - 1 - i])

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_cold_vs_warm_cache_invariance(self, seed, m):
        clouds = [_cloud(seed + i, 25 + 31 * i, clustered=False) for i in range(m)]
        engine, cold = self._run(clouds)
        warm = engine.run(clouds, PipelineSpec(radius=0.5, group_size=4))
        assert cold.stats.cache_hits == 0
        assert warm.stats.cache_hits + warm.stats.reused == m  # fully warm
        for i in range(m):
            self._assert_same(cold.results[i], warm.results[i])


class TestSimulatorProperties:
    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from([1024, 2048, 4096, 8192]),
           st.sampled_from([2048, 4096, 8192, 16384]))
    def test_latency_monotone_in_scale(self, n1, n2):
        from repro.hw import AcceleratorSim, FRACTALCLOUD
        from repro.networks import get_workload

        if n1 == n2:
            return
        lo, hi = min(n1, n2), max(n1, n2)
        sim = AcceleratorSim(FRACTALCLOUD)
        spec = get_workload("PN++(s)")
        assert sim.run(spec, lo).latency_s <= sim.run(spec, hi).latency_s
