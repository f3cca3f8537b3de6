"""Dispatch-boundary tests: the stacked→ragged→loop crossover is pinned.

``repro.core.dispatch`` resolves every block op to one of three
bit-identical kernels.  These tests pin the boundary behaviour:

- parity on synthetic partitions whose per-block work products sit *just
  below*, *at*, and *just above* ``_STACK_SMALL`` (the stacked fast
  path's cutoff) — the regime the ragged kernels were built for;
- the cost model's regime choices and the ``REPRO_KERNEL`` override;
- a hypothesis property: kernel choice never changes indices, for any
  cloud/partitioner/blocksize drawn;
- cache hygiene: ``clear_caches`` flushes every live partition cache and
  the ragged layouts riding on them.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import bppo, dispatch, ragged
from repro.core.blocks import Block, BlockStructure, PartitionCost
from repro.core.bppo import _STACK_SMALL
from repro.core.ragged import RAGGED_BLOCK_MAX
from repro.partition import get_partitioner
from repro.runtime import PartitionCache, clear_caches
from repro.runtime.cache import clear_all_partition_caches


def synthetic_structure(block_size: int, num_blocks: int, seed: int = 0):
    """Partition of contiguous equal-size blocks (search space = block)."""
    n = block_size * num_blocks
    coords = np.random.default_rng(seed).normal(size=(n, 3))
    blocks = [
        Block(np.arange(b * block_size, (b + 1) * block_size))
        for b in range(num_blocks)
    ]
    structure = BlockStructure(
        num_points=n,
        blocks=blocks,
        search_spaces=[b.indices.copy() for b in blocks],
        cost=PartitionCost(),
        strategy="synthetic",
    )
    structure.validate()
    return structure, coords


class TestStackSmallStraddle:
    """Parity with per-block products just below / at / just above the
    stacked cutoff — the crossover the dispatcher moves across."""

    # block_size=16 and 7/8/9 centres per block give products 112/128/144:
    # strictly below, exactly at, and strictly above _STACK_SMALL=128.
    CENTERS_PER_BLOCK = (7, 8, 9)

    def _centers(self, structure, per_block):
        return np.concatenate(
            [block.indices[:per_block] for block in structure.blocks]
        )

    @pytest.mark.parametrize("per_block", CENTERS_PER_BLOCK)
    def test_ball_query_crossover(self, per_block):
        structure, coords = synthetic_structure(16, 6, seed=per_block)
        centers = self._centers(structure, per_block)
        product = per_block * 16
        assert (product < _STACK_SMALL) or (product == _STACK_SMALL) or (
            product > _STACK_SMALL
        )
        serial, _ = bppo.block_ball_query(structure, coords, centers, 0.6, 5)
        stacked, _ = bppo.block_ball_query_batched(structure, coords, centers, 0.6, 5)
        fused, _ = ragged.ragged_ball_query(structure, coords, centers, 0.6, 5)
        assert np.array_equal(serial, stacked)
        assert np.array_equal(serial, fused)

    @pytest.mark.parametrize("per_block", CENTERS_PER_BLOCK)
    def test_knn_crossover(self, per_block):
        structure, coords = synthetic_structure(16, 6, seed=10 + per_block)
        centers = self._centers(structure, per_block)
        candidates = np.arange(0, structure.num_points, 2, dtype=np.int64)
        serial, t_serial = bppo.block_knn(structure, coords, centers, candidates, 3)
        stacked, _ = bppo.block_knn_batched(structure, coords, centers, candidates, 3)
        fused, t_fused = ragged.ragged_knn(structure, coords, centers, candidates, 3)
        assert np.array_equal(serial, stacked)
        assert np.array_equal(serial, fused)
        assert [w.widened for w in t_serial.blocks] == [
            w.widened for w in t_fused.blocks
        ]

    def test_duplicates_at_the_boundary(self):
        """Exact duplicates (tie-breaking stress) exactly at the cutoff."""
        structure, coords = synthetic_structure(16, 4, seed=3)
        coords[8:16] = coords[0:8]  # duplicate within block 0
        centers = self._centers(structure, 8)  # product == _STACK_SMALL
        serial, _ = bppo.block_ball_query(structure, coords, centers, 0.5, 4)
        fused, _ = ragged.ragged_ball_query(structure, coords, centers, 0.5, 4)
        assert np.array_equal(serial, fused)
        candidates = np.arange(0, structure.num_points, 2, dtype=np.int64)
        s_knn, _ = bppo.block_knn(structure, coords, centers, candidates, 3)
        r_knn, _ = ragged.ragged_knn(structure, coords, centers, candidates, 3)
        assert np.array_equal(s_knn, r_knn)


def _fastest(calls: dict, repeats: int = 3) -> str:
    """Name of the fastest callable, by best-of-``repeats`` wall time —
    how ``benchmarks/perf/probes.py`` scores a cost model's regret."""
    best = {}
    for name, call in calls.items():
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        best[name] = min(times)
    return min(best, key=best.get)


class TestAutoMatchesTheProbeAtScale:
    """On the paper's regime (an 8K-12K-point fractal partition, the
    ``scene_large`` per-cloud path) auto must pick what the regret probe
    measures fastest.  The margins are 2.5-5x, far above timer noise."""

    @pytest.fixture(autouse=True)
    def _no_ambient_pins(self, monkeypatch):
        monkeypatch.delenv(dispatch.KERNEL_ENV, raising=False)
        monkeypatch.delenv(dispatch.BUILD_KERNEL_ENV, raising=False)

    @pytest.fixture(scope="class")
    def scene(self):
        coords = np.random.default_rng(12).random((10_000, 3)) * 10.0
        partitioner = get_partitioner("fractal", max_points_per_block=256)
        return partitioner, coords, partitioner(coords)

    def test_auto_fps(self, scene):
        _, coords, structure = scene
        quotas = bppo.allocate_samples(structure.block_sizes, 2500, clamp=True)
        picks = {
            name: (lambda name=name: dispatch.run_op(
                "fps", structure, coords, 2500, kernel=name))
            for name in dispatch.KERNELS["fps"]
        }
        auto = dispatch.choose_kernel("fps", structure, 2500, quotas)
        assert auto == dispatch.choose_kernel("fps", structure, 2500)
        assert auto == _fastest(picks) == "ragged"

    def test_auto_build(self, scene):
        partitioner, coords, _ = scene
        picks = {
            name: (lambda name=name: dispatch.run_build(
                partitioner, coords, 2500, kernel=name))
            for name in dispatch.BUILD_KERNEL_NAMES[1:]
        }
        auto = dispatch.choose_build_kernel(partitioner, len(coords), 2500)
        assert auto == _fastest(picks) == "build_then_sample"
        # ... and the two-pass build reaches the dispatched FPS kernel.
        structure, sampled, _, name = dispatch.run_build(partitioner, coords, 2500)
        assert name == "build_then_sample"
        reference, _ = bppo.block_fps(structure, coords, 2500)
        assert np.array_equal(sampled, reference)


class TestCostModel:
    """The auto chooser picks the regime holding the work mass."""

    def test_small_blocks_go_stacked(self):
        structure, _ = synthetic_structure(8, 10)
        # ~4 centres per 8-point block → products ≈ 32 « _STACK_SMALL.
        assert dispatch.choose_kernel("ball_query", structure, 40) == "stacked"

    def test_mid_blocks_go_ragged(self):
        structure, _ = synthetic_structure(32, 10)
        # ~16 centres per 32-point block → products ≈ 512: mid regime.
        assert dispatch.choose_kernel("ball_query", structure, 160) == "ragged"

    def test_big_blocks_go_loop(self):
        structure, _ = synthetic_structure(256, 4)
        # ~128 centres per 256-point block → products ≈ 32768 > ceiling.
        assert RAGGED_BLOCK_MAX < 128 * 256
        assert dispatch.choose_kernel("ball_query", structure, 512) == "loop"

    def test_gather_goes_through_cost_model(self):
        """Regression: gather was hardcoded to 'loop' with a stale
        "single implementation" comment despite the registry holding
        stacked and ragged gather entries; it must cost-dispatch like
        every other op."""
        small, _ = synthetic_structure(8, 10)
        assert dispatch.choose_kernel("gather", small, 40) == "stacked"
        mid, _ = synthetic_structure(32, 10)
        assert dispatch.choose_kernel("gather", mid, 160) == "ragged"
        big, _ = synthetic_structure(256, 4)
        assert dispatch.choose_kernel("gather", big, 512) == "loop"

    def test_fps_counts_recurrence_steps_not_work_products(self):
        """FPS has no GEMM regime: big blocks used to send it to the loop
        (products > RAGGED_BLOCK_MAX) exactly where sharing each step
        among 64 blocks pays most."""
        big, _ = synthetic_structure(256, 64)
        assert dispatch.choose_kernel("fps", big, 64 * 64) == "ragged"
        small, _ = synthetic_structure(8, 10)
        assert dispatch.choose_kernel("fps", small, 40) == "ragged"
        # Two equal blocks: the other block runs no more steps than the
        # fullest one, so a ragged step's extra passes are not repaid.
        pair, _ = synthetic_structure(128, 2)
        assert dispatch.choose_kernel("fps", pair, 64) == "loop"
        # Measured quotas: one block holds nearly every step.
        skewed = np.array([200] + [1] * 63, dtype=np.int64)
        assert dispatch.choose_kernel("fps", big, 263, skewed) == "loop"

    @pytest.mark.parametrize("op", sorted(dispatch.KERNELS))
    def test_single_block_has_nothing_to_stack_or_fuse(self, op):
        structure, _ = synthetic_structure(64, 1)
        assert dispatch.choose_kernel(op, structure, 16) == "loop"

    def test_one_implementation_skips_the_cost_model(self, monkeypatch):
        """Every gather name is the same function; resolving it must not
        pay the block-stat arithmetic (it cost more than the gather)."""
        assert len(set(dispatch.KERNELS["gather"].values())) == 1
        structure, _ = synthetic_structure(8, 10)

        def boom(*args, **kwargs):
            raise AssertionError("cost model consulted")

        monkeypatch.setattr(dispatch, "choose_kernel", boom)
        name = dispatch.resolve_kernel("gather", structure, 40)
        assert name in dispatch.KERNELS["gather"]
        with pytest.raises(AssertionError, match="consulted"):
            dispatch.resolve_kernel("ball_query", structure, 40)
        # Pins and the environment still go through validation.
        assert dispatch.resolve_kernel("gather", structure, 40, "ragged") == "ragged"
        monkeypatch.setenv(dispatch.KERNEL_ENV, "stacked")
        assert dispatch.resolve_kernel("gather", structure, 40) == "stacked"

    def test_measured_center_counts_beat_the_estimate(self):
        """Skewed measured counts flip the choice the proportional
        estimate would make: 6 blocks of 16 points, 48 centres.  Spread
        proportionally (8 per block) every product is 128 → stacked; all
        measured onto one block the product is 48·16 = 768 → loop."""
        structure, _ = synthetic_structure(16, 6)
        assert dispatch.choose_kernel("ball_query", structure, 48) == "stacked"
        measured = np.array([48, 0, 0, 0, 0, 0], dtype=np.int64)
        assert (
            dispatch.choose_kernel("ball_query", structure, 48, measured)
            == "loop"
        )
        with pytest.raises(ValueError, match="center_counts"):
            dispatch.choose_kernel("ball_query", structure, 48, measured[:3])

    def test_explicit_kernel_beats_env(self, monkeypatch):
        """Regression: REPRO_KERNEL used to silently override an explicit
        kernel= argument; precedence is explicit arg > env > auto."""
        structure, coords = synthetic_structure(8, 4, seed=5)
        monkeypatch.setenv(dispatch.KERNEL_ENV, "ragged")
        assert dispatch.resolve_kernel("fps", structure, 10, "loop") == "loop"
        assert dispatch.resolve_kernel("fps", structure, 10, "auto") == "ragged"
        assert dispatch.resolve_kernel("fps", structure, 10) == "ragged"
        monkeypatch.setenv(dispatch.KERNEL_ENV, "bogus")
        with pytest.raises(ValueError, match="kernel"):
            dispatch.resolve_kernel("fps", structure, 10)
        # A bogus env var is irrelevant when the caller pinned a kernel.
        assert dispatch.resolve_kernel("fps", structure, 10, "stacked") == "stacked"

    def test_run_op_rejects_unknown(self):
        structure, coords = synthetic_structure(8, 2)
        with pytest.raises(ValueError, match="unknown op"):
            dispatch.run_op("sort", structure, coords, 4)
        with pytest.raises(ValueError, match="kernel"):
            dispatch.run_op("fps", structure, coords, 4, kernel="vectorised")


class TestDispatchNeverChangesIndices:
    """Property: for any cloud, partitioner, and block size, every kernel
    (and the auto choice) returns the serial reference's exact indices."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 220),
        block_size=st.sampled_from([4, 8, 16, 48]),
        partitioner=st.sampled_from(["kdtree", "uniform", "octree", "fractal"]),
        duplicates=st.booleans(),
    )
    def test_all_kernels_agree(self, seed, n, block_size, partitioner, duplicates):
        rng = np.random.default_rng(seed)
        coords = rng.normal(size=(n, 3))
        if duplicates and n >= 4:
            coords[n // 2:] = coords[: n - n // 2]
        structure = get_partitioner(
            partitioner, max_points_per_block=block_size
        )(coords)
        num = max(1, n // 3)
        ref_fps, _ = bppo.block_fps(structure, coords, num)
        ref_ball, _ = bppo.block_ball_query(structure, coords, ref_fps, 0.5, 6)
        candidates = ref_fps
        k = min(3, len(candidates))
        centers = np.arange(n, dtype=np.int64)
        ref_knn, _ = bppo.block_knn(structure, coords, centers, candidates, k)
        for kernel in ("stacked", "ragged", "auto"):
            got_fps, _ = dispatch.run_op(
                "fps", structure, coords, num, kernel=kernel, num_centers=num
            )
            assert np.array_equal(ref_fps, got_fps)
            got_ball, _ = dispatch.run_op(
                "ball_query", structure, coords, ref_fps, 0.5, 6,
                kernel=kernel, num_centers=len(ref_fps),
            )
            assert np.array_equal(ref_ball, got_ball)
            got_knn, _ = dispatch.run_op(
                "knn", structure, coords, centers, candidates, k,
                kernel=kernel, num_centers=n,
            )
            assert np.array_equal(ref_knn, got_knn)


class TestCacheClearing:
    """clear_caches flushes partition caches and their ragged layouts."""

    def test_clear_all_partition_caches(self):
        cache = PartitionCache(get_partitioner("kdtree", max_points_per_block=16))
        coords = np.random.default_rng(0).normal(size=(100, 3))
        cache.get(coords)
        assert len(cache) == 1
        cleared = clear_all_partition_caches()
        assert cleared >= 1
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_compiler_clear_caches_reaches_partition_caches(self):
        cache = PartitionCache(get_partitioner("kdtree", max_points_per_block=16))
        coords = np.random.default_rng(1).normal(size=(80, 3))
        cache.get(coords)
        clear_caches()
        assert len(cache) == 0

    def test_ragged_layout_rides_the_cache(self):
        cache = PartitionCache(get_partitioner("kdtree", max_points_per_block=16))
        coords = np.random.default_rng(2).normal(size=(60, 3))
        s1, rb1, hit1 = cache.get_ragged(coords)
        s2, rb2, hit2 = cache.get_ragged(coords.copy())
        assert (hit1, hit2) == (False, True)
        assert rb1 is rb2  # memoized alongside the cached structure

    def test_ragged_memo_guards_full_precision(self):
        """The partition cache keys at float32 — a float64-distinct but
        float32-equal cloud replays the structure yet must rebuild the
        ragged layout (it carries the coordinates themselves)."""
        cache = PartitionCache(get_partitioner("kdtree", max_points_per_block=16))
        a = np.random.default_rng(3).normal(size=(50, 3))
        b = a.copy()
        b[0, 0] = np.nextafter(a[0, 0], np.inf)  # one float64 ulp apart
        assert np.float32(a[0, 0]) == np.float32(b[0, 0])
        s1, rb1, _ = cache.get_ragged(a)
        s2, rb2, hit = cache.get_ragged(b)
        assert hit  # same structure replayed ...
        assert s1 is s2
        assert rb1 is not rb2  # ... but the layout was rebuilt
        assert np.array_equal(rb2.coords, b[rb2.perm])
