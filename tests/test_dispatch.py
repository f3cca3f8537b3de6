"""Dispatch tests: one search implementation, one FPS rule.

``repro.core.dispatch`` registers every block op under the kernel names
``loop`` and ``ragged``.  Only FPS has two implementations, chosen by
its recurrence-step rule; the searches and gather have one per-block
implementation under both names.  These tests pin:

- parity of the served per-block search loops
  (``ragged.ball_query_on_layout`` / ``knn_on_layout``) with the serial
  reference on hand-built equal-block partitions, exact duplicates
  included;
- the FPS step rule, the one-implementation shortcut that skips the cost
  model for every other op, and the ``REPRO_KERNEL`` override;
- hypothesis properties: every choice is a registered kernel, and
  kernel choice never changes indices, for any
  cloud/partitioner/blocksize drawn;
- cache hygiene: ``clear_caches`` flushes every live partition cache and
  the ragged layouts riding on them.
"""

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import bppo, dispatch, ragged
from repro.core.blocks import Block, BlockStructure, PartitionCost
from repro.geometry import ops as exact_ops
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


def served_ball_query(structure, coords, centers, radius, num):
    return ragged.ball_query_on_layout(
        ragged.ragged_of(structure, coords), coords, centers, radius, num
    )


def served_knn(structure, coords, centers, candidates, k):
    neighbors, _, _, widened = ragged.knn_on_layout(
        ragged.ragged_of(structure, coords), coords, centers, candidates, k
    )
    return neighbors, widened


class TestStackSmallStraddle:
    """The served search loops on hand-built partitions of 16-point
    blocks with 7/8/9 centres each: bit-identical to the serial
    reference, widening decisions included."""

    CENTERS_PER_BLOCK = (7, 8, 9)

    def _centers(self, structure, per_block):
        return np.concatenate(
            [block.indices[:per_block] for block in structure.blocks]
        )

    @pytest.mark.parametrize("per_block", CENTERS_PER_BLOCK)
    def test_ball_query_crossover(self, per_block):
        structure, coords = synthetic_structure(16, 6, seed=per_block)
        centers = self._centers(structure, per_block)
        serial, _ = bppo.block_ball_query(structure, coords, centers, 0.6, 5)
        served, _ = served_ball_query(structure, coords, centers, 0.6, 5)
        assert np.array_equal(serial, served)

    @pytest.mark.parametrize("per_block", CENTERS_PER_BLOCK)
    def test_knn_crossover(self, per_block):
        structure, coords = synthetic_structure(16, 6, seed=10 + per_block)
        centers = self._centers(structure, per_block)
        candidates = np.arange(0, structure.num_points, 2, dtype=np.int64)
        serial, t_serial = bppo.block_knn(structure, coords, centers, candidates, 3)
        served, widened = served_knn(structure, coords, centers, candidates, 3)
        assert np.array_equal(serial, served)
        assert [w.widened for w in t_serial.blocks] == list(widened)

    def test_duplicates_at_the_boundary(self):
        """Exact duplicates (tie-breaking stress) at product 128."""
        structure, coords = synthetic_structure(16, 4, seed=3)
        coords[8:16] = coords[0:8]  # duplicate within block 0
        centers = self._centers(structure, 8)
        serial, _ = bppo.block_ball_query(structure, coords, centers, 0.5, 4)
        served, _ = served_ball_query(structure, coords, centers, 0.5, 4)
        assert np.array_equal(serial, served)
        candidates = np.arange(0, structure.num_points, 2, dtype=np.int64)
        s_knn, _ = bppo.block_knn(structure, coords, centers, candidates, 3)
        r_knn, _ = served_knn(structure, coords, centers, candidates, 3)
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

    def test_auto_build(self, scene, monkeypatch):
        """The cold build reaches the dispatched FPS kernel — ragged at
        this scale — and stays bit-identical to the per-block loop."""
        partitioner, coords, built = scene
        reference, _ = bppo.block_fps(built, coords, 2500)
        monkeypatch.setitem(dispatch.KERNELS["fps"], "loop", None)  # not callable
        structure, sampled, _ = dispatch.run_build(partitioner, coords, 2500)
        assert structure.num_blocks == built.num_blocks
        assert np.array_equal(sampled, reference)


class TestCostModel:
    """The auto chooser picks the regime holding the work mass."""

    def test_fps_counts_recurrence_steps_not_work_products(self):
        """FPS has no GEMM regime: big blocks used to send it to the loop
        (work products > 512) exactly where sharing each step among 64
        blocks pays most."""
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
        """Every name of a search or gather is the same function;
        resolving it must not pay the block-stat arithmetic.  FPS, the
        one op with two implementations, still consults the cost model."""
        structure, _ = synthetic_structure(8, 10)

        def boom(*args, **kwargs):
            raise AssertionError("cost model consulted")

        monkeypatch.setattr(dispatch, "choose_kernel", boom)
        for op in ("ball_query", "knn", "interpolate", "gather"):
            assert len(set(dispatch.KERNELS[op].values())) == 1, op
            assert dispatch.resolve_kernel(op, structure, 40) in dispatch.KERNELS[op]
        with pytest.raises(AssertionError, match="consulted"):
            dispatch.resolve_kernel("fps", structure, 40)
        # Pins and the environment still go through validation.
        assert dispatch.resolve_kernel("gather", structure, 40, "ragged") == "ragged"
        monkeypatch.setenv(dispatch.KERNEL_ENV, "loop")
        assert dispatch.resolve_kernel("gather", structure, 40) == "loop"

    def test_measured_center_counts_beat_the_estimate(self):
        """Skewed measured FPS quotas flip the choice the proportional
        estimate would make: 6 blocks of 16 points, 21 samples.  Spread
        proportionally (3.5 per block) the other blocks outrun the
        fullest → ragged; measured, one block runs 16 of the 21 steps →
        loop.  A wrong-shape quota array is refused."""
        structure, _ = synthetic_structure(16, 6)
        assert dispatch.choose_kernel("fps", structure, 21) == "ragged"
        measured = np.array([16, 1, 1, 1, 1, 1], dtype=np.int64)
        assert dispatch.choose_kernel("fps", structure, 21, measured) == "loop"
        with pytest.raises(ValueError, match="center_counts"):
            dispatch.choose_kernel("fps", structure, 21, measured[:3])

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
        assert dispatch.resolve_kernel("fps", structure, 10, "ragged") == "ragged"

    def test_env_rejects_a_retired_kernel(self, monkeypatch):
        """``REPRO_KERNEL`` is outside input: a name no longer registered
        fails loudly, naming the kernels that exist."""
        structure, coords = synthetic_structure(8, 2)
        monkeypatch.setenv(dispatch.KERNEL_ENV, "stacked")
        with pytest.raises(ValueError, match=r"\('auto', 'loop', 'ragged'\)"):
            dispatch.run_op("fps", structure, coords, 4)

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 600), min_size=1, max_size=12),
        centers=st.lists(st.integers(0, 600), min_size=12, max_size=12),
        op=st.sampled_from(sorted(dispatch.KERNELS)),
    )
    def test_choice_is_always_registered(self, sizes, centers, op):
        """Any block sizes, any measured centre counts, and the
        zero-point structure all resolve to a key of ``KERNELS[op]``."""
        assert set(dispatch.KERNELS[op]) == set(dispatch.KERNEL_NAMES) - {"auto"}
        bounds = np.cumsum([0] + sizes)
        blocks = [Block(np.arange(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        empty = BlockStructure(0, [], [], PartitionCost())
        structure = BlockStructure(
            int(bounds[-1]), blocks, [b.indices for b in blocks], PartitionCost()
        )
        counts = np.minimum(centers[: len(sizes)], sizes)
        for s, args in ((structure, ()), (structure, (int(counts.sum()),)),
                        (structure, (None, counts)), (empty, ())):
            assert dispatch.choose_kernel(op, s, *args) in dispatch.KERNELS[op]

    def test_run_op_rejects_unknown(self):
        structure, coords = synthetic_structure(8, 2)
        with pytest.raises(ValueError, match="unknown op"):
            dispatch.run_op("sort", structure, coords, 4)
        with pytest.raises(ValueError, match="kernel"):
            dispatch.run_op("fps", structure, coords, 4, kernel="vectorised")


@st.composite
def fps_problems(draw):
    """Block sizes and a sample budget: one block, one dominant block,
    equal blocks or a free mix; a sparse budget (fewer samples than
    blocks) leaves some quotas at zero."""
    shape = draw(st.sampled_from(("one", "dominant", "equal", "mixed")))
    if shape == "one":
        sizes = [draw(st.integers(1, 200))]
    elif shape == "dominant":
        sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
        sizes.insert(
            draw(st.integers(0, len(sizes))),
            draw(st.integers(sum(sizes) + 1, 300)),
        )
    elif shape == "equal":
        sizes = [draw(st.integers(1, 40))] * draw(st.integers(2, 8))
    else:
        sizes = draw(st.lists(st.integers(1, 80), min_size=2, max_size=8))
    if draw(st.booleans()) and len(sizes) > 1:
        num_samples = draw(st.integers(1, len(sizes) - 1))
    else:
        num_samples = draw(st.integers(1, sum(sizes)))
    return sizes, num_samples, draw(st.integers(0, 1000))


class TestFpsRuleInsideTheOp:
    """``fps_on_layout`` applies the FPS step rule to its own quotas:
    when the fullest block dominates it runs the reference FPS once per
    populated block, else the segment recurrence — and ``choose_kernel``
    reads the same rule."""

    def test_rule_boundaries(self):
        assert ragged.fps_runs_serial(np.array([], dtype=np.int64))
        assert ragged.fps_runs_serial(np.array([7]))
        assert ragged.fps_runs_serial(np.array([0, 0, 0]))
        assert ragged.fps_runs_serial(np.array([3, 3]))  # tie: serial
        assert ragged.fps_runs_serial(np.array([4, 0, 2, 2]))
        assert not ragged.fps_runs_serial(np.array([3, 2, 2]))

    def test_one_layout_concatenates_to_itself(self):
        structure, coords = synthetic_structure(8, 3)
        layout = ragged.RaggedBlocks.from_structure(structure, coords)
        assert ragged.RaggedBlocks.concatenate([layout]) is layout

    @settings(max_examples=80, deadline=None)
    @given(problem=fps_problems())
    def test_branch_follows_the_rule_and_matches_block_fps(self, problem):
        sizes, num_samples, seed = problem
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        coords = rng.normal(size=(n, 3))
        coords[n // 2:] = coords[: n - n // 2]  # exact duplicates: ties
        ids = np.split(rng.permutation(n), np.cumsum(sizes)[:-1])
        blocks = [Block(np.asarray(b, dtype=np.int64)) for b in ids]
        structure = BlockStructure(
            n, blocks, [b.indices.copy() for b in blocks], PartitionCost()
        )
        expected, _ = bppo.block_fps(structure, coords, num_samples)
        quotas = bppo.allocate_samples(structure.block_sizes, num_samples, clamp=True)
        layout = ragged.RaggedBlocks.from_structure(structure, coords)
        with mock.patch.object(
            exact_ops, "farthest_point_sample",
            side_effect=exact_ops.farthest_point_sample,
        ) as reference:
            picked = ragged.fps_on_layout(layout, quotas)
        assert picked.dtype == expected.dtype
        assert picked.tobytes() == expected.tobytes()

        serial = reference.call_count > 0
        assert serial == ragged.fps_runs_serial(quotas)
        if serial:
            assert reference.call_count == np.count_nonzero(quotas)
        if len(sizes) == 1:
            assert reference.call_count == 1
        choice = dispatch.choose_kernel("fps", structure, center_counts=quotas)
        assert choice == ("loop" if serial else "ragged")


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
        for kernel in dispatch.KERNEL_NAMES:
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
        """The partition cache keys at full float64 precision, so a cloud
        one ulp from a cached one is a miss with its own structure and
        layout; and a structure asked for a layout over other
        coordinates rebuilds it rather than replaying the memo (the
        layout carries the coordinates themselves)."""
        cache = PartitionCache(get_partitioner("kdtree", max_points_per_block=16))
        a = np.random.default_rng(3).normal(size=(50, 3))
        b = a.copy()
        b[0, 0] = np.nextafter(a[0, 0], np.inf)  # one float64 ulp apart
        assert np.float32(a[0, 0]) == np.float32(b[0, 0])
        s1, rb1, _ = cache.get_ragged(a)
        s2, rb2, hit = cache.get_ragged(b)
        assert not hit  # a different cloud, not a replay ...
        assert s1 is not s2
        assert np.array_equal(rb2.coords, b[rb2.perm])
        rebuilt = ragged.ragged_of(s1, b)  # ... and the memo revalidates
        assert rebuilt is not rb1
        assert np.array_equal(rebuilt.coords, b[rebuilt.perm])
