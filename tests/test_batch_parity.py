"""Parity suite: the batched and ragged execution paths are bit-identical
to the exact single-cloud references.

Four layers of proof obligations, all at index/bit level (``array_equal``,
never ``allclose``):

1. every ragged CSR kernel (:mod:`repro.core.ragged`) equals its serial
   ``block_*`` reference across partitioners and cloud shapes (n=1,
   duplicate points, blocks smaller than the ball-query group size) —
   on the cloud's own layout and stacked behind another cloud in one
   concatenated layout, the engine's fused-window form;
2. with the ``none`` partitioner (single block) the block ops equal the
   global-search references in :mod:`repro.geometry.ops`;
3. the :class:`~repro.runtime.executor.BatchExecutor` end-to-end pipeline
   equals a hand-rolled serial loop of the reference ops — for every
   kernel selection and for whole-cloud fusion (size-bucketed clouds,
   equal-size or mixed, concatenated into one ragged problem per bucket);
4. kernel dispatch never changes results (see also ``tests/test_dispatch.py``
   for the boundary-straddling and property cases).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import bppo, ragged
from repro.core.bppo import BlockWork, OpTrace
from repro.geometry import ops as exact_ops
from repro.partition import get_partitioner
from repro.runtime import BatchExecutor, PipelineSpec

PARTITIONERS = ("octree", "kdtree", "uniform", "none", "fractal", "morton")
CLOUD_SIZES = (1, 2, 7, 33, 257)


def make_cloud(n: int, seed: int, duplicates: bool = False) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    if duplicates and n >= 4:
        # Exact coordinate duplicates: the tie-breaking stress test.
        pts[n // 2:] = pts[: n - n // 2]
    return pts


def structure_for(name: str, coords: np.ndarray, block_size: int = 16):
    return get_partitioner(name, max_points_per_block=block_size)(coords)


def _stack(structure, coords):
    """``coords`` stacked behind a 23-point decoy cloud in one concatenated
    ragged layout — the form the engine's fused windows run.  The decoy's
    own centres and candidates share every kernel call; callers slice
    their rows back and shift ids down by 23."""
    decoy = make_cloud(23, seed=4242) + 0.25
    decoy_s = structure_for("kdtree", decoy, block_size=8)
    layout = ragged.RaggedBlocks.concatenate([
        ragged.RaggedBlocks.from_structure(s, c)
        for s, c in ((decoy_s, decoy), (structure, coords))
    ])
    return layout, np.concatenate([decoy, coords]), decoy_s


def stacked_fps(structure, coords, num):
    layout, _, decoy_s = _stack(structure, coords)
    decoy_q = bppo.allocate_samples(decoy_s.block_sizes, 9)
    quotas = bppo.allocate_samples(structure.block_sizes, num, clamp=True)
    picked = ragged.fps_on_layout(
        layout, np.concatenate([decoy_q, quotas]))[decoy_q.sum():]
    counts = np.bincount(layout.owner[picked] - decoy_s.num_blocks,
                         minlength=structure.num_blocks)
    return picked - 23, OpTrace(
        "fps", [BlockWork(b, 0, 0, c, c) for b, c in enumerate(counts)])


def stacked_ball_query(structure, coords, centers, radius, num):
    layout, both, _ = _stack(structure, coords)
    neighbors, _ = ragged.ball_query_on_layout(
        layout, both, np.concatenate([np.arange(0, 23, 3), centers + 23]),
        radius, num)
    return neighbors[-len(centers):] - 23, None


def stacked_knn(structure, coords, centers, candidates, k):
    layout, both, decoy_s = _stack(structure, coords)
    neighbors, counts, cands, widened = ragged.knn_on_layout(
        layout, both, np.concatenate([np.arange(23), centers + 23]),
        np.concatenate([np.arange(0, 23, 2), candidates + 23]), k)
    mine = slice(decoy_s.num_blocks, None)
    return neighbors[-len(centers):] - 23, OpTrace("knn", [
        BlockWork(b, 0, s, c, 0, w) for b, (c, s, w) in
        enumerate(zip(counts[mine], cands[mine], widened[mine]))])


def stacked_interpolate(structure, coords, centers, candidates, feats, k):
    neighbors, trace = stacked_knn(structure, coords, centers, candidates, k)
    return bppo._interpolate_from_neighbors(
        structure.num_points, coords, centers, candidates, feats, neighbors
    ), trace


#: (label, fps, ball_query, knn, interpolate) — every fast path that must
#: reproduce the serial ``block_*`` reference bit-for-bit.
FAST_PATHS = (
    ("stacked", stacked_fps, stacked_ball_query, stacked_knn,
     stacked_interpolate),
    (
        "ragged",
        ragged.ragged_fps,
        ragged.ragged_ball_query,
        ragged.ragged_knn,
        ragged.ragged_interpolate,
    ),
)


class TestBlockOpParity:
    """ragged kernels ≡ block_* — alone and stacked with another cloud."""

    @pytest.mark.parametrize("path", FAST_PATHS, ids=lambda p: p[0])
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("n", CLOUD_SIZES)
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_fps(self, path, partitioner, n, duplicates):
        coords = make_cloud(n, seed=n, duplicates=duplicates)
        structure = structure_for(partitioner, coords)
        num = max(1, n // 3)
        serial, t_serial = bppo.block_fps(structure, coords, num)
        fast, t_fast = path[1](structure, coords, num)
        assert np.array_equal(serial, fast)
        assert [(w.block_id, w.n_centers) for w in t_serial.blocks] == [
            (w.block_id, w.n_centers) for w in t_fast.blocks
        ]

    @pytest.mark.parametrize("path", FAST_PATHS, ids=lambda p: p[0])
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("n", CLOUD_SIZES)
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_ball_query(self, path, partitioner, n, duplicates):
        coords = make_cloud(n, seed=100 + n, duplicates=duplicates)
        structure = structure_for(partitioner, coords, block_size=8)
        centers, _ = bppo.block_fps(structure, coords, max(1, n // 2))
        # num=16 with block_size=8: every block is smaller than the group
        # size, exercising the first-hit padding path in every block.
        for num in (3, 16):
            serial, _ = bppo.block_ball_query(structure, coords, centers, 0.4, num)
            fast, _ = path[2](structure, coords, centers, 0.4, num)
            assert np.array_equal(serial, fast)

    @pytest.mark.parametrize("path", FAST_PATHS, ids=lambda p: p[0])
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("n", CLOUD_SIZES)
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_knn_and_interpolate(self, path, partitioner, n, duplicates):
        coords = make_cloud(n, seed=200 + n, duplicates=duplicates)
        structure = structure_for(partitioner, coords, block_size=8)
        candidates, _ = bppo.block_fps(structure, coords, max(1, n // 2))
        k = min(3, len(candidates))
        centers = np.arange(n, dtype=np.int64)

        serial, t_serial = bppo.block_knn(structure, coords, centers, candidates, k)
        fast, t_fast = path[3](structure, coords, centers, candidates, k)
        assert np.array_equal(serial, fast)
        assert [w.widened for w in t_serial.blocks] == [
            w.widened for w in t_fast.blocks
        ]
        assert [(w.n_centers, w.n_search) for w in t_serial.blocks] == [
            (w.n_centers, w.n_search) for w in t_fast.blocks
        ]

        feats = np.random.default_rng(n).normal(size=(len(candidates), 5))
        f_serial, _ = bppo.block_interpolate(
            structure, coords, centers, candidates, feats, k
        )
        f_fast, _ = path[4](structure, coords, centers, candidates, feats, k)
        assert np.array_equal(f_serial, f_fast)  # bit-identical weights

    @pytest.mark.parametrize(
        "gather", [ragged.ragged_gather], ids=["ragged_gather"]
    )
    @pytest.mark.parametrize("partitioner", ("kdtree", "none"))
    def test_gather(self, partitioner, gather):
        coords = make_cloud(120, seed=9)
        structure = structure_for(partitioner, coords)
        centers, _ = bppo.block_fps(structure, coords, 30)
        neighbors, _ = bppo.block_ball_query(structure, coords, centers, 0.5, 8)
        feats = np.random.default_rng(1).normal(size=(120, 6))
        serial, _ = bppo.block_gather(structure, feats, neighbors, centers)
        fast, _ = gather(structure, feats, neighbors, centers)
        assert np.array_equal(serial, fast)


class TestNonePartitionerMatchesGlobalReference:
    """With a single block, block ops must equal the exact global ops."""

    @pytest.mark.parametrize("n", CLOUD_SIZES)
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_fps_equals_global(self, n, duplicates):
        coords = make_cloud(n, seed=300 + n, duplicates=duplicates)
        structure = structure_for("none", coords)
        num = max(1, n // 2)
        for fps in (bppo.block_fps, ragged.ragged_fps):
            block, _ = fps(structure, coords, num)
            assert np.array_equal(block, exact_ops.farthest_point_sample(coords, num))

    @pytest.mark.parametrize("n", (1, 7, 33, 257))
    def test_ball_query_equals_global(self, n):
        coords = make_cloud(n, seed=400 + n)
        structure = structure_for("none", coords)
        centers = np.arange(n, dtype=np.int64)
        reference = exact_ops.ball_query(coords, coords, 0.4, 8)
        for ball in (bppo.block_ball_query, ragged.ragged_ball_query):
            block, _ = ball(structure, coords, centers, 0.4, 8)
            assert np.array_equal(block, reference)

    @pytest.mark.parametrize("n", (3, 33, 257))
    def test_knn_equals_global(self, n):
        coords = make_cloud(n, seed=500 + n, duplicates=True)
        structure = structure_for("none", coords)
        candidates = np.arange(0, n, 2, dtype=np.int64)
        k = min(3, len(candidates))
        reference = candidates[exact_ops.knn_search(coords, coords[candidates], k)]
        centers = np.arange(n, dtype=np.int64)
        for knn in (bppo.block_knn, ragged.ragged_knn):
            block, _ = knn(structure, coords, centers, candidates, k)
            assert np.array_equal(block, reference)

    @pytest.mark.parametrize("n", (3, 33, 257))
    def test_interpolate_equals_global(self, n):
        coords = make_cloud(n, seed=600 + n)
        structure = structure_for("none", coords)
        candidates = np.arange(0, n, 2, dtype=np.int64)
        k = min(3, len(candidates))
        feats = np.random.default_rng(n).normal(size=(len(candidates), 4))
        reference = exact_ops.interpolate_features(
            coords, coords[candidates], feats, k
        )
        for interp in (bppo.block_interpolate, ragged.ragged_interpolate):
            block, _ = interp(
                structure, coords, np.arange(n, dtype=np.int64),
                candidates, feats, k,
            )
            assert np.array_equal(block, reference)


class TestExecutorParity:
    """The engine's end-to-end pipeline equals a reference serial loop."""

    @staticmethod
    def reference_pipeline(coords, partitioner, block_size, pipeline):
        structure = get_partitioner(
            partitioner, max_points_per_block=block_size
        )(coords)
        sampled, _ = bppo.block_fps(
            structure, coords, pipeline.samples_for(len(coords))
        )
        neighbors, _ = bppo.block_ball_query(
            structure, coords, sampled, pipeline.radius, pipeline.group_size
        )
        grouped, _ = bppo.block_gather(structure, coords, neighbors, sampled)
        k = min(pipeline.interpolate_k, len(sampled))
        interpolated, _ = bppo.block_interpolate(
            structure, coords, np.arange(len(coords), dtype=np.int64),
            sampled, coords[sampled], k,
        )
        return sampled, neighbors, grouped, interpolated

    @pytest.mark.parametrize("partitioner", ("octree", "kdtree", "uniform", "none"))
    def test_engine_matches_reference(self, partitioner):
        pipeline = PipelineSpec(radius=0.4, group_size=8)
        clouds = [make_cloud(n, seed=700 + n, duplicates=(n % 2 == 0))
                  for n in (1, 5, 40, 181, 304)]
        engine = BatchExecutor(partitioner, block_size=16, max_workers=2)
        report = engine.run(clouds, pipeline)
        for coords, result in zip(clouds, report.results):
            ref = self.reference_pipeline(coords, partitioner, 16, pipeline)
            assert np.array_equal(ref[0], result.sampled)
            assert np.array_equal(ref[1], result.neighbors)
            assert np.array_equal(ref[2], result.grouped)
            assert np.array_equal(ref[3], result.interpolated)

    @pytest.mark.parametrize("kernel", ("loop", "ragged", "auto"))
    def test_every_kernel_matches_reference(self, kernel):
        pipeline = PipelineSpec(radius=0.4, group_size=8)
        clouds = [make_cloud(n, seed=800 + n, duplicates=(n % 2 == 0))
                  for n in (1, 5, 40, 181)]
        engine = BatchExecutor(
            "kdtree", block_size=16, max_workers=1, kernel=kernel
        )
        report = engine.run(clouds, pipeline)
        for coords, result in zip(clouds, report.results):
            ref = self.reference_pipeline(coords, "kdtree", 16, pipeline)
            assert np.array_equal(ref[0], result.sampled)
            assert np.array_equal(ref[1], result.neighbors)
            assert np.array_equal(ref[3], result.interpolated)


class TestFusedExecutorParity:
    """Whole-cloud fusion: equal-size clouds run as one ragged problem,
    split back in submission order, bit-identical to the serial loop."""

    @pytest.mark.parametrize("partitioner", ("kdtree", "fractal", "uniform", "none"))
    def test_fused_matches_reference(self, partitioner):
        pipeline = PipelineSpec(radius=0.4, group_size=8)
        # Equal-size clouds (fused), one odd size (singleton path), one
        # exact repeat (dedup replay inside the fused path).
        clouds = [make_cloud(96, seed=900 + i, duplicates=(i % 2 == 0))
                  for i in range(4)]
        clouds.append(make_cloud(41, seed=950))
        clouds.append(clouds[1].copy())
        engine = BatchExecutor(partitioner, block_size=16, max_workers=1, fuse=True)
        report = engine.run(clouds, pipeline)
        assert [r.index for r in report.results] == list(range(len(clouds)))
        for coords, result in zip(clouds, report.results):
            ref = TestExecutorParity.reference_pipeline(
                coords, partitioner, 16, pipeline
            )
            assert np.array_equal(ref[0], result.sampled)
            assert np.array_equal(ref[1], result.neighbors)
            assert np.array_equal(ref[2], result.grouped)
            assert np.array_equal(ref[3], result.interpolated)
        assert report.results[-1].reused
        assert report.stats.reused == 1

    def test_fused_traces_match_serial(self):
        pipeline = PipelineSpec(radius=0.4, group_size=8)
        clouds = [make_cloud(96, seed=1000 + i) for i in range(3)]
        engine = BatchExecutor("kdtree", block_size=16, max_workers=1)
        fused = engine.run(clouds, pipeline, fuse=True)
        serial = engine.run(clouds, pipeline)
        for a, b in zip(fused.results, serial.results):
            assert set(a.traces) == set(b.traces)
            for op in a.traces:
                got = a.traces[op]
                want = b.traces[op]
                assert [
                    (w.block_id, w.n_points, w.n_search, w.n_centers,
                     w.n_outputs, w.widened)
                    for w in got.blocks
                ] == [
                    (w.block_id, w.n_points, w.n_search, w.n_centers,
                     w.n_outputs, w.widened)
                    for w in want.blocks
                ]

    def test_fused_with_features_and_widening(self):
        # Tiny sample budget forces candidate-starved blocks to widen to
        # their own cloud's candidate set, never a fused neighbour's.
        pipeline = PipelineSpec(num_samples=4, radius=0.3, group_size=4)
        rng = np.random.default_rng(7)
        clouds = [
            (rng.normal(size=(80, 3)), rng.normal(size=(80, 5)))
            for _ in range(3)
        ]
        engine = BatchExecutor("kdtree", block_size=8, max_workers=1)
        fused = engine.run(clouds, pipeline, fuse=True)
        serial = engine.run(clouds, pipeline)
        widened = 0
        for a, b in zip(fused.results, serial.results):
            widened += a.traces["interpolate"].num_widened
            assert np.array_equal(a.sampled, b.sampled)
            assert np.array_equal(a.grouped, b.grouped)
            assert np.array_equal(a.interpolated, b.interpolated)
        assert widened > 0  # the starved case was actually exercised


class TestMixedSizeFusedParity:
    """Mixed-size whole-cloud fusion: near-equal clouds bucket into one
    ragged problem with per-cloud sample quotas and offset tables, and
    every split-back result is bit-identical to the per-cloud serial
    reference."""

    @staticmethod
    def assert_parity(clouds, engine, pipeline, partitioner, block_size=16):
        report = engine.run(clouds, pipeline)
        assert [r.index for r in report.results] == list(range(len(clouds)))
        for coords, result in zip(clouds, report.results):
            ref = TestExecutorParity.reference_pipeline(
                coords, partitioner, block_size, pipeline
            )
            assert np.array_equal(ref[0], result.sampled)
            assert np.array_equal(ref[1], result.neighbors)
            assert np.array_equal(ref[2], result.grouped)
            assert np.array_equal(ref[3], result.interpolated)
        return report

    @pytest.mark.parametrize("partitioner", ("kdtree", "fractal", "uniform", "none"))
    def test_mixed_sizes_match_reference(self, partitioner):
        pipeline = PipelineSpec(radius=0.4, group_size=8)
        # Sizes straddle 128 and RAGGED_BLOCK_MAX (512), so one batch
        # spans small, mid-size and oversize clouds.
        sizes = (97, 120, 128, 131, 250, 500, 512, 530)
        clouds = [make_cloud(n, seed=1100 + n, duplicates=(n % 2 == 0))
                  for n in sizes]
        engine = BatchExecutor(
            partitioner, block_size=16, max_workers=1, fuse=True,
            fuse_max_spread=None,
        )
        self.assert_parity(clouds, engine, pipeline, partitioner)

    def test_single_point_cloud_in_fused_group(self):
        """n=1 clouds fuse with other tiny clouds (shared effective k=1)
        and still match the serial path exactly."""
        pipeline = PipelineSpec(radius=0.4, group_size=4)
        clouds = [make_cloud(n, seed=1200 + n) for n in (1, 2, 3, 4)]
        engine = BatchExecutor("kdtree", block_size=16, max_workers=1, fuse=True)
        self.assert_parity(clouds, engine, pipeline, "kdtree")

    def test_duplicates_deduped_inside_bucket(self):
        pipeline = PipelineSpec(radius=0.4, group_size=8)
        clouds = [make_cloud(n, seed=1300 + n) for n in (60, 70, 80)]
        batch = [clouds[0], clouds[1], clouds[0].copy(), clouds[2],
                 clouds[1].copy()]
        engine = BatchExecutor("kdtree", block_size=16, max_workers=1, fuse=True)
        report = self.assert_parity(batch, engine, pipeline, "kdtree")
        assert report.stats.reused == 2
        assert report.results[2].reused and report.results[4].reused

    def test_spread_budget_splits_buckets(self):
        """The scheduler never packs clouds whose size ratio exceeds the
        spread budget into one bucket, and the point budget caps bucket
        mass; parity holds either way."""
        pipeline = PipelineSpec(radius=0.4, group_size=8)
        clouds = [make_cloud(n, seed=1400 + n) for n in (20, 30, 200, 260)]
        engine = BatchExecutor(
            "kdtree", block_size=16, max_workers=1, fuse=True,
            fuse_max_spread=2.0,
        )
        buckets = engine._fuse_buckets([(i, c, None) for i, c in enumerate(clouds)])
        assert [[len(c) for _, c, _ in b] for b in buckets] == [[20, 30], [200, 260]]
        self.assert_parity(clouds, engine, pipeline, "kdtree")

        tight = BatchExecutor(
            "kdtree", block_size=16, max_workers=1, fuse=True,
            fuse_max_points=50, fuse_max_spread=None,
        )
        buckets = tight._fuse_buckets([(i, c, None) for i, c in enumerate(clouds)])
        assert [[len(c) for _, c, _ in b] for b in buckets] == [
            [20, 30], [200], [260]
        ]
        self.assert_parity(clouds, tight, pipeline, "kdtree")

    def test_mixed_sizes_with_features(self):
        pipeline = PipelineSpec(radius=0.35, group_size=6)
        rng = np.random.default_rng(17)
        clouds = [
            (rng.normal(size=(n, 3)), rng.normal(size=(n, 5)))
            for n in (50, 64, 90, 130)
        ]
        engine = BatchExecutor("kdtree", block_size=16, max_workers=1)
        fused = engine.run(clouds, pipeline, fuse=True)
        serial = engine.run(clouds, pipeline)  # per-cloud unfused path
        assert sum(not r.reused for r in serial.results) == len(clouds)
        for a, b in zip(fused.results, serial.results):
            assert np.array_equal(a.sampled, b.sampled)
            assert np.array_equal(a.neighbors, b.neighbors)
            assert np.array_equal(a.grouped, b.grouped)
            assert np.array_equal(a.interpolated, b.interpolated)

    def test_mixed_size_traces_match_serial(self):
        pipeline = PipelineSpec(radius=0.4, group_size=8)
        clouds = [make_cloud(n, seed=1500 + n) for n in (60, 75, 96)]
        engine = BatchExecutor("kdtree", block_size=16, max_workers=1)
        fused = engine.run(clouds, pipeline, fuse=True)
        serial = engine.run(clouds, pipeline)
        for a, b in zip(fused.results, serial.results):
            assert set(a.traces) == set(b.traces)
            for op in a.traces:
                assert [
                    (w.block_id, w.n_points, w.n_search, w.n_centers,
                     w.n_outputs, w.widened)
                    for w in a.traces[op].blocks
                ] == [
                    (w.block_id, w.n_points, w.n_search, w.n_centers,
                     w.n_outputs, w.widened)
                    for w in b.traces[op].blocks
                ]

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        sizes=st.lists(st.integers(1, 160), min_size=2, max_size=8),
        partitioner=st.sampled_from(["kdtree", "uniform", "fractal"]),
        spread=st.sampled_from([None, 2.0, 4.0]),
    )
    def test_random_size_mixes(self, seed, sizes, partitioner, spread):
        """Property: any mix of cloud sizes, any spread budget — fused
        results equal the per-cloud serial reference at the bit level."""
        rng = np.random.default_rng(seed)
        clouds = [rng.normal(size=(n, 3)) for n in sizes]
        pipeline = PipelineSpec(radius=0.5, group_size=4)
        engine = BatchExecutor(
            partitioner, block_size=8, max_workers=1, fuse=True,
            fuse_max_spread=spread,
        )
        report = engine.run(clouds, pipeline)
        for coords, result in zip(clouds, report.results):
            ref = TestExecutorParity.reference_pipeline(
                coords, partitioner, 8, pipeline
            )
            assert np.array_equal(ref[0], result.sampled)
            assert np.array_equal(ref[1], result.neighbors)
            assert np.array_equal(ref[3], result.interpolated)


def _adversarial_cloud(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "identical":  # every distance zero: argmax ties everywhere
        return np.tile(rng.normal(size=(1, 3)), (n, 1))
    if kind == "collinear":  # points on one line, with exact repeats
        steps = rng.integers(0, max(2, n // 2), size=(n, 1)).astype(np.float64)
        return rng.normal(size=(1, 3)) + steps * np.array([[1.0, 2.0, -0.5]])
    if kind == "huge_range":  # 1e6 spread: x² + y² + z² rounds at every add
        return rng.normal(size=(n, 3)) * np.array([1e6, 1.0, 1e-3]) + 1e6
    if kind == "float32":  # float32-origin coordinates widened to float64
        return rng.normal(size=(n, 3)).astype(np.float32).astype(np.float64)
    raise AssertionError(kind)


def _per_block_fps(structure, coords, quotas) -> np.ndarray:
    """The serial contract: ``farthest_point_sample`` block by block."""
    chunks = [
        block.indices[
            exact_ops.farthest_point_sample(coords[block.indices], int(quota))
        ]
        for block, quota in zip(structure.blocks, quotas)
        if quota
    ]
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


class TestColumnFormFps:
    """``fps_on_layout`` runs the recurrence one coordinate column at a
    time; the picks must equal per-block ``farthest_point_sample`` where
    the arithmetic is least forgiving."""

    KINDS = ("identical", "collinear", "huge_range", "float32")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("partitioner", ("fractal", "kdtree", "uniform"))
    @pytest.mark.parametrize("n", (1, 5, 64, 300))
    def test_adversarial_geometry(self, kind, partitioner, n):
        coords = _adversarial_cloud(kind, n, seed=n)
        structure = structure_for(partitioner, coords, block_size=16)
        quotas = bppo.allocate_samples(
            structure.block_sizes, max(1, n // 2), clamp=True
        )
        layout = ragged.RaggedBlocks.from_structure(structure, coords)
        assert np.array_equal(
            ragged.fps_on_layout(layout, quotas),
            _per_block_fps(structure, coords, quotas),
        )

    def test_one_point_blocks_among_big_ones(self):
        """Singleton blocks sit between sampled neighbours: their segment
        is one slot wide and finishes on the seed pick."""
        from repro.core.blocks import Block, BlockStructure, PartitionCost

        sizes = [1, 40, 1, 1, 17, 1]
        bounds = np.cumsum([0] + sizes)
        blocks = [Block(np.arange(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        structure = BlockStructure(
            num_points=int(bounds[-1]),
            blocks=blocks,
            search_spaces=[b.indices.copy() for b in blocks],
            cost=PartitionCost(),
        )
        coords = make_cloud(int(bounds[-1]), seed=4, duplicates=True)
        quotas = np.array([1, 40, 0, 1, 9, 1])
        layout = ragged.RaggedBlocks.from_structure(structure, coords)
        assert np.array_equal(
            ragged.fps_on_layout(layout, quotas),
            _per_block_fps(structure, coords, quotas),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 150), min_size=2, max_size=5),
        rates=st.lists(st.floats(0.05, 1.0), min_size=5, max_size=5),
        kinds=st.lists(st.sampled_from(KINDS), min_size=5, max_size=5),
        seed=st.integers(0, 1000),
    )
    def test_fused_layout_with_unequal_quotas(self, sizes, rates, kinds, seed):
        """Clouds of different sizes, geometries and sampling rates in
        one fused layout: every cloud's slice is its own serial result."""
        clouds = [
            _adversarial_cloud(kind, n, seed + i)
            for i, (n, kind) in enumerate(zip(sizes, kinds))
        ]
        structures = [structure_for("fractal", c, block_size=16) for c in clouds]
        quotas = [
            bppo.allocate_samples(s.block_sizes, max(1, int(rate * n)), clamp=True)
            for s, rate, n in zip(structures, rates, sizes)
        ]
        fused = ragged.RaggedBlocks.concatenate(
            [ragged.RaggedBlocks.from_structure(s, c)
             for s, c in zip(structures, clouds)]
        )
        picked = ragged.fps_on_layout(fused, np.concatenate(quotas))
        expected = [
            _per_block_fps(s, c, q) + offset
            for s, c, q, offset in zip(
                structures, clouds, quotas, fused.group_point_offsets
            )
        ]
        assert np.array_equal(picked, np.concatenate(expected))

    def test_layout_keeps_row_view_of_columns(self):
        coords = make_cloud(50, seed=2)
        structure = structure_for("kdtree", coords)
        layout = ragged.RaggedBlocks.from_structure(structure, coords)
        assert layout.columns.shape == (3, 50)
        assert layout.columns.flags.c_contiguous
        assert np.array_equal(layout.coords, coords[layout.perm])


@pytest.mark.slow
class TestLargeCloudParity:
    """Large-n spot checks, excluded from tier-1 by the ``slow`` marker."""

    @pytest.mark.parametrize("partitioner", ("kdtree", "octree"))
    def test_large_cloud(self, partitioner):
        coords = make_cloud(20_000, seed=1)
        structure = structure_for(partitioner, coords, block_size=256)
        serial, _ = bppo.block_fps(structure, coords, 5000)
        fused, _ = ragged.ragged_fps(structure, coords, 5000)
        assert np.array_equal(serial, fused)
        b_serial, _ = bppo.block_ball_query(structure, coords, serial, 0.1, 32)
        b_fused, _ = ragged.ragged_ball_query(structure, coords, serial, 0.1, 32)
        assert np.array_equal(b_serial, b_fused)
