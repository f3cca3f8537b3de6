"""The cold path: a partition built on a cache miss, then sampled — by
:func:`repro.core.dispatch.run_build`, or by a fused window's one ragged
FPS pass over all its cold clouds.  Both must equal ``partitioner(coords)``
then ``block_fps`` bit for bit, and ``run_build`` must honour explicit >
environment > cost model for its FPS kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import bppo, dispatch
from repro.geometry.ops import _DIRECT_FORM_MAX
from repro.partition import get_partitioner
from repro.runtime import executor
from repro.runtime.executor import BatchExecutor, PipelineSpec

STRATEGIES = ("fractal", "kdtree", "octree", "uniform")

# Sizes straddling the distance-kernel form switch (n^2 vs expanded at
# _DIRECT_FORM_MAX = 512 work products) and the partition threshold.
SIZES = (1, 5, 40, 256, 513, 1500)


def _cloud(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3))


def _assert_traces_equal(ta, tb):
    assert ta.kind == tb.kind
    assert len(ta.blocks) == len(tb.blocks)
    for wa, wb in zip(ta.blocks, tb.blocks):
        assert (wa.block_id, wa.n_points, wa.n_search, wa.n_centers,
                wa.n_outputs) == (
            wb.block_id, wb.n_points, wb.n_search, wb.n_centers, wb.n_outputs)


def _assert_fused_cold_matches(strategy, block, clouds, pipeline):
    """Run ``clouds`` as one fused window on a cold engine and compare
    every cloud's samples and per-block sample counts with
    build-then-``block_fps``."""
    report = BatchExecutor(
        strategy, block_size=block, fuse=True,
        reuse_results=False, fuse_max_spread=None,
    ).run(clouds, pipeline)
    partitioner = get_partitioner(strategy, max_points_per_block=block)
    for coords, result in zip(clouds, report.results):
        assert result.partition_source == "cold"
        ref_s = partitioner(coords)
        ref_idx, ref_trace = bppo.block_fps(
            ref_s, coords, pipeline.samples_for(len(coords))
        )
        assert result.num_blocks == ref_s.num_blocks
        assert np.array_equal(result.sampled, ref_idx)
        counts = np.bincount(
            ref_s.block_of_point()[result.sampled], minlength=ref_s.num_blocks
        )
        assert counts.tolist() == [w.n_centers for w in ref_trace.blocks]


class TestFusedParity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n", SIZES)
    def test_bit_identical_to_build_then_sample(self, strategy, n):
        clouds = [_cloud(n, seed=n), _cloud(n, seed=n + 1)]
        for ratio in (0.02, 0.25, 1.0):
            _assert_fused_cold_matches(
                strategy, 128, clouds, PipelineSpec(sample_ratio=ratio)
            )

    def test_straddles_direct_form_boundary(self):
        # Block size chosen so per-block FPS work products land on both
        # sides of the distance-kernel switch.
        for n in (_DIRECT_FORM_MAX - 1, _DIRECT_FORM_MAX, _DIRECT_FORM_MAX + 1):
            coords = _cloud(n, seed=7)
            _assert_fused_cold_matches(
                "kdtree", 64, [coords, coords[::-1].copy()],
                PipelineSpec(num_samples=len(coords) // 4),
            )

    @settings(max_examples=25, deadline=None)
    @given(
        strategy=st.sampled_from(STRATEGIES),
        sizes=st.lists(st.integers(1, 800), min_size=2, max_size=3),
        ratio=st.floats(0.01, 1.0),
        seed=st.integers(0, 10_000),
        block=st.sampled_from((32, 64, 256)),
    )
    def test_parity_property(self, strategy, sizes, ratio, seed, block):
        clouds = [_cloud(n, seed + i) for i, n in enumerate(sizes)]
        _assert_fused_cold_matches(
            strategy, block, clouds, PipelineSpec(sample_ratio=ratio)
        )

    def test_degenerate_coincident_points(self):
        clouds = [np.zeros((300, 3)), np.ones((300, 3))]
        for strategy in STRATEGIES:
            _assert_fused_cold_matches(
                strategy, 64, clouds, PipelineSpec(num_samples=10)
            )


class TestBuildDispatch:
    def test_validate_rejects_unknown(self):
        partitioner = get_partitioner("kdtree", max_points_per_block=16)
        with pytest.raises(ValueError, match="kernel must be one of"):
            dispatch.run_build(partitioner, _cloud(40, 0), 8, kernel="sideways")

    def test_run_build_matches_reference(self):
        partitioner = get_partitioner("fractal", max_points_per_block=64)
        coords = _cloud(900, seed=11)
        structure, sampled, trace = dispatch.run_build(partitioner, coords, 200)
        ref_s = partitioner(coords)
        ref_idx, ref_trace = bppo.block_fps(ref_s, coords, 200)
        assert structure.num_blocks == ref_s.num_blocks
        for a, b in zip(structure.blocks, ref_s.blocks):
            assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(sampled, ref_idx)
        _assert_traces_equal(trace, ref_trace)

    @staticmethod
    def _forbid(monkeypatch, kernel):
        monkeypatch.setitem(dispatch.KERNELS["fps"], kernel, None)  # not callable

    def test_explicit_beats_env(self, monkeypatch):
        partitioner = get_partitioner("kdtree", max_points_per_block=16)
        monkeypatch.setenv(dispatch.KERNEL_ENV, "ragged")
        self._forbid(monkeypatch, "ragged")
        dispatch.run_build(partitioner, _cloud(200, 1), 50, kernel="loop")

    def test_env_fills_in_for_auto(self, monkeypatch):
        # One block: the cost model alone would run the loop.
        partitioner = get_partitioner("kdtree", max_points_per_block=256)
        monkeypatch.setenv(dispatch.KERNEL_ENV, "ragged")
        self._forbid(monkeypatch, "loop")
        dispatch.run_build(partitioner, _cloud(200, 1), 50, kernel="auto")


class TestExecutorIntegration:
    def test_engine_validates_build_kernel(self):
        # There is one cold build, so no keyword selects it.
        with pytest.raises(TypeError, match="build_kernel"):
            BatchExecutor("fractal", build_kernel="fused")

    def test_fused_cold_build_skips_separate_fps(self, monkeypatch):
        """A fused window samples its cold clouds in one ragged FPS pass
        over the concatenated layout, never one dispatched FPS per cloud."""
        ops, passes = [], []
        run_op, fps_on_layout = dispatch.run_op, executor.fps_on_layout

        def spy_op(op, *args, **kwargs):
            ops.append(op)
            return run_op(op, *args, **kwargs)

        def spy_fps(*args, **kwargs):
            passes.append(args[0].num_groups)
            return fps_on_layout(*args, **kwargs)

        monkeypatch.setattr(executor.dispatch, "run_op", spy_op)
        monkeypatch.setattr(executor, "fps_on_layout", spy_fps)
        engine = BatchExecutor(
            "fractal", reuse_results=False, fuse=True,
        )
        report = engine.run(
            [_cloud(500, seed=1), _cloud(500, seed=2)],
            PipelineSpec(sample_ratio=0.5),
        )
        assert [r.partition_source for r in report.results] == ["cold"] * 2
        assert passes == [2]
        assert "fps" not in ops
