"""Cold-path fusion: the fused build-and-sample kernel must be
bit-identical to build-then-sample, and the build-kernel dispatch must
honour the explicit > environment > cost-model precedence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import bppo, dispatch
from repro.core.coldpath import (
    FusedBuildUnsupported,
    fused_build_and_sample,
    supports_fused_build,
)
from repro.geometry.ops import _DIRECT_FORM_MAX
from repro.partition import get_partitioner
from repro.runtime.executor import BatchExecutor, PipelineSpec

STRATEGIES = ("fractal", "kdtree", "octree", "uniform")

# Sizes straddling the distance-kernel form switch (n^2 vs expanded at
# _DIRECT_FORM_MAX = 512 work products) and the partition threshold.
SIZES = (1, 5, 40, 256, 513, 1500)


def _cloud(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3))


def _assert_structures_equal(a, b):
    assert a.num_points == b.num_points
    assert a.num_blocks == b.num_blocks
    assert a.strategy == b.strategy
    for ba, bb in zip(a.blocks, b.blocks):
        assert np.array_equal(ba.indices, bb.indices)
        assert ba.depth == bb.depth
    for sa, sb in zip(a.search_spaces, b.search_spaces):
        assert np.array_equal(sa, sb)
    assert a.cost.levels == b.cost.levels
    assert a.cost.traversals == b.cost.traversals
    assert a.cost.passes == b.cost.passes
    assert a.cost.sorts == b.cost.sorts


def _assert_traces_equal(ta, tb):
    assert ta.kind == tb.kind
    assert len(ta.blocks) == len(tb.blocks)
    for wa, wb in zip(ta.blocks, tb.blocks):
        assert (wa.block_id, wa.n_points, wa.n_search, wa.n_centers,
                wa.n_outputs) == (
            wb.block_id, wb.n_points, wb.n_search, wb.n_centers, wb.n_outputs)


class TestFusedParity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n", SIZES)
    def test_bit_identical_to_build_then_sample(self, strategy, n):
        partitioner = get_partitioner(strategy, max_points_per_block=128)
        coords = _cloud(n, seed=n)
        for ratio in (0.02, 0.25, 1.0):
            num_samples = max(1, round(ratio * n))
            fused_s, fused_idx, fused_trace = fused_build_and_sample(
                partitioner, coords, num_samples
            )
            ref_s = partitioner(coords)
            ref_idx, ref_trace = bppo.block_fps(ref_s, coords, num_samples)
            _assert_structures_equal(fused_s, ref_s)
            assert np.array_equal(fused_idx, ref_idx)
            _assert_traces_equal(fused_trace, ref_trace)

    def test_straddles_direct_form_boundary(self):
        # Block size chosen so per-block FPS work products land on both
        # sides of the distance-kernel switch.
        partitioner = get_partitioner("kdtree", max_points_per_block=64)
        for n in (_DIRECT_FORM_MAX - 1, _DIRECT_FORM_MAX,
                  _DIRECT_FORM_MAX + 1):
            coords = _cloud(n, seed=7)
            fused_s, fused_idx, _ = fused_build_and_sample(
                partitioner, coords, n // 4
            )
            ref_s = partitioner(coords)
            ref_idx, _ = bppo.block_fps(ref_s, coords, n // 4)
            assert np.array_equal(fused_idx, ref_idx)

    @settings(max_examples=40, deadline=None)
    @given(
        strategy=st.sampled_from(STRATEGIES),
        n=st.integers(1, 800),
        ratio=st.floats(0.01, 1.0),
        seed=st.integers(0, 10_000),
        block=st.sampled_from((32, 64, 256)),
    )
    def test_parity_property(self, strategy, n, ratio, seed, block):
        partitioner = get_partitioner(strategy, max_points_per_block=block)
        coords = _cloud(n, seed)
        num_samples = max(1, round(ratio * n))
        fused_s, fused_idx, fused_trace = fused_build_and_sample(
            partitioner, coords, num_samples
        )
        ref_s = partitioner(coords)
        ref_idx, ref_trace = bppo.block_fps(ref_s, coords, num_samples)
        _assert_structures_equal(fused_s, ref_s)
        assert np.array_equal(fused_idx, ref_idx)
        _assert_traces_equal(fused_trace, ref_trace)

    def test_degenerate_coincident_points(self):
        coords = np.zeros((300, 3))
        for strategy in STRATEGIES:
            partitioner = get_partitioner(strategy, max_points_per_block=64)
            fused_s, fused_idx, _ = fused_build_and_sample(
                partitioner, coords, 10
            )
            ref_s = partitioner(coords)
            ref_idx, _ = bppo.block_fps(ref_s, coords, 10)
            _assert_structures_equal(fused_s, ref_s)
            assert np.array_equal(fused_idx, ref_idx)

    def test_unsupported_partitioner_raises(self):
        class Bare:
            def __call__(self, coords):  # pragma: no cover - never called
                raise AssertionError

        assert not supports_fused_build(Bare())
        with pytest.raises(FusedBuildUnsupported):
            fused_build_and_sample(Bare(), _cloud(10, 0), 2)


class TestBuildDispatch:
    def test_validate_rejects_unknown(self):
        with pytest.raises(ValueError, match="build kernel"):
            dispatch.validate_build_kernel("sideways")

    def test_cost_model_prefers_fused_at_dense_quotas(self):
        partitioner = get_partitioner("kdtree", max_points_per_block=128)
        # Up to two expected blocks with a sample for each: the per-leaf
        # loop is the FPS kernel auto would pick anyway, fusion ties it
        # and spares a dispatch.
        assert dispatch.choose_build_kernel(partitioner, 256, 64) == "fused"
        # More blocks: the two-pass build reaches the ragged FPS, which
        # beats every per-leaf loop.
        assert (
            dispatch.choose_build_kernel(partitioner, 1024, 256)
            == "build_then_sample"
        )
        # Fewer samples than blocks: the eager per-leaf candidate is
        # mostly wasted, build-then-sample wins.
        assert (
            dispatch.choose_build_kernel(partitioner, 256, 1)
            == "build_then_sample"
        )

    def test_explicit_beats_env(self, monkeypatch):
        partitioner = get_partitioner("kdtree", max_points_per_block=128)
        monkeypatch.setenv(dispatch.BUILD_KERNEL_ENV, "build_then_sample")
        assert (
            dispatch.resolve_build_kernel(partitioner, 1024, 256, "fused")
            == "fused"
        )

    def test_env_fills_in_for_auto(self, monkeypatch):
        partitioner = get_partitioner("kdtree", max_points_per_block=128)
        monkeypatch.setenv(dispatch.BUILD_KERNEL_ENV, "build_then_sample")
        assert (  # the cost model alone says fused here
            dispatch.resolve_build_kernel(partitioner, 256, 64, "auto")
            == "build_then_sample"
        )
        monkeypatch.setenv(dispatch.BUILD_KERNEL_ENV, "fused")
        assert (
            dispatch.resolve_build_kernel(partitioner, 1024, 2, "auto")
            == "fused"
        )

    def test_fused_clamps_on_unsupported_partitioner(self):
        class Bare:
            pass

        assert (
            dispatch.resolve_build_kernel(Bare(), 1024, 256, "fused")
            == "build_then_sample"
        )

    @pytest.mark.parametrize("kernel", ("build_then_sample", "fused"))
    def test_run_build_parity(self, kernel):
        partitioner = get_partitioner("fractal", max_points_per_block=64)
        coords = _cloud(900, seed=11)
        structure, sampled, trace, name = dispatch.run_build(
            partitioner, coords, 200, kernel=kernel
        )
        assert name == kernel
        ref_s = partitioner(coords)
        ref_idx, ref_trace = bppo.block_fps(ref_s, coords, 200)
        _assert_structures_equal(structure, ref_s)
        assert np.array_equal(sampled, ref_idx)
        _assert_traces_equal(trace, ref_trace)


class TestExecutorIntegration:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_engine_results_identical_across_build_kernels(self, strategy):
        clouds = [_cloud(n, seed=n) for n in (60, 300, 900)]
        pipeline = PipelineSpec(sample_ratio=0.25)
        reports = {}
        for kernel in ("build_then_sample", "fused"):
            engine = BatchExecutor(
                strategy, mode="serial", reuse_results=False,
                build_kernel=kernel, cache_size=1,
            )
            reports[kernel] = engine.run(clouds, pipeline)
        for a, b in zip(
            reports["fused"].results, reports["build_then_sample"].results
        ):
            assert np.array_equal(a.sampled, b.sampled)
            assert np.array_equal(a.neighbors, b.neighbors)
            assert np.array_equal(a.grouped, b.grouped)
            assert np.array_equal(a.interpolated, b.interpolated)
            assert set(a.traces) == {"fps", "ball_query", "gather",
                                     "interpolate"}
            _assert_traces_equal(a.traces["fps"], b.traces["fps"])

    def test_engine_validates_build_kernel(self):
        with pytest.raises(ValueError, match="build kernel"):
            BatchExecutor("fractal", build_kernel="nope")

    def test_fused_cold_build_skips_separate_fps(self, monkeypatch):
        calls = []
        original = dispatch.run_op

        def spy(op, *args, **kwargs):
            calls.append(op)
            return original(op, *args, **kwargs)

        monkeypatch.setattr(
            "repro.runtime.executor.dispatch.run_op", spy
        )
        engine = BatchExecutor(
            "fractal", mode="serial", reuse_results=False,
            build_kernel="fused",
        )
        engine.run([_cloud(500, seed=1)], PipelineSpec(sample_ratio=0.5))
        # The fused build already produced the FPS result; only the
        # downstream stages go through run_op.
        assert "fps" not in calls
        assert "ball_query" in calls
