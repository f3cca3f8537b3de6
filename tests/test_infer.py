"""Served network inference ≡ the offline per-cloud reference, bit for bit.

Proof obligations of the inference path (all at ``array_equal`` level,
never ``allclose``):

1. delayed aggregation (per-point MLP, then gather + pool) equals eager
   aggregation (gather, then MLP + pool) on every registry model — the
   Mesorasi restructuring must be invisible in the output;
2. the engine's model pipelines — per-cloud and fused-window — equal
   :func:`repro.infer.run_offline` on each cloud alone, for every model,
   every aggregation mode, and every kernel selection (explicit and via
   ``REPRO_KERNEL``);
3. multi-tenant serving with per-tenant models stays bit-identical to
   the offline reference, whatever the window composition;
4. a hypothesis sweep over ragged size mixes keeps obligation 2 true for
   arbitrary fused-bucket shapes.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import dispatch
from repro.infer import MODEL_NAMES, model_spec, run_offline
from repro.runtime import BatchExecutor, PipelineSpec
from repro.serve import MultiTenantServer, TenantSpec

#: Ragged sizes straddling the models' stage clamps (n_out=64 at 256
#: nominal points): tiny clouds clamp every stage, larger ones do not.
SIZES = (64, 97, 150, 210)


def make_cloud(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3))


class TestRegistry:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            model_spec("resnet50")

    def test_pipeline_spec_validates_agg(self):
        with pytest.raises(ValueError, match="agg"):
            PipelineSpec(model="pointnet2-cls", agg="lazy")

    def test_thread_local_instances_are_bit_identical(self):
        """Deterministic seeds: which thread serves a request never shows."""
        coords = make_cloud(120, seed=0)
        outs = {}

        def worker(tag):
            outs[tag] = run_offline("pointnet2-cls", coords)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert np.array_equal(outs[0], outs[1])


class TestAggDispatch:
    def test_choose_prefers_delayed_when_macs_dominate(self):
        # A wide mid-network stage (64-channel features in and out) at 8x
        # neighbour overlap: eager pays the GEMM on 32K gathered rows,
        # delayed on the 4K input rows, and the output gather it adds
        # costs less than the spared MAC work.
        assert dispatch.choose_agg(4096, 1024, 32, (67, 128, 64)) == "delayed"

    def test_choose_prefers_eager_when_centers_are_few(self):
        # 4 centres × 2 neighbours: eager touches 8 rows, delayed all 4096.
        assert dispatch.choose_agg(4096, 4, 2, (3, 64, 64)) == "eager"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(dispatch.AGG_ENV, "eager")
        assert dispatch.resolve_agg("delayed") == "delayed"

    def test_env_fills_in_for_auto(self, monkeypatch):
        monkeypatch.setenv(dispatch.AGG_ENV, "eager")
        assert dispatch.resolve_agg("auto") == "eager"

    def test_auto_without_shape_falls_back_to_delayed(self):
        assert dispatch.resolve_agg("auto") == "delayed"

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_eager_delayed_auto_bit_identical(self, name):
        coords = make_cloud(150, seed=3)
        eager = run_offline(name, coords, agg="eager")
        assert np.array_equal(eager, run_offline(name, coords, agg="delayed"))
        assert np.array_equal(eager, run_offline(name, coords, agg="auto"))


class TestEngineParity:
    """Engine model pipelines ≡ run_offline, per cloud."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("fuse", [False, True])
    def test_engine_matches_offline(self, name, fuse):
        clouds = [make_cloud(n, seed=10 + n) for n in SIZES]
        engine = BatchExecutor("fractal", max_workers=1, fuse=fuse)
        report = engine.run(clouds, PipelineSpec(model=name, agg="delayed"))
        for result, coords in zip(report.results, clouds):
            ref = run_offline(name, coords, agg="delayed")
            assert np.array_equal(result.model_output, ref)
            # Model pipelines leave the point-op fields empty.
            assert result.sampled.size == 0
            assert result.interpolated is None

    @pytest.mark.parametrize("kernel", ["loop", "ragged"])
    def test_kernel_env_matrix(self, kernel, monkeypatch):
        """REPRO_KERNEL never changes the served logits."""
        coords = make_cloud(130, seed=5)
        baseline = run_offline("pointnet2-cls", coords, kernel="loop")
        monkeypatch.setenv(dispatch.KERNEL_ENV, kernel)
        engine = BatchExecutor("fractal", max_workers=1, fuse=True)
        report = engine.run(
            [coords], PipelineSpec(model="pointnet2-cls", agg="delayed")
        )
        assert np.array_equal(report.results[0].model_output, baseline)

    def test_duplicate_clouds_replay(self):
        coords = make_cloud(90, seed=7)
        engine = BatchExecutor("fractal", max_workers=1, fuse=True)
        report = engine.run(
            [coords, coords.copy()],
            PipelineSpec(model="pointnet2-cls", agg="delayed"),
        )
        assert report.results[1].reused
        assert np.array_equal(
            report.results[0].model_output, report.results[1].model_output
        )

    @settings(deadline=None, max_examples=8)
    @given(
        sizes=st.lists(st.integers(16, 140), min_size=1, max_size=5),
        agg=st.sampled_from(["eager", "delayed"]),
    )
    def test_fused_window_parity_over_ragged_mixes(self, sizes, agg):
        """Whatever the bucket composition, fused ≡ offline per cloud."""
        clouds = [make_cloud(n, seed=1000 + i) for i, n in enumerate(sizes)]
        engine = BatchExecutor(
            "fractal", max_workers=1, fuse=True, reuse_results=False
        )
        report = engine.run(clouds, PipelineSpec(model="pointnet2-cls", agg=agg))
        for result, coords in zip(report.results, clouds):
            ref = run_offline("pointnet2-cls", coords, agg=agg)
            assert np.array_equal(result.model_output, ref)


class TestSegmenterParity:
    def test_per_point_outputs_split_back(self):
        clouds = [make_cloud(n, seed=40 + n) for n in (80, 130)]
        engine = BatchExecutor("fractal", max_workers=1, fuse=True)
        report = engine.run(
            clouds, PipelineSpec(model="pointnet2-seg", agg="delayed")
        )
        for result, coords in zip(report.results, clouds):
            assert result.model_output.shape[0] == len(coords)
            ref = run_offline("pointnet2-seg", coords, agg="delayed")
            assert np.array_equal(result.model_output, ref)


class TestServedInference:
    """Multi-tenant serving with per-tenant models ≡ offline reference."""

    def drain_all(self, server):
        out = []
        while server.backlog:
            out.extend(server.drain(now=0.0))
        return out

    def test_mixed_model_tenants_bit_identical(self):
        roster = {
            "cls": ("pointnet2-cls", [make_cloud(n, seed=n) for n in (70, 120)]),
            "msg": ("pointnet2-msg-cls", [make_cloud(95, seed=2)]),
            "seg": ("pointnet2-seg", [make_cloud(85, seed=9)]),
        }
        engine = BatchExecutor("fractal", max_workers=1)
        server = MultiTenantServer(
            engine,
            [
                TenantSpec(name, PipelineSpec(model=model, agg="delayed"))
                for name, (model, _) in roster.items()
            ],
        )
        for name, (_, clouds) in roster.items():
            for cloud in clouds:
                server.submit(name, cloud, arrived=0.0)
        served = self.drain_all(server)
        per_tenant = {name: [] for name in roster}
        for emission in served:
            per_tenant[emission.tenant].append(emission)
        for name, (model, clouds) in roster.items():
            assert [e.seq for e in per_tenant[name]] == list(range(len(clouds)))
            for emission, coords in zip(per_tenant[name], clouds):
                ref = run_offline(model, coords, agg="delayed")
                assert np.array_equal(emission.result.model_output, ref)
