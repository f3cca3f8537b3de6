"""Tests for the batched multi-cloud execution engine."""

import numpy as np
import pytest

import test_batch_parity as parity

from repro.geometry import PointCloud
from repro.partition import get_partitioner
from repro.runtime import (
    BatchExecutor,
    PartitionCache,
    PipelineSpec,
    content_key,
    result_key,
)
from repro.serve import (
    LoadSpec,
    MultiTenantServer,
    TenantSpec,
    WindowConfig,
    WindowedServer,
    generate,
)
from repro.shard import ShardRouter


def make_clouds(count, seed=0, max_n=400):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(int(rng.integers(1, max_n)), 3)) for _ in range(count)]


class TestPipelineSpec:
    def test_ratio_clamped_to_cloud(self):
        spec = PipelineSpec(sample_ratio=0.25)
        assert spec.samples_for(100) == 25
        assert spec.samples_for(1) == 1  # never zero

    def test_absolute_count_clamped(self):
        spec = PipelineSpec(num_samples=512)
        assert spec.samples_for(10_000) == 512
        assert spec.samples_for(50) == 50  # tiny cloud survives


class TestPartitionCache:
    def test_hit_on_identical_content(self):
        cache = PartitionCache(get_partitioner("kdtree", max_points_per_block=32))
        coords = np.random.default_rng(0).normal(size=(200, 3))
        _, hit0 = cache.get(coords)
        _, hit1 = cache.get(coords.copy())  # same content, new object
        assert (hit0, hit1) == (False, True)
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = PartitionCache(
            get_partitioner("kdtree", max_points_per_block=32), maxsize=2
        )
        clouds = make_clouds(3, seed=1)
        for c in clouds:
            cache.get(c)
        assert len(cache) == 2
        _, hit = cache.get(clouds[0])  # oldest was evicted
        assert not hit

    def test_content_key_distinguishes_shape(self):
        flat = np.zeros((6, 3))
        assert content_key(flat) != content_key(flat[:4])

    def test_content_key_distinguishes_dtype(self):
        """Regression: the digest hashed shape and raw bytes but not the
        dtype, so same-shape arrays with identical raw bytes under
        different input dtypes collided (all-zero int64 vs all-zero
        float64)."""
        ints = np.zeros((4, 3), dtype=np.int64)
        floats = np.zeros((4, 3), dtype=np.float64)
        assert ints.tobytes() == floats.tobytes()  # the collision setup
        assert content_key(ints) != content_key(floats)  # input dtype hashed
        # Value-equal inputs of one dtype still share a key (cache replay).
        assert content_key(floats) == content_key(floats.copy())

    def test_content_key_is_full_precision(self):
        """Clouds one float64 ulp apart are float32-equal but must never
        share a partition-cache or dedup key."""
        a = np.random.default_rng(13).normal(size=(50, 3))
        b = a.copy()
        b[0, 0] = np.nextafter(a[0, 0], np.inf)
        assert np.array_equal(a.astype(np.float32), b.astype(np.float32))
        assert content_key(a) != content_key(b)

    def test_construction_dtype_is_the_dedup_contract(self):
        """Companion regression: datasets pin float32 at PointCloud
        construction, and dedup keys on the *source* dtype — so a call
        site that upcasts per call (``coords.astype(np.float64)``, as
        the training loop once did) forks the key and defeats every
        content-addressed reuse path behind it."""
        cloud = np.arange(12, dtype=np.float32).reshape(4, 3)
        assert content_key(cloud) == content_key(cloud.copy())
        assert content_key(cloud) != content_key(cloud.astype(np.float64))


class TestBatchExecutor:
    def test_results_in_submission_order(self):
        clouds = make_clouds(7, seed=2)
        report = BatchExecutor("kdtree", block_size=32).run(clouds)
        assert [r.index for r in report.results] == list(range(7))
        assert [r.num_points for r in report.results] == [len(c) for c in clouds]

    def test_stats_accounting(self):
        clouds = make_clouds(5, seed=3)
        report = BatchExecutor("kdtree", block_size=32).run(clouds)
        stats = report.stats
        assert stats.clouds == 5
        assert stats.points == sum(len(c) for c in clouds)
        assert stats.wall_seconds > 0 and stats.clouds_per_second > 0
        assert stats.cache_misses == 5 and stats.cache_hits == 0

    def test_dedup_replays_identical_clouds(self):
        clouds = make_clouds(4, seed=4)
        batch = clouds + [clouds[1], clouds[2]]
        report = BatchExecutor("kdtree", block_size=32).run(batch)
        assert report.stats.reused == 2
        for orig, rep in ((1, 4), (2, 5)):
            assert report.results[rep].reused
            assert np.array_equal(
                report.results[orig].sampled, report.results[rep].sampled
            )

    def test_dedup_requires_exact_float64_content(self):
        """Regression: reuse keyed on a float32 hash once conflated
        distinct float64 clouds; results must only replay for bit-equal
        input."""
        rng = np.random.default_rng(12)
        a = rng.normal(size=(60, 3))
        b = a.copy()
        b[0, 0] = np.nextafter(a[0, 0], np.inf)  # one float64 ulp apart
        assert np.float32(a[0, 0]) == np.float32(b[0, 0])  # float32-equal
        report = BatchExecutor("kdtree", block_size=32).run([a, b])
        assert report.stats.reused == 0
        assert not report.results[1].reused

    def test_float32_equal_clouds_get_their_own_partition(self):
        """Regression: the partition cache keyed at float32, so a cloud
        equal to a served one at float32 but not at float64 was handed
        the first cloud's partition.  With a point on the root split
        plane (x = 0.5 between corners pinned at 0 and 1), a 1e-12 nudge
        moves it across the plane, and every output of the second cloud
        came back different from its own serial reference."""
        a = np.random.default_rng(0).random((600, 3))
        a[0], a[1] = 0.0, 1.0
        a[2, 0] = 0.5
        b = a.copy()
        b[2, 0] = 0.5 + 1e-12
        assert np.array_equal(a.astype(np.float32), b.astype(np.float32))
        pipeline = PipelineSpec()
        engine = BatchExecutor("fractal", block_size=64)
        engine.run_cloud(a, pipeline)
        result = engine.run_cloud(b, pipeline)
        assert not result.cache_hit
        ref = parity.TestExecutorParity.reference_pipeline(
            b, "fractal", 64, pipeline
        )
        assert np.array_equal(ref[0], result.sampled)
        assert np.array_equal(ref[1], result.neighbors)
        assert np.array_equal(ref[2], result.grouped)
        assert np.array_equal(ref[3], result.interpolated)

    def test_dedup_disabled(self):
        clouds = make_clouds(2, seed=5)
        batch = clouds + [clouds[0]]
        engine = BatchExecutor(
            "kdtree", block_size=32, reuse_results=False
        )
        report = engine.run(batch)
        assert report.stats.reused == 0
        assert report.stats.cache_hits == 1  # partition cache still works

    def test_features_flow_through(self):
        rng = np.random.default_rng(6)
        coords = rng.normal(size=(150, 3))
        feats = rng.normal(size=(150, 9))
        result = BatchExecutor("octree", block_size=16).run_cloud((coords, feats))
        assert result.grouped.shape[-1] == 9
        assert result.interpolated.shape == (150, 9)

    def test_point_cloud_objects_accepted(self):
        coords = np.random.default_rng(7).normal(size=(80, 3))
        result = BatchExecutor("kdtree", block_size=16).run_cloud(
            PointCloud(coords=coords)
        )
        assert result.num_points == 80

    def test_stream_is_lazy_and_ordered(self):
        pulled = []

        def source():
            for i, c in enumerate(make_clouds(6, seed=8)):
                pulled.append(i)
                yield c

        engine = BatchExecutor("kdtree", block_size=32)
        stream = engine.stream(source())
        first = next(stream)
        assert first.index == 0
        assert len(pulled) < 6  # backpressure: source not fully drained
        rest = list(stream)
        assert [r.index for r in rest] == [1, 2, 3, 4, 5]

    def test_tiny_and_single_point_clouds(self):
        engine = BatchExecutor("uniform", block_size=16)
        result = engine.run_cloud(np.zeros((1, 3)))
        assert result.sampled.tolist() == [0]
        assert result.neighbors.shape == (1, 16)
        assert result.interpolated.shape == (1, 3)

    def test_fixed_num_samples_clamped_on_small_cloud(self):
        engine = BatchExecutor("kdtree", block_size=32)
        result = engine.run_cloud(
            np.random.default_rng(9).normal(size=(20, 3)),
            PipelineSpec(num_samples=500),
        )
        assert len(result.sampled) == 20

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            BatchExecutor("kdtree", mode="fleet")

    def test_worker_pool_settings_point_to_shards(self):
        """The engine is serial; the retired pool settings fail loudly and
        name the shard router as the multi-core path."""
        for kwargs in (dict(mode="thread"), dict(mode="process"),
                       dict(max_workers=2)):
            with pytest.raises(ValueError, match="ShardRouter.*--shards"):
                BatchExecutor("kdtree", **kwargs)
        for kwargs in (dict(mode="serial"), dict(max_workers=1),
                       dict(mode="serial", max_workers=1)):
            with BatchExecutor("kdtree", **kwargs) as engine:
                assert engine.run_cloud(np.zeros((4, 3))).num_points == 4
            engine.close()  # a no-op, safe to repeat

    def test_invalid_cloud_shapes_rejected(self):
        engine = BatchExecutor("kdtree")
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            engine.run_cloud(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="at least one point"):
            engine.run_cloud(np.zeros((0, 3)))
        with pytest.raises(ValueError, match="features"):
            engine.run_cloud((np.zeros((4, 3)), np.zeros((3, 2))))


FRAMES = LoadSpec(
    clouds=24, min_points=300, max_points=400, dup_rate=0.25,
    profile="frames", frame_motion=0.01, frame_churn=0.1, seed=7,
)
SOURCE_PIPELINE = PipelineSpec(radius=0.4, group_size=8)


def _served_stream(engine, frames):
    return list(engine.stream(iter(frames), SOURCE_PIPELINE)), None


def _served_window(engine, frames):
    server = WindowedServer(engine, WindowConfig(max_clouds=4))
    results = list(server.serve(iter(frames), SOURCE_PIPELINE))
    return results, server.telemetry.report(1.0)


def _served_tenancy(engine, frames):
    tenants = [TenantSpec("t0", pipeline=SOURCE_PIPELINE)]
    server = MultiTenantServer(engine, tenants, window=WindowConfig(max_clouds=4))
    with server:
        results = [
            served.result
            for served in server.serve(("t0", cloud) for cloud in frames)
        ]
    return results, server.reports(1.0)["t0"]


def _served_shard(engine, frames):
    with ShardRouter(
        1,
        engine=dict(partitioner="fractal", block_size=64, reuse_results=False),
        pipeline=SOURCE_PIPELINE,
        max_clouds=4,
    ) as router:
        results = [served.result for served in router.serve(frames)]
        return results, router.report(1.0)


class TestPartitionSources:
    @pytest.mark.parametrize(
        "serve",
        (_served_stream, _served_window, _served_tenancy, _served_shard),
        ids=("stream", "window", "tenancy", "shard"),
    )
    def test_non_delta_engine_reports_cold_sources(self, serve):
        """Every serving surface reports each computed cloud's partition
        as ``cold`` (built) or ``warm`` (exact cache hit), and serves the
        serial reference bit for bit.  Result dedup is off, so the
        stream's exact repeats reach the partition cache."""
        frames = [np.asarray(c, dtype=np.float64) for c in generate(FRAMES)]
        distinct = len({result_key(c, None) for c in frames})
        assert distinct < len(frames)  # the stream repeats some frames
        engine = BatchExecutor("fractal", block_size=64, reuse_results=False)
        results, report = serve(engine, frames)
        assert len(results) == len(frames)
        sources = [r.partition_source for r in results]
        assert set(sources) <= {"cold", "warm"}
        assert sources.count("cold") == distinct
        assert sources.count("warm") == len(frames) - distinct
        if report is not None:
            assert report.cold_clouds == distinct
            assert report.cold_clouds + report.warm_clouds == len(frames)
        for coords, result in zip(frames, results):
            ref = parity.TestExecutorParity.reference_pipeline(
                coords, "fractal", 64, SOURCE_PIPELINE
            )
            assert np.array_equal(ref[0], result.sampled)
            assert np.array_equal(ref[1], result.neighbors)
            assert np.array_equal(ref[2], result.grouped)
            assert np.array_equal(ref[3], result.interpolated)
