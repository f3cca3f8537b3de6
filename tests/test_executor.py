"""Tests for the batched multi-cloud execution engine."""

import numpy as np
import pytest

from repro.geometry import PointCloud
from repro.partition import get_partitioner
from repro.runtime import BatchExecutor, PartitionCache, PipelineSpec, content_key


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
        float64) at any single call site, as did digests produced at
        different renderings."""
        ints = np.zeros((4, 3), dtype=np.int64)
        floats = np.zeros((4, 3), dtype=np.float64)
        assert ints.tobytes() == floats.tobytes()  # the collision setup
        assert content_key(ints) != content_key(floats)  # input dtype hashed
        assert content_key(ints, dtype=np.int64) != content_key(
            floats, dtype=np.float64
        )  # rendering dtype hashed too
        # Value-equal inputs of one dtype still share a key (cache replay).
        assert content_key(floats) == content_key(floats.copy())

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

    def test_traces_cover_all_stages(self):
        result = BatchExecutor("kdtree", block_size=32).run_cloud(
            np.random.default_rng(11).normal(size=(120, 3))
        )
        assert set(result.traces) == {"fps", "ball_query", "gather", "interpolate"}
        assert result.traces["fps"].total_outputs == len(result.sampled)


def make_frame_stream(count, n=400, seed=0, churn=0, motion=1e-3):
    """A jittered (optionally churned) frame sequence from one sensor."""
    rng = np.random.default_rng(seed)
    frame = rng.normal(size=(n, 3))
    frames = [frame]
    for _ in range(count - 1):
        dirs = rng.normal(size=frame.shape)
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        radii = motion * rng.random((len(frame), 1)) ** (1.0 / 3.0)
        frame = frame + dirs / norms * radii
        if churn:
            frame = np.concatenate(
                [frame[:-churn], rng.normal(size=(churn, 3))]
            )
        frames.append(frame)
    return frames


class TestDeltaEngine:
    def test_jitter_stream_bit_identical_to_rebuild_engine(self):
        # Pure jitter only ever takes the certificate path (proven
        # rebuild identity) or a cold build — so every result must match
        # an engine that rebuilds each frame from scratch.
        frames = make_frame_stream(6, seed=1)
        pipe = PipelineSpec(sample_ratio=0.25)
        ref = BatchExecutor(
            "fractal", reuse_results=False
        ).run(frames, pipe)
        dlt = BatchExecutor(
            "fractal", reuse_results=False, delta=True
        ).run(frames, pipe)
        for a, b in zip(ref.results, dlt.results):
            assert np.array_equal(a.sampled, b.sampled)
            assert np.array_equal(a.neighbors, b.neighbors)
            assert np.array_equal(a.grouped, b.grouped)
            assert np.array_equal(a.interpolated, b.interpolated)
        assert dlt.stats.patched >= 4
        assert dlt.stats.cold == 1

    def test_partition_source_and_counters(self):
        frames = make_frame_stream(5, seed=2, churn=10)
        report = BatchExecutor(
            "fractal", reuse_results=False, delta=True
        ).run(frames, PipelineSpec(sample_ratio=0.25))
        sources = [r.partition_source for r in report.results]
        assert sources[0] == "cold"
        assert all(s in ("cold", "reused", "patched", "warm") for s in sources)
        stats = report.stats
        assert stats.patched + stats.cold + stats.cache_hits == len(frames)
        # The delta path still counts as a cache miss (no exact hit).
        assert stats.cache_misses == stats.patched + stats.cold
        assert "patched" in stats.summary()

    def test_churned_frames_serve_valid_results(self):
        frames = make_frame_stream(5, seed=3, churn=15)
        pipe = PipelineSpec(sample_ratio=0.25)
        report = BatchExecutor(
            "fractal", reuse_results=False, delta=True
        ).run(frames, pipe)
        assert report.stats.patched >= 3
        for frame, result in zip(frames, report.results):
            n = len(frame)
            assert result.num_points == n
            assert len(result.sampled) == pipe.samples_for(n)
            assert len(np.unique(result.sampled)) == len(result.sampled)
            assert result.sampled.max() < n
            assert result.interpolated.shape == (n, 3)
            assert set(result.traces) == {
                "fps", "ball_query", "gather", "interpolate"
            }

    def test_corrupted_patch_rebuilds_with_correct_results(self, monkeypatch):
        class BrokenPatcher:
            def __init__(self, structure, coords):
                self._structure = structure
                self._coords = coords

            def remove(self, ids):
                pass

            def move(self, ids, new_coords):
                pass

            def insert(self, coords):
                return np.arange(len(coords), dtype=np.int64)

            def structure(self):
                return self._structure, np.arange(
                    self._structure.num_points, dtype=np.int64
                )

            def coords(self):
                return self._coords

        frames = make_frame_stream(4, seed=4, churn=10)
        pipe = PipelineSpec(sample_ratio=0.25)
        engine = BatchExecutor(
            "fractal", reuse_results=False, delta=True
        )
        first = engine.cache.partitioner(frames[0])
        monkeypatch.setattr(
            "repro.runtime.cache.updater_from_certificate",
            lambda cert, structure, coords: BrokenPatcher(first, frames[0]),
        )
        report = engine.run(frames, pipe)
        # Every patch attempt failed its sanity gate, so every frame
        # paid a cold build — and the results must equal the plain
        # engine's bit for bit.
        assert report.stats.patched == 0
        assert report.stats.cold == len(frames)
        ref = BatchExecutor(
            "fractal", reuse_results=False
        ).run(frames, pipe)
        for a, b in zip(ref.results, report.results):
            assert np.array_equal(a.sampled, b.sampled)
            assert np.array_equal(a.interpolated, b.interpolated)

    def test_delta_policy_implies_delta(self):
        from repro.core.delta import PatchPolicy

        engine = BatchExecutor(
            "fractal", delta_policy=PatchPolicy(motion_threshold=0.5)
        )
        assert engine.delta
        assert engine.cache.policy.motion_threshold == 0.5

    def test_non_delta_engine_reports_cold_sources(self):
        clouds = make_clouds(3, seed=5, max_n=150)
        report = BatchExecutor(
            "kdtree", reuse_results=False
        ).run(clouds, PipelineSpec())
        assert all(
            r.partition_source == "cold" for r in report.results
        )
        assert report.stats.patched == 0
