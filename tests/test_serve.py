"""Tests for the serving layer: planner, windowed micro-batcher,
telemetry, and the load generator / wire format.

The proof obligations mirror the parity suite's: window boundaries,
bucket composition, and dedup replays may change *when* work happens,
never *what* comes out — every served result is index-level bit-identical
to ``run(fuse=True)`` over the same finite stream and to the serial
per-cloud reference.
"""

import io
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_batch_parity import TestExecutorParity, make_cloud

from repro.runtime import BatchExecutor, PipelineSpec, content_key, result_key
from repro.runtime.executor import DEFAULT_IN_FLIGHT
from repro.serve import (
    LoadSpec,
    ServeTelemetry,
    WindowConfig,
    WindowedServer,
    first_fit_buckets,
    generate,
    generate_tenants,
    inbox,
    latency_percentiles,
    plan_buckets,
    read_stream,
    read_tenant_stream,
    singleton_count,
    tenant_specs,
    write_stream,
    write_tenant_stream,
)


def sized_members(sizes):
    """Planner members shaped like the executor's: (index, coords, None)."""
    return [(i, np.zeros((n, 3)), None) for i, n in enumerate(sizes)]


def bucket_sizes(buckets):
    return [[len(coords) for _, coords, _ in bucket] for bucket in buckets]


class TestPlanner:
    def test_empty_and_single(self):
        assert plan_buckets([]) == []
        members = sized_members([7])
        assert bucket_sizes(plan_buckets(members)) == [[7]]

    def test_multi_member_buckets_respect_caps(self):
        members = sized_members([90, 70, 60, 40, 30, 20, 10])
        buckets = plan_buckets(members, max_points=100, max_spread=3.0)
        placed = sorted(i for bucket in buckets for i, _, _ in bucket)
        assert placed == list(range(7))  # exact partition of the input
        for bucket in buckets:
            sizes = [len(coords) for _, coords, _ in bucket]
            if len(sizes) > 1:
                assert sum(sizes) <= 100
                assert max(sizes) <= 3.0 * min(sizes)

    def test_oversized_cloud_gets_own_bucket(self):
        members = sized_members([500, 40, 30])
        buckets = plan_buckets(members, max_points=100)
        assert bucket_sizes(buckets) == [[500], [40, 30]]

    def test_best_fit_beats_greedy_on_adversarial_mix(self):
        # Greedy ascending packs [30, 40] then strands 50 and 60 alone;
        # best-fit-decreasing anchors [60, 40] and [50, 30].
        members = sized_members([60, 50, 40, 30])
        greedy = first_fit_buckets(members, max_points=100)
        best = plan_buckets(members, max_points=100)
        assert singleton_count(greedy) == 2
        assert singleton_count(best) == 0
        for bucket in best:
            assert sum(len(c) for _, c, _ in bucket) <= 100

    def test_deterministic_for_fixed_input(self):
        rng = np.random.default_rng(0)
        sizes = [int(n) for n in rng.integers(1, 300, size=40)]
        members = sized_members(sizes)
        first = plan_buckets(members, max_points=512, max_spread=4.0)
        second = plan_buckets(members, max_points=512, max_spread=4.0)
        assert bucket_sizes(first) == bucket_sizes(second)
        assert [[i for i, _, _ in b] for b in first] == [
            [i for i, _, _ in b] for b in second
        ]

    def test_buckets_ordered_by_first_member(self):
        members = sized_members([200, 20, 210, 25])
        buckets = plan_buckets(members, max_spread=2.0)
        firsts = [bucket[0][0] for bucket in buckets]
        assert firsts == sorted(firsts)
        for bucket in buckets:
            indices = [i for i, _, _ in bucket]
            assert indices == sorted(indices)

    def test_rejects_empty_members(self):
        with pytest.raises(ValueError, match="positive size"):
            plan_buckets([(0, np.zeros((0, 3)), None)])

    @settings(deadline=None, max_examples=60)
    @given(
        sizes=st.lists(st.integers(1, 400), min_size=1, max_size=24),
        cap=st.one_of(st.none(), st.integers(64, 1024)),
        spread=st.one_of(st.none(), st.floats(1.0, 8.0)),
    )
    def test_never_more_singletons_than_greedy(self, sizes, cap, spread):
        """The bin-packing property of the ISSUE: on any size mix the
        planner strands at most as many singleton fallbacks as the greedy
        first-fit pass it replaced, and multi-member buckets always obey
        both caps."""
        members = sized_members(sizes)
        best = plan_buckets(members, max_points=cap, max_spread=spread)
        greedy = first_fit_buckets(members, max_points=cap, max_spread=spread)
        assert singleton_count(best) <= singleton_count(greedy)
        placed = sorted(i for bucket in best for i, _, _ in bucket)
        assert placed == list(range(len(sizes)))
        for bucket in best:
            bucket_ns = [len(c) for _, c, _ in bucket]
            if len(bucket_ns) > 1:
                if cap is not None:
                    assert sum(bucket_ns) <= cap
                if spread is not None:
                    assert max(bucket_ns) <= spread * min(bucket_ns)


def serve_all(engine, clouds, pipeline, window):
    server = WindowedServer(engine, window)
    results = list(server.serve(iter(clouds), pipeline))
    return results, server.telemetry


class TestWindowedServeParity:
    """serve ≡ run(fuse=True) ≡ serial reference, index-level."""

    PIPELINE = PipelineSpec(radius=0.4, group_size=8)

    def assert_serial_parity(self, clouds, results, partitioner, block_size=16):
        assert [r.index for r in results] == list(range(len(clouds)))
        for coords, result in zip(clouds, results):
            ref = TestExecutorParity.reference_pipeline(
                np.asarray(coords, dtype=np.float64), partitioner,
                block_size, self.PIPELINE,
            )
            assert np.array_equal(ref[0], result.sampled)
            assert np.array_equal(ref[1], result.neighbors)
            assert np.array_equal(ref[2], result.grouped)
            assert np.array_equal(ref[3], result.interpolated)

    @pytest.mark.parametrize("partitioner", ("kdtree", "fractal", "uniform"))
    def test_matches_fused_run_and_serial_reference(self, partitioner):
        # Mixed sizes straddling bucket boundaries + exact duplicate
        # frames, served in windows smaller than the stream.
        clouds = [make_cloud(n, seed=2000 + n, duplicates=(n % 2 == 0))
                  for n in (1, 5, 40, 64, 181, 200)]
        clouds = clouds + [clouds[2], clouds[4]]
        engine = BatchExecutor(
            partitioner, block_size=16, fuse_max_spread=None
        )
        served, _ = serve_all(
            engine, clouds, self.PIPELINE, WindowConfig(max_clouds=3)
        )
        self.assert_serial_parity(clouds, served, partitioner)

        fused = BatchExecutor(
            partitioner, block_size=16, fuse=True,
            fuse_max_spread=None,
        ).run(clouds, self.PIPELINE)
        for a, b in zip(served, fused.results):
            assert np.array_equal(a.sampled, b.sampled)
            assert np.array_equal(a.neighbors, b.neighbors)
            assert np.array_equal(a.grouped, b.grouped)
            assert np.array_equal(a.interpolated, b.interpolated)

    def test_duplicates_replayed_across_windows(self):
        """A frame repeated in a *later* window replays the canonical
        result (reused flag, shared arrays) instead of recomputing."""
        clouds = [make_cloud(n, seed=2100 + n) for n in (50, 60, 70)]
        batch = clouds + [clouds[0], clouds[1], clouds[0]]
        engine = BatchExecutor("kdtree", block_size=16)
        served, telemetry = serve_all(
            engine, batch, self.PIPELINE, WindowConfig(max_clouds=3)
        )
        self.assert_serial_parity(batch, served, "kdtree")
        assert [r.reused for r in served] == [
            False, False, False, True, True, True
        ]
        assert telemetry.reused_clouds == 3

    def test_dedup_disabled_recomputes(self):
        clouds = [make_cloud(40, seed=7)] * 3
        engine = BatchExecutor(
            "kdtree", block_size=16, reuse_results=False
        )
        served, _ = serve_all(
            engine, clouds, self.PIPELINE, WindowConfig(max_clouds=2)
        )
        assert not any(r.reused for r in served)
        self.assert_serial_parity(clouds, served, "kdtree")

    def test_window_of_one_is_pure_streaming(self):
        clouds = [make_cloud(n, seed=2200 + n) for n in (30, 45, 60)]
        engine = BatchExecutor("kdtree", block_size=16)
        served, telemetry = serve_all(
            engine, clouds, self.PIPELINE,
            WindowConfig(max_clouds=1, max_wait=0.01),
        )
        self.assert_serial_parity(clouds, served, "kdtree")
        assert telemetry.windows == 3
        assert telemetry.singleton_clouds == 3  # nothing to fuse with

    def test_features_flow_through_serving(self):
        rng = np.random.default_rng(23)
        clouds = [
            (rng.normal(size=(n, 3)), rng.normal(size=(n, 5)))
            for n in (40, 44, 48, 52)
        ]
        engine = BatchExecutor("kdtree", block_size=16)
        server = WindowedServer(engine, WindowConfig(max_clouds=4))
        served = list(server.serve(iter(clouds), self.PIPELINE))
        fused = BatchExecutor(
            "kdtree", block_size=16, fuse=True
        ).run(clouds, self.PIPELINE)
        for a, b in zip(served, fused.results):
            assert a.grouped.shape[-1] == 5
            assert np.array_equal(a.grouped, b.grouped)
            assert np.array_equal(a.interpolated, b.interpolated)

    def test_empty_stream(self):
        engine = BatchExecutor("kdtree", block_size=16)
        served, telemetry = serve_all(
            engine, [], self.PIPELINE, WindowConfig(max_clouds=4)
        )
        assert served == []
        assert telemetry.windows == 0

    def test_source_error_propagates_after_served_results(self):
        clouds = [make_cloud(40, seed=1), make_cloud(50, seed=2)]

        def broken():
            yield from clouds
            raise RuntimeError("sensor unplugged")

        engine = BatchExecutor("kdtree", block_size=16)
        server = WindowedServer(engine, WindowConfig(max_clouds=8))
        stream = server.serve(broken(), self.PIPELINE)
        results = []
        with pytest.raises(RuntimeError, match="sensor unplugged"):
            for result in stream:
                results.append(result)
        # Everything that arrived before the failure was still served.
        self.assert_serial_parity(clouds, results, "kdtree")


class TestWindowTimeout:
    """The close rule: ``max_clouds``, ``max_wait``, or a quiet source."""

    CLOUDS = [make_cloud(n, seed=2300 + n) for n in (40, 44, 48, 52)]

    def serve_slow(self, max_wait):
        """Four clouds 80 ms apart through a 16-cloud window."""

        def slow():
            for cloud in self.CLOUDS:
                yield cloud
                time.sleep(0.08)

        engine = BatchExecutor("kdtree", block_size=16)
        telemetry = ServeTelemetry(window_capacity=16)
        server = WindowedServer(
            engine, WindowConfig(max_clouds=16, max_wait=max_wait),
            telemetry=telemetry,
        )
        started = time.perf_counter()
        served = list(server.serve(slow(), TestWindowedServeParity.PIPELINE))
        elapsed = time.perf_counter() - started
        TestWindowedServeParity().assert_serial_parity(
            self.CLOUDS, served, "kdtree"
        )
        assert telemetry.occupancy_sum == len(self.CLOUDS)
        return telemetry, elapsed

    def test_slow_source_closes_idle_not_on_timeout(self):
        """A slow source never fills W; windows close as soon as it goes
        quiet, not after ``max_wait``."""
        telemetry, elapsed = self.serve_slow(max_wait=5.0)
        assert telemetry.windows >= 2
        assert telemetry.idle_windows == telemetry.windows
        assert telemetry.timeout_windows == 0
        # 0.32 s of source gaps; waiting out one window would take 5 s.
        assert elapsed < 2.5

    def test_max_wait_still_caps_the_window(self, monkeypatch):
        """With the grace above ``max_wait`` every gap lands inside it,
        and the deadline closes the windows."""
        monkeypatch.setattr(inbox, "IDLE_GRACE", 1.0)
        telemetry, _ = self.serve_slow(max_wait=0.02)
        # The 16-cloud budget was never the closing condition.
        assert telemetry.windows >= 2
        assert telemetry.timeout_windows >= 1

    def test_mixed_gaps_hit_every_close_reason(self, monkeypatch):
        """Burst, pause, trickle: one stream closes windows full, idle
        and on timeout — and is still ``run(fuse=True)`` bit for bit."""
        monkeypatch.setattr(inbox, "IDLE_GRACE", 0.1)
        clouds = [make_cloud(40 + n, seed=2700 + n) for n in range(17)]

        def source():
            yield from clouds[:8]  # a burst fills W = 8
            yield from clouds[8:10]
            time.sleep(0.3)  # ... then the source goes quiet
            for cloud in clouds[10:]:  # gaps inside the grace, past T
                yield cloud
                time.sleep(0.05)

        engine = BatchExecutor(
            "kdtree", block_size=16, fuse_max_spread=None
        )
        telemetry = ServeTelemetry(window_capacity=8)
        server = WindowedServer(
            engine, WindowConfig(max_clouds=8, max_wait=0.3),
            telemetry=telemetry,
        )
        pipeline = TestWindowedServeParity.PIPELINE
        served = list(server.serve(source(), pipeline))
        assert telemetry.timeout_windows >= 1
        assert telemetry.idle_windows >= 1
        assert (
            telemetry.windows
            > telemetry.timeout_windows + telemetry.idle_windows
        )
        fused = BatchExecutor(
            "kdtree", block_size=16, fuse=True,
            fuse_max_spread=None,
        ).run(clouds, pipeline)
        assert [r.index for r in served] == list(range(len(clouds)))
        for a, b in zip(served, fused.results):
            assert np.array_equal(a.sampled, b.sampled)
            assert np.array_equal(a.neighbors, b.neighbors)
            assert np.array_equal(a.grouped, b.grouped)
            assert np.array_equal(a.interpolated, b.interpolated)

    def test_fast_source_closes_on_count(self):
        clouds = [make_cloud(40 + n, seed=2400 + n) for n in range(6)]
        engine = BatchExecutor("kdtree", block_size=16)
        telemetry = ServeTelemetry(window_capacity=3)
        server = WindowedServer(
            engine, WindowConfig(max_clouds=3, max_wait=5.0),
            telemetry=telemetry,
        )
        served = list(server.serve(iter(clouds),
                                   TestWindowedServeParity.PIPELINE))
        assert len(served) == 6
        assert telemetry.windows == 2
        assert telemetry.mean_occupancy == 1.0


class TestBackpressure:
    def test_in_flight_default_and_validation(self):
        engine = BatchExecutor("kdtree")
        assert engine.in_flight == DEFAULT_IN_FLIGHT == 8
        engine = BatchExecutor("kdtree", in_flight=5)
        assert engine.in_flight == 5
        with pytest.raises(ValueError, match="in_flight"):
            BatchExecutor("kdtree", in_flight=0)

    def test_stream_honours_custom_in_flight(self):
        pulled = []

        def source():
            for i in range(12):
                pulled.append(i)
                yield make_cloud(30, seed=2500 + i)

        engine = BatchExecutor(
            "kdtree", block_size=16, in_flight=3, reuse_results=False,
        )
        stream = engine.stream(source())
        next(stream)
        # The serial stream pulls one cloud per result, inside the bound.
        assert len(pulled) == 1
        list(stream)
        assert len(pulled) == 12

    def test_serve_does_not_drain_unbounded_source(self):
        pulled = threading.Event()
        count = [0]

        def source():
            for i in range(200):
                count[0] += 1
                if count[0] > 40:
                    pulled.set()  # would mean backpressure failed
                yield make_cloud(25, seed=2600 + i)

        engine = BatchExecutor(
            "kdtree", block_size=16, in_flight=2,
            reuse_results=False,
        )
        server = WindowedServer(
            engine, WindowConfig(max_clouds=4, max_wait=0.02)
        )
        stream = server.serve(source(), TestWindowedServeParity.PIPELINE)
        first = next(stream)
        assert first.index == 0
        # in_flight (2) + one window (4) + one in the puller's hand.
        assert count[0] <= 2 + 4 + 1
        assert not pulled.is_set()
        stream.close()  # stops the puller thread


class TestTelemetry:
    def test_percentiles_known_values(self):
        values = [i / 1000 for i in range(1, 101)]  # 1..100 ms
        p50, p95, p99 = latency_percentiles(values)
        assert p50 == pytest.approx(0.0505)
        assert p95 == pytest.approx(0.09505)
        assert p99 == pytest.approx(0.09901)
        assert latency_percentiles([]) == (0.0, 0.0, 0.0)

    def test_rolling_window_bounds_memory(self):
        telemetry = ServeTelemetry(window_capacity=4, rolling=10)
        for i in range(100):
            telemetry.record_latency(i)
        assert len(telemetry.latencies) == 10
        p50, _, _ = telemetry.percentiles()
        assert p50 == pytest.approx(94.5)  # only the last 10 survive

    def test_tick_every_n_windows(self):
        telemetry = ServeTelemetry(window_capacity=4, every=2)
        lines = []
        for _ in range(4):
            telemetry.record_window(
                size=4, buckets=1, fused=3, singletons=1, reused=0,
                queue_depth=2,
            )
            line = telemetry.tick()
            if line:
                lines.append(line)
        assert len(lines) == 2
        assert "p50/p95/p99" in lines[0] and "occupancy" in lines[0]

    def test_report_aggregates(self):
        telemetry = ServeTelemetry(window_capacity=4)
        telemetry.record_window(size=4, buckets=1, fused=4, singletons=0,
                                reused=0, queue_depth=3)
        telemetry.record_window(size=2, buckets=0, fused=0, singletons=1,
                                reused=1, queue_depth=1, reason="timeout")
        for ms in (1, 2, 3, 4, 5, 6):
            telemetry.record_latency(ms / 1000)
        report = telemetry.report(wall_seconds=0.5)
        assert report.clouds == 6 and report.windows == 2
        assert report.fused_clouds == 4 and report.singleton_clouds == 1
        assert report.reused_clouds == 1 and report.timeout_windows == 1
        assert report.mean_occupancy == pytest.approx(6 / 8)
        assert report.max_queue_depth == 3
        assert report.fused_ratio == pytest.approx(0.8)
        assert report.clouds_per_second == pytest.approx(12.0)
        assert "p50/p95/p99" in report.format()

    def test_close_reasons_counted(self):
        telemetry = ServeTelemetry(window_capacity=4)
        for reason in ("full", "idle", "timeout", "idle"):
            telemetry.record_window(size=2, buckets=1, fused=2, singletons=0,
                                    reused=0, queue_depth=0, reason=reason)
        assert "timeout/idle 1/2" in telemetry.stats_line()
        report = telemetry.report(wall_seconds=1.0)
        assert (report.timeout_windows, report.idle_windows) == (1, 2)
        assert "1 closed on timeout, 2 idle" in report.format()
        merged = report + report
        assert (merged.timeout_windows, merged.idle_windows) == (2, 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="window_capacity"):
            ServeTelemetry(window_capacity=0)
        with pytest.raises(ValueError, match="rolling"):
            ServeTelemetry(window_capacity=1, rolling=0)


class TestLoadgen:
    def test_seeded_and_deterministic(self):
        spec = LoadSpec(clouds=20, min_points=30, max_points=80,
                        dup_rate=0.3, seed=11)
        first = list(generate(spec))
        second = list(generate(spec))
        assert len(first) == 20
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        for cloud in first:
            assert 30 <= len(cloud) <= 80
            assert cloud.dtype == np.float64

    def test_duplicates_are_exact_repeats(self):
        spec = LoadSpec(clouds=40, min_points=20, max_points=40,
                        dup_rate=0.5, dup_window=4, seed=5)
        clouds = list(generate(spec))
        repeats = sum(
            1 for i, c in enumerate(clouds)
            if any(c is earlier for earlier in clouds[:i])
        )
        assert repeats > 0  # same object => exact content => dedup-able

    def test_no_duplicates_at_zero_rate(self):
        clouds = list(generate(LoadSpec(clouds=15, dup_rate=0.0, seed=2)))
        keys = {c.tobytes() for c in clouds}
        assert len(keys) == 15

    def test_validation(self):
        with pytest.raises(ValueError, match="clouds"):
            LoadSpec(clouds=0)
        with pytest.raises(ValueError, match="min_points"):
            LoadSpec(min_points=50, max_points=20)
        with pytest.raises(ValueError, match="dup_rate"):
            LoadSpec(dup_rate=1.5)
        with pytest.raises(ValueError, match="burst"):
            LoadSpec(burst=0)

    def test_wire_roundtrip_bytesio(self):
        clouds = list(generate(LoadSpec(clouds=8, min_points=10,
                                        max_points=30, seed=3)))
        buf = io.BytesIO()
        assert write_stream(buf, clouds) == 8
        buf.seek(0)
        back = list(read_stream(buf))
        assert len(back) == 8
        for a, b in zip(clouds, back):
            assert np.array_equal(a, b) and b.dtype == np.float64
            assert b.flags.writeable

    def test_wire_roundtrip_over_pipe(self):
        """The wire format must survive a real OS pipe (short reads,
        no seeking) — the `repro loadgen | repro serve` transport."""
        clouds = list(generate(LoadSpec(clouds=5, min_points=10,
                                        max_points=500, seed=4)))
        read_fd, write_fd = os.pipe()

        def producer():
            with os.fdopen(write_fd, "wb") as fh:
                write_stream(fh, clouds)

        thread = threading.Thread(target=producer)
        thread.start()
        with os.fdopen(read_fd, "rb") as fh:
            back = list(read_stream(fh))
        thread.join()
        assert all(np.array_equal(a, b) for a, b in zip(clouds, back))

    def test_wire_rejects_garbage_and_truncation(self):
        with pytest.raises(ValueError, match="npy"):
            list(read_stream(io.BytesIO(b"not a cloud stream")))
        buf = io.BytesIO()
        write_stream(buf, [np.zeros((4, 3))])
        truncated = io.BytesIO(buf.getvalue()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            list(read_stream(truncated))


class TestLoadgenProfiles:
    def test_profile_validation(self):
        with pytest.raises(ValueError, match="profile"):
            LoadSpec(profile="weekly")
        with pytest.raises(ValueError, match="drift_period"):
            LoadSpec(profile="diurnal", drift_period=1)
        with pytest.raises(ValueError, match="drift_amplitude"):
            LoadSpec(profile="diurnal", drift_amplitude=1.5)
        with pytest.raises(ValueError, match="adversary_spread"):
            LoadSpec(profile="adversarial", adversary_spread=1.0)
        with pytest.raises(ValueError, match="adversary_points"):
            LoadSpec(profile="adversarial", adversary_points=1)

    def test_diurnal_deterministic_and_bounded(self):
        spec = LoadSpec(clouds=64, min_points=40, max_points=200,
                        dup_rate=0.0, profile="diurnal", drift_period=16,
                        drift_amplitude=0.8, seed=21)
        first = [len(c) for c in generate(spec)]
        second = [len(c) for c in generate(spec)]
        assert first == second
        assert all(40 <= n <= 200 for n in first)
        # The band actually moves: early-cycle highs vs mid-cycle lows.
        crest = [n for i, n in enumerate(first) if i % 16 in (3, 4, 5)]
        trough = [n for i, n in enumerate(first) if i % 16 in (11, 12, 13)]
        assert np.mean(crest) > np.mean(trough) + 40

    def test_adversarial_defeats_packing(self):
        """The adversarial mix strands (nearly) everything as singleton
        fallbacks where the uniform mix fuses most of the window — the
        planner stress source the ROADMAP asked for."""
        cap = 512
        adversarial = LoadSpec(
            clouds=24, min_points=32, max_points=cap, dup_rate=0.0,
            profile="adversarial", adversary_points=cap, seed=8,
        )
        uniform = LoadSpec(clouds=24, min_points=200, max_points=260,
                           dup_rate=0.0, seed=8)

        def singletons(spec):
            members = [
                (i, c, None) for i, c in enumerate(generate(spec))
            ]
            buckets = plan_buckets(members, max_points=cap, max_spread=4.0)
            return singleton_count(buckets)

        assert singletons(adversarial) >= 16
        assert singletons(uniform) <= 2

    def test_adversarial_sizes_deterministic(self):
        spec = LoadSpec(clouds=20, min_points=32, max_points=512,
                        profile="adversarial", seed=3)
        assert [len(c) for c in generate(spec)] == \
            [len(c) for c in generate(spec)]

    def test_inference_validation(self):
        with pytest.raises(ValueError, match="corrupt_rate"):
            LoadSpec(profile="inference", corrupt_rate=1.5)
        with pytest.raises(ValueError, match="corrupt_severity"):
            LoadSpec(profile="inference", corrupt_severity=0)

    def test_inference_deterministic(self):
        spec = LoadSpec(clouds=24, min_points=48, max_points=160,
                        dup_rate=0.0, profile="inference",
                        corrupt_rate=0.5, seed=11)
        first = list(generate(spec))
        second = list(generate(spec))
        assert len(first) == 24
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_inference_corruptions_perturb_the_stream(self):
        base = dict(clouds=16, min_points=48, max_points=160,
                    dup_rate=0.0, seed=11)
        clean = list(generate(
            LoadSpec(profile="inference", corrupt_rate=0.0, **base)
        ))
        dirty = list(generate(
            LoadSpec(profile="inference", corrupt_rate=1.0, **base)
        ))
        # Every cloud drew a corruption, so every cloud differs (some by
        # shape — the dropout/occlusion families remove points).
        assert all(
            a.shape != b.shape or not np.array_equal(a, b)
            for a, b in zip(clean, dirty)
        )


class TestMultiTenantLoadgen:
    def test_tenant_specs_deterministic_mix(self):
        base = LoadSpec(clouds=10, min_points=40, max_points=100, seed=5)
        specs = tenant_specs(3, base)
        assert list(specs) == ["t0", "t1", "t2"]
        again = tenant_specs(3, base)
        assert specs == again
        # rate/size actually differ across the mix
        assert len({s.seed for s in specs.values()}) == 3
        assert len({(s.min_points, s.max_points) for s in specs.values()}) == 3
        assert len({s.burst for s in specs.values()}) == 3
        with pytest.raises(ValueError, match="count"):
            tenant_specs(0)

    def test_generate_tenants_merges_deterministically(self):
        specs = tenant_specs(
            3, LoadSpec(clouds=6, min_points=20, max_points=40, seed=9)
        )
        first = list(generate_tenants(specs))
        second = list(generate_tenants(specs))
        assert [t for t, _ in first] == [t for t, _ in second]
        assert all(np.array_equal(a, b)
                   for (_, a), (_, b) in zip(first, second))
        counts = {name: 0 for name in specs}
        for name, _ in first:
            counts[name] += 1
        assert counts == {"t0": 6, "t1": 6, "t2": 6}
        with pytest.raises(ValueError, match="at least one"):
            list(generate_tenants({}))

    def test_tagged_wire_roundtrip(self):
        specs = tenant_specs(
            2, LoadSpec(clouds=4, min_points=10, max_points=30, seed=6)
        )
        pairs = list(generate_tenants(specs))
        buf = io.BytesIO()
        assert write_tenant_stream(buf, pairs) == 8
        buf.seek(0)
        back = list(read_tenant_stream(buf))
        assert [t for t, _ in back] == [t for t, _ in pairs]
        for (_, a), (_, b) in zip(pairs, back):
            assert np.array_equal(a, b) and b.dtype == np.float64
            assert b.flags.writeable

    def test_untagged_stream_defaults_to_t0(self):
        clouds = list(generate(LoadSpec(clouds=3, min_points=10,
                                        max_points=20, seed=7)))
        buf = io.BytesIO()
        write_stream(buf, clouds)
        buf.seek(0)
        back = list(read_tenant_stream(buf))
        assert [t for t, _ in back] == ["t0", "t0", "t0"]

    def test_dangling_tag_rejected(self):
        buf = io.BytesIO()
        write_tenant_stream(buf, [("a", np.zeros((4, 3)))])
        # append a tag with no cloud after it
        np.lib.format.write_array_header_1_0(
            buf, np.lib.format.header_data_from_array_1_0(np.array("b"))
        )
        buf.write(np.array("b").tobytes())
        buf.seek(0)
        with pytest.raises(ValueError, match="tag"):
            list(read_tenant_stream(buf))


class TestResultKey:
    """All three dedup surfaces (stream, run(fuse=True), serve) key
    replays through this one helper; its identity must be exact float64
    content of coords + features."""

    def test_exact_float64_identity(self):
        rng = np.random.default_rng(31)
        coords = rng.normal(size=(40, 3))
        nudged = coords.copy()
        nudged[0, 0] = np.nextafter(coords[0, 0], np.inf)
        assert result_key(coords, None) == result_key(coords.copy(), None)
        assert result_key(coords, None) != result_key(nudged, None)

    def test_features_participate(self):
        rng = np.random.default_rng(32)
        coords = rng.normal(size=(20, 3))
        feats = rng.normal(size=(20, 4))
        assert result_key(coords, feats) != result_key(coords, None)
        assert result_key(coords, feats) == result_key(coords, feats.copy())
        assert result_key(coords, feats) != result_key(coords, feats + 1e-12)

    def test_composes_full_precision_digests(self):
        coords = np.zeros((6, 3))
        assert result_key(coords, None) == content_key(coords)


class TestImportOrder:
    """repro.runtime imports repro.serve.planner while repro.serve.window
    imports repro.runtime.executor; the serve package keeps the cycle
    open by loading its window module lazily.  Both import orders must
    keep working — in fresh interpreters, so no cached modules help."""

    @pytest.mark.parametrize("first", ["repro.serve", "repro.runtime"])
    def test_either_package_can_load_first(self, first):
        second = (
            "repro.runtime" if first == "repro.serve" else "repro.serve"
        )
        code = (
            f"import {first}\n"
            f"import {second}\n"
            "from repro.serve import WindowedServer, plan_buckets\n"
            "from repro.runtime import BatchExecutor\n"
            "print('ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.join(os.path.dirname(__file__), ".."),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


class TestExecutorSummary:
    def test_summary_reports_percentiles(self):
        clouds = [make_cloud(n, seed=2700 + n) for n in (40, 60, 80)]
        report = BatchExecutor("kdtree", block_size=16).run(clouds)
        stats = report.stats
        assert 0 < stats.latency_p50 <= stats.latency_p95 <= stats.latency_p99
        line = report.summary()
        assert "throughput" in line and "p50/p95/p99" in line
        assert line == stats.summary()

    def test_empty_batch_summary(self):
        report = BatchExecutor("kdtree").run([])
        assert report.stats.latency_p99 == 0.0
        assert "0 reused" in report.summary()


class TestFramesProfile:
    """The streaming-frames loadgen profile: one simulated sensor whose
    cloud jitters inside a motion ball and churns a tail fraction."""

    def frames_spec(self, **overrides):
        base = dict(clouds=10, min_points=200, max_points=240,
                    dup_rate=0.0, profile="frames", frame_motion=0.02,
                    frame_churn=0.0, seed=31)
        base.update(overrides)
        return LoadSpec(**base)

    def test_validation(self):
        with pytest.raises(ValueError, match="frame_motion"):
            LoadSpec(profile="frames", frame_motion=-0.1)
        with pytest.raises(ValueError, match="frame_churn"):
            LoadSpec(profile="frames", frame_churn=1.0)
        with pytest.raises(ValueError, match="frame_churn"):
            LoadSpec(profile="frames", frame_churn=-0.2)

    def test_seeded_and_deterministic(self):
        spec = self.frames_spec(frame_churn=0.15)
        first = list(generate(spec))
        second = list(generate(spec))
        assert len(first) == 10
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_jitter_bounded_by_frame_motion(self):
        spec = self.frames_spec()
        frames = list(generate(spec))
        sizes = {len(f) for f in frames}
        assert len(sizes) == 1  # one sensor, constant frame size
        for old, new in zip(frames, frames[1:]):
            disp = np.linalg.norm(new - old, axis=1)
            assert disp.max() <= spec.frame_motion * (1 + 1e-9)
            assert disp.max() > 0  # the sensor actually moves

    def test_churn_replaces_tail_only(self):
        spec = self.frames_spec(frame_motion=1e-3, frame_churn=0.25)
        frames = list(generate(spec))
        n = len(frames[0])
        k = int(round(spec.frame_churn * n))
        assert k > 0
        churned = 0
        for old, new in zip(frames, frames[1:]):
            disp = np.linalg.norm(new - old, axis=1)
            # The retained prefix only jitters ...
            assert disp[: n - k].max() <= spec.frame_motion * (1 + 1e-9)
            # ... while churned tail rows are fresh dataset draws.
            if disp[n - k:].max() > 10 * spec.frame_motion:
                churned += 1
        assert churned >= len(frames) // 2

    def test_dup_rate_replays_same_frame_object(self):
        spec = self.frames_spec(clouds=40, dup_rate=0.5, seed=9)
        frames = list(generate(spec))
        repeats = sum(
            1 for i, f in enumerate(frames)
            if any(f is earlier for earlier in frames[:i])
        )
        assert repeats > 0


class TestPartitionSourceTelemetry:
    """Telemetry splits each window's computed clouds into cold / warm."""

    PIPELINE = PipelineSpec(sample_ratio=0.25, radius=0.4, group_size=8)

    def test_plain_engine_reports_all_cold(self):
        clouds = [make_cloud(n, seed=3000 + n) for n in (40, 60, 80)]
        engine = BatchExecutor("kdtree", block_size=16)
        _, telemetry = serve_all(
            engine, clouds, self.PIPELINE, WindowConfig(max_clouds=2)
        )
        report = telemetry.report(wall_seconds=1.0)
        assert report.cold_clouds == 3
        assert report.warm_clouds == 0
        assert "cold/warm" not in telemetry.stats_line()

    def test_recomputed_repeats_report_warm(self):
        clouds = [make_cloud(n, seed=3000 + n) for n in (40, 60, 80)]
        engine = BatchExecutor("kdtree", block_size=16, reuse_results=False)
        _, telemetry = serve_all(
            engine, clouds + clouds[:1], self.PIPELINE,
            WindowConfig(max_clouds=2),
        )
        report = telemetry.report(wall_seconds=1.0)
        assert (report.cold_clouds, report.warm_clouds) == (3, 1)
        assert "cold/warm 3/1" in telemetry.stats_line()
        assert "partitions 3 cold, 1 warm" in report.format()
