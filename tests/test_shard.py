"""Tests for the sharded serving front-end (:mod:`repro.shard`).

The obligations, layer by layer:

- the hash ring is a pure function of the member set (insertion-order
  independent), balanced within coarse bounds, and minimally disruptive
  on membership change;
- the shm transport round-trips arrays bit-exactly, falls back inline
  when the arena fills, reclaims every block, and unlinks segments on
  close (no leaked shared memory);
- the router delivers every submission exactly once, in submission
  order, bit-identical to the single-process windowed server over the
  same stream — across both transports, and across drains and joins;
- serving is event-driven: a result comes back while the source is
  quiet, a source error or an early ``close()`` of the stream releases
  the puller and its fds, and a dead worker fails the stream instead of
  hanging it.
"""

import dataclasses
import itertools
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitize import extra_shm_segments, shm_segments
from repro.datasets import load_cloud
from repro.infer import MODEL_NAMES
from repro.runtime import BatchExecutor, CloudResult, PipelineSpec
from repro.serve import WindowConfig, WindowedServer
from repro.shard import (
    ArrayRef,
    HashRing,
    PickleChannel,
    ShardRouter,
    ShmArena,
    ShmPeer,
)
from repro.shard.worker import pack_result, unpack_result

ENGINE = dict(partitioner="kdtree", block_size=32, kernel="auto")


def clouds_for(count, *, base=160, step=16, seed=0):
    return [
        load_cloud("modelnet40", base + step * i, seed=seed + i).coords
        for i in range(count)
    ]


class TestHashRing:
    def test_route_is_deterministic_and_member_only(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"key-{i}".encode() for i in range(256)]
        first = [ring.route(k) for k in keys]
        assert [ring.route(k) for k in keys] == first
        assert set(first) <= {"a", "b", "c"}

    @settings(deadline=None, max_examples=30)
    @given(
        names=st.sets(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_ring_is_insertion_order_independent(self, names, seed):
        ordered = sorted(names)
        rng = np.random.default_rng(seed)
        shuffled = list(ordered)
        rng.shuffle(shuffled)
        a, b = HashRing(ordered), HashRing(shuffled)
        keys = [bytes(rng.integers(0, 256, size=12, dtype=np.uint8))
                for _ in range(64)]
        assert [a.route(k) for k in keys] == [b.route(k) for k in keys]

    def test_balance_bounds(self):
        shards = [f"s{i}" for i in range(4)]
        ring = HashRing(shards)
        keys = [f"cloud-{i}".encode() for i in range(4096)]
        owners = [ring.route(k) for k in keys]
        for shard in shards:
            share = owners.count(shard) / len(keys)
            # Coarse but meaningful: every shard holds between a third
            # and three times its fair share.
            assert 1 / (3 * len(shards)) <= share <= 3 / len(shards), (
                shard, share,
            )

    def test_membership_change_remaps_minimally(self):
        ring = HashRing(["a", "b", "c", "d"])
        keys = [f"k{i}".encode() for i in range(2048)]
        before = {k: ring.route(k) for k in keys}
        ring.remove("d")
        after = {k: ring.route(k) for k in keys}
        # Keys not owned by the leaver never move; the leaver's keys
        # redistribute over the survivors.
        for k in keys:
            if before[k] != "d":
                assert after[k] == before[k]
            else:
                assert after[k] in ("a", "b", "c")
        moved = sum(before[k] != after[k] for k in keys)
        assert 0 < moved < len(keys) / 2

    def test_remove_then_re_add_rebuilds_identical_ring(self):
        ring = HashRing(["a", "b", "c", "d"])
        keys = [f"k{i}".encode() for i in range(2048)]
        before = {k: ring.route(k) for k in keys}
        points, owners = ring._points.copy(), list(ring._owners)

        ring.remove("c")
        # While "c" is out, keys it never owned keep routing unchanged —
        # a departed shard disturbs nobody else's warm caches.
        for k in keys:
            if before[k] != "c":
                assert ring.route(k) == before[k]

        ring.add("c")
        # The ring is a pure function of the member set: re-adding the
        # same shard id rebuilds it bit-identically, so every key
        # (including "c"'s) routes exactly as before the departure.
        assert np.array_equal(ring._points, points)
        assert ring._owners == owners
        assert {k: ring.route(k) for k in keys} == before

    def test_empty_ring_and_bad_members(self):
        ring = HashRing()
        with pytest.raises(RuntimeError):
            ring.route(b"x")
        with pytest.raises(KeyError):
            ring.remove("ghost")
        with pytest.raises(ValueError):
            ring.add("")
        ring.add("a")
        ring.add("a")  # idempotent
        assert len(ring) == 1 and "a" in ring


class TestTransport:
    def test_shm_roundtrip_bit_exact(self):
        arena = ShmArena(1 << 20)
        peer = ShmPeer()
        try:
            arrays = [
                np.random.default_rng(i).normal(size=(100 + i, 3))
                for i in range(4)
            ]
            refs = arena.pack_many(arrays)
            assert all(not r.inline for r in refs)
            views = peer.unpack_many(refs)
            for a, v in zip(arrays, views):
                assert np.array_equal(a, v)
            copies = peer.unpack_many(refs, copy=True)
            del views
            arena.reclaim(refs)
            assert arena.allocated == 0
            for a, c in zip(arrays, copies):
                assert np.array_equal(a, c)  # survives reclamation
        finally:
            peer.close()
            arena.close()

    def test_arena_overflow_degrades_to_inline(self):
        arena = ShmArena(4096)
        try:
            small = arena.pack(np.ones((8, 3)))
            big = arena.pack(np.zeros((4096, 3)))  # cannot fit
            assert not small.inline and big.inline
            assert arena.spilled == 1
            assert np.array_equal(
                PickleChannel().unpack(big), np.zeros((4096, 3))
            )
        finally:
            arena.close()

    def test_free_list_coalesces(self):
        arena = ShmArena(1 << 16)
        try:
            refs = [arena.pack(np.ones(1024)) for _ in range(8)]  # 8 KiB each
            assert arena.allocated == 8 * 8192
            arena.reclaim(refs[2:5])  # carve a middle hole
            # A single array spanning the coalesced hole must fit in shm.
            wide = arena.pack(np.ones(3 * 1024))
            assert not wide.inline
            arena.reclaim([wide] + refs[:2] + refs[5:])
            assert arena.allocated == 0
        finally:
            arena.close()

    def test_close_unlinks_segment(self):
        arena = ShmArena(1 << 16)
        ref = arena.pack(np.arange(16.0))
        peer = ShmPeer()
        got = peer.unpack(ref, copy=True)
        peer.close()
        arena.close()
        assert np.array_equal(got, np.arange(16.0))
        with pytest.raises(FileNotFoundError):
            ShmPeer().unpack(ref)

    def test_pickle_channel_matches_interface(self):
        chan = PickleChannel()
        arr = np.random.default_rng(0).normal(size=(64, 3))
        ref = chan.pack(arr)
        assert ref.inline and isinstance(ref, ArrayRef)
        assert np.array_equal(chan.unpack(ref), arr)
        chan.reclaim([ref, None])
        chan.close()


class TestResultWire:
    def test_every_cloud_result_field_survives_the_wire(self):
        """A field :func:`pack_result` forgets comes back as its default;
        the sample sets every field off its default, so it cannot hide."""
        coords = clouds_for(1)[0]
        sample = dataclasses.replace(
            BatchExecutor(**ENGINE).run_cloud(coords),
            cache_hit=True, reused=True, partition_source="warm",
            model_output=np.arange(8.0),
        )
        fields = dataclasses.fields(CloudResult)
        for f in fields:
            value = getattr(sample, f.name)
            if f.default is None:
                assert value is not None, f.name
            elif f.default is not dataclasses.MISSING:
                assert value != f.default, f.name
        for shm in (False, True):
            channel = ShmArena(1 << 20) if shm else PickleChannel()
            peer = ShmPeer() if shm else channel
            try:
                meta, refs = pack_result(channel, sample)
                got = unpack_result(peer, meta, refs, copy=True)
            finally:
                peer.close()
                channel.close()
            for f in fields:
                want, have = getattr(sample, f.name), getattr(got, f.name)
                if isinstance(want, np.ndarray):
                    assert isinstance(have, np.ndarray), f.name
                    assert want.dtype == have.dtype, f.name
                    assert want.tobytes() == have.tobytes(), f.name
                else:
                    assert want == have, f.name


class TestShardRouter:
    def test_parity_with_single_process_server_both_transports(self):
        clouds = clouds_for(8)
        stream = clouds + clouds[1:4]  # repeats exercise dedup replay
        engine = BatchExecutor(**ENGINE)
        with WindowedServer(engine, WindowConfig(max_clouds=4,
                                                 max_wait=0.01)) as server:
            reference = list(server.serve(iter(stream)))
        for transport in ("shm", "pickle"):
            with ShardRouter(2, engine=ENGINE, transport=transport) as router:
                served = list(router.serve(stream))
            assert [s.seq for s in served] == list(range(len(stream)))
            assert len(served) == len(reference)
            for ref, got in zip(reference, served):
                assert got.result.num_points == ref.num_points
                assert np.array_equal(ref.sampled, got.result.sampled)
                assert np.array_equal(ref.neighbors, got.result.neighbors)
                assert np.array_equal(ref.grouped, got.result.grouped)
                assert np.array_equal(
                    ref.interpolated, got.result.interpolated
                )
            # The repeats replay from the shard dedup windows.
            assert sum(s.result.reused for s in served) == 3

    @pytest.mark.parametrize("transport", ("shm", "pickle"))
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_model_outputs_match_run_cloud(self, model, transport):
        pipeline = PipelineSpec(model=model)
        clouds = [
            load_cloud("modelnet40", 200, seed=seed).coords
            for seed in (130, 131, 132)
        ]
        engine = BatchExecutor(**ENGINE)
        with ShardRouter(
            1, engine=ENGINE, pipeline=pipeline, transport=transport
        ) as router:
            served = list(router.serve(clouds))
        assert len(served) == len(clouds)
        for coords, got in zip(clouds, served):
            want = engine.run_cloud(coords, pipeline).model_output
            have = got.result.model_output
            assert have is not None
            assert want.dtype == have.dtype and want.shape == have.shape
            assert want.tobytes() == have.tobytes()

    def test_content_affinity_pins_repeats_to_one_shard(self):
        clouds = clouds_for(6)
        stream = clouds * 3
        with ShardRouter(3, engine=ENGINE, affinity="content") as router:
            served = list(router.serve(stream))
            owners = {}
            for s, cloud in zip(served, stream):
                owners.setdefault(id(cloud), set()).add(s.shard)
            assert all(len(v) == 1 for v in owners.values())
            stats = router.shard_stats
        assert sum(v["served"] for v in stats.values()) == len(stream)

    def test_drain_on_leave_delivers_in_flight_exactly_once(self):
        clouds = clouds_for(10)
        with ShardRouter(3, engine=ENGINE, max_in_flight=64) as router:
            for cloud in clouds:
                router.submit(cloud)
            victim = router.shards[0]
            router.remove_shard(victim)
            served = list(router.flush())
            # Exactly once, in submission order, none lost in the drain.
            assert [s.seq for s in served] == list(range(len(clouds)))
            assert victim not in router.shards
            # The survivors absorb the victim's key range.
            after = list(router.serve(clouds[:5]))
            assert len(after) == 5
            assert all(s.shard != victim for s in after)

    def test_add_shard_takes_traffic(self):
        clouds = clouds_for(12, seed=40)
        with ShardRouter(1, engine=ENGINE) as router:
            first = list(router.serve(clouds[:4]))
            assert {s.shard for s in first} == {"shard-0"}
            router.add_shard("shard-1")
            second = list(router.serve(clouds))
            assert [s.seq for s in second] == list(range(4, 16))
            shards_used = {s.shard for s in second}
            assert shards_used == {"shard-0", "shard-1"}

    def test_shm_segments_fully_reclaimed(self):
        # That close() also unlinks every router-owned /dev/shm segment is
        # asserted after every test by the repro.analysis.sanitize plugin.
        clouds = clouds_for(6, seed=80)
        with ShardRouter(2, engine=ENGINE, transport="shm") as router:
            list(router.serve(clouds * 2))
            for name, shard in router._shards.items():
                # Every request block returned to the pool once its
                # worker reported it consumed.
                assert shard.channel.allocated == 0, name

    def test_router_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ShardRouter(0, engine=ENGINE)
        with pytest.raises(ValueError):
            ShardRouter(2, engine=ENGINE, transport="carrier-pigeon")
        with pytest.raises(ValueError):
            ShardRouter(2, engine=ENGINE, affinity="random")


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def repro_threads() -> list[str]:
    return sorted(
        t.name for t in threading.enumerate() if t.name.startswith("repro")
    )


class TestEventDrivenServe:
    def test_result_returns_while_the_source_is_quiet(self):
        clouds = clouds_for(2, seed=200)
        got_first = threading.Event()
        source_timed_out = []

        def source():
            yield clouds[0]
            # Only the consumer's receipt of cloud 0 ends this lull.
            source_timed_out.append(not got_first.wait(5.0))
            yield clouds[1]

        with ShardRouter(1, engine=ENGINE) as router:
            served = []
            for item in router.serve(source()):
                served.append(item)
                got_first.set()
        assert source_timed_out == [False]
        assert [s.seq for s in served] == [0, 1]

    def test_source_error_reraises_after_delivering_earlier_requests(self):
        class SourceFailed(Exception):
            pass

        clouds = clouds_for(3, seed=210)

        def source():
            yield from clouds
            raise SourceFailed("wire truncated")

        with ShardRouter(2, engine=ENGINE) as router:
            served = []
            with pytest.raises(SourceFailed, match="wire truncated"):
                for item in router.serve(source()):
                    served.append(item)
            assert [s.seq for s in served] == [0, 1, 2]
            # The router is still usable after a failed stream.
            assert len(list(router.serve(clouds[:1]))) == 1

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_early_close_releases_the_puller_and_its_fds(self):
        clouds = clouds_for(4, seed=220)
        with ShardRouter(2, engine=ENGINE) as router:
            list(router.serve(clouds))  # attach both response arenas
            senders = repro_threads()
            baseline = open_fds()
            stream = router.serve(itertools.cycle(clouds))  # never ends
            for _ in range(3):
                next(stream)
            stream.close()
            assert open_fds() == baseline
            assert repro_threads() == senders
        assert repro_threads() == []

    def test_killed_worker_fails_the_stream_and_close_cleans_up(self):
        clouds = clouds_for(6, seed=240)
        shm_before = shm_segments()
        killed = threading.Event()

        def source():
            yield clouds[0]
            killed.wait(5.0)
            yield from clouds[1:]  # routed to the dead worker

        router = ShardRouter(1, engine=ENGINE)
        try:
            worker = router._shards["shard-0"].process
            start = time.monotonic()
            with pytest.raises(
                RuntimeError,
                match=r"shard 'shard-0' died \(exit code -9\).*in flight",
            ):
                for _ in router.serve(source()):
                    os.kill(worker.pid, signal.SIGKILL)
                    killed.set()
            assert time.monotonic() - start < 5.0
        finally:
            router.close()
        assert not worker.is_alive()
        assert extra_shm_segments(shm_before) == []
