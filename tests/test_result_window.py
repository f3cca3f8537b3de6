"""Tests for the one request-dedup core, :class:`repro.runtime.ResultWindow`.

Two layers of obligations:

- the window itself: how it splits entries into uniques, replays and
  within-window duplicates, the one replay stamp, LRU order at the
  bound (a replay bumps its key), bound 0, and rejection of a negative
  bound — in :class:`ResultWindow` and in the engine that sizes every
  window;
- the contract across every surface that dedups through it: the same
  stream with repeats gives the same per-index ``reused`` flags and
  bit-identical arrays through ``stream()``, ``run(fuse=True)``, the
  windowed server, a one-tenant tenant server and a one-shard router.
"""

import numpy as np
import pytest

from test_batch_parity import make_cloud

from repro.runtime import (
    BatchExecutor,
    CloudResult,
    PipelineSpec,
    ResultWindow,
    result_key,
)
from repro.serve import MultiTenantServer, TenantSpec, WindowConfig, WindowedServer
from repro.shard import ShardRouter

PIPELINE = PipelineSpec(radius=0.4, group_size=8)

A, B, C, D = (make_cloud(n, seed=5000 + n) for n in (40, 48, 56, 64))


def entries(*clouds, start=0):
    """``(slot, coords, features, key)`` entries, slots from ``start``."""
    return [
        (start + i, cloud, None, result_key(cloud, None))
        for i, cloud in enumerate(clouds)
    ]


def execute(split):
    """Stand-in for ``execute_window``: one fresh result per unique."""
    return {
        slot: CloudResult(
            index=slot, num_points=len(coords), num_blocks=1,
            cache_hit=False, seconds=0.5, sampled=np.arange(len(coords)),
            neighbors=np.zeros((1, 1), dtype=np.int64),
            grouped=np.zeros((1, 1, 3)), interpolated=None,
        )
        for slot, coords, _ in split.uniques
    }


def run_window(window, *clouds, start=0):
    split = window.split(entries(*clouds, start=start))
    return split, window.complete(execute(split), split)


class TestResultWindow:
    def test_split_uniques_replays_duplicates(self):
        window = ResultWindow(8)
        run_window(window, A, B)
        split = window.split(entries(A, C, C, B, A, start=2))
        assert [slot for slot, _, _ in split.uniques] == [3]
        assert [slot for slot, _ in split.replays] == [2, 5, 6]
        assert split.duplicates == [(4, 3)]
        assert split.canonical == {result_key(C, None): 3}
        assert split.reused == 4

    def test_replay_stamp(self):
        window = ResultWindow(8)
        _, first = run_window(window, A)
        split, results = run_window(window, B, A, B, start=1)
        assert sorted(results) == [1, 2, 3]
        for slot, canonical in ((2, first[0]), (3, results[1])):
            replay = results[slot]
            assert replay.index == slot
            assert replay.reused and replay.cache_hit
            assert replay.seconds == 0.0
            assert replay.sampled is canonical.sampled  # shared, not copied
        assert not results[1].reused and results[1].seconds == 0.5

    def test_unkeyed_entries_always_execute(self):
        window = ResultWindow(8)
        split = window.split([(0, A, None, None), (1, A, None, None)])
        assert len(split.uniques) == 2 and split.reused == 0
        window.complete(execute(split), split)
        assert window.split([(2, A, None, None)]).reused == 0

    def test_replayed_key_outlives_older_unreplayed_key(self):
        window = ResultWindow(2)
        run_window(window, A, B)  # LRU order: A, B
        run_window(window, A, start=2)  # replay bumps A: B, A
        run_window(window, C, start=3)  # at the bound, B goes, not A
        split = window.split(entries(A, B, start=4))
        assert [slot for slot, _ in split.replays] == [4]
        assert [slot for slot, _, _ in split.uniques] == [5]

    def test_bound_zero_dedups_within_the_window_only(self):
        window = ResultWindow(0)
        split, results = run_window(window, A, A)
        assert split.duplicates == [(1, 0)] and results[1].reused
        split, _ = run_window(window, A, start=2)
        assert split.reused == 0

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="reuse_window"):
            ResultWindow(-1)


class TestReuseWindowValidation:
    def test_engine_rejects_negative_reuse_window(self):
        """Regression: a negative bound used to be accepted and then
        crash ``stream()`` / ``serve()`` on the first unique cloud."""
        with pytest.raises(ValueError, match="reuse_window"):
            BatchExecutor(  # repro: ignore[REP004] (raises, never built)
                "kdtree", reuse_window=-1
            )

    def test_zero_keeps_within_window_dedup(self):
        with BatchExecutor(
            "kdtree", block_size=16, reuse_window=0
        ) as engine:
            streamed = list(engine.stream([A, A], PIPELINE))
            fused = engine.run([A, A], PIPELINE, fuse=True).results
        assert [r.reused for r in streamed] == [False, False]
        assert [r.reused for r in fused] == [False, True]


# -- one contract, five paths -------------------------------------------------

#: A stream with repeats inside a window, across windows, and back to back.
STREAM = [A, B, A, C, B, A, D, C, D, A]
REUSED = [False, False, True, False, True, True, False, True, True, True]
DISTINCT = 4


def engine(**kwargs):
    return BatchExecutor(
        "kdtree", block_size=16, reuse_window=DISTINCT,
        **kwargs,
    )


def via_stream():
    with engine() as e:
        return list(e.stream(STREAM, PIPELINE))


def via_fused_run():
    with engine() as e:
        return e.run(STREAM, PIPELINE, fuse=True).results


def via_windowed_server():
    with WindowedServer(engine(), WindowConfig(max_clouds=3)) as server:
        return list(server.serve(iter(STREAM), PIPELINE))


def via_tenant_server():
    with MultiTenantServer(
        engine(), [TenantSpec("t0", PIPELINE)],
        window=WindowConfig(max_clouds=3),
    ) as server:
        return [r.result for r in server.serve(("t0", c) for c in STREAM)]


def via_shard_router():
    with ShardRouter(
        1,
        engine=dict(partitioner="kdtree", block_size=16, reuse_window=DISTINCT),
        pipeline=PIPELINE,
        max_clouds=3,
    ) as router:
        return [r.result for r in router.serve(STREAM)]


PATHS = {
    "stream": via_stream,
    "run_fused": via_fused_run,
    "windowed_server": via_windowed_server,
    "tenant_server": via_tenant_server,
    "shard_router": via_shard_router,
}


@pytest.fixture(scope="module")
def reference():
    return via_stream()


@pytest.mark.parametrize("path", PATHS)
def test_every_dedup_surface_replays_alike(path, reference):
    results = PATHS[path]()
    assert [r.reused for r in results] == REUSED
    for ours, ref in zip(results, reference):
        assert np.array_equal(ours.sampled, ref.sampled)
        assert np.array_equal(ours.neighbors, ref.neighbors)
        assert np.array_equal(ours.grouped, ref.grouped)
        assert np.array_equal(ours.interpolated, ref.interpolated)
