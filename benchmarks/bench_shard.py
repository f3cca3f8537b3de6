"""Extension bench — sharded serving: aggregate cache capacity + transport.

Two lanes around the :mod:`repro.shard` front-end:

- **hot-asset capacity**: a ``hotset`` catalog bigger than one server's
  dedup window but smaller than a 4-shard fleet's aggregate.  The
  single-process server keeps evicting hot assets and recomputes them;
  content-affine sharding tiles the catalog across shards (~K/N assets
  each, all resident), so repeats replay instead of recompute.  On one
  core the speedup is pure cache economics — no parallelism is assumed
  or needed — and the acceptance bar is >= 2.5x for router + 4 shards
  over one process.
- **transport**: one hot 64k-point cloud served repeatedly through a
  1-shard router under both transports.  The compute cost is identical
  (one cold build, the rest dedup replays), so the wall-clock difference
  is the array transport itself: shared-memory arenas move each ~10 MB
  result with two memcpys, the pickle baseline serialises it through a
  queue pipe.  Acceptance: shm strictly beats pickle at this size.
"""

import numpy as np
import pytest

from repro.analysis import format_table
from repro.datasets import load_cloud
from repro.runtime import BatchExecutor
from repro.serve import LoadSpec, WindowConfig, WindowedServer, generate
from repro.shard import ShardRouter

from _common import best_time, emit

pytestmark = pytest.mark.slow

# Hot-asset lane: catalog K > one dedup window W, but every shard's
# slice of the (content-hashed) catalog fits its window — for this seed
# the 32 asset keys land [4, 8, 9, 11] across 4 shards, all <= 12 — so
# only the fleet can hold the whole catalog hot.
HOT_ASSETS = 32
HOT_REQUESTS = 320
HOT_POINTS = 1536
HOT_WINDOW = 12          # reuse_window == cache_size on both sides
HOT_SHARDS = 4

# Transport lane: one giant hot cloud, replay-dominated traffic.
BIG_POINTS = 65_536
BIG_REQUESTS = 12

ENGINE = dict(partitioner="fractal", block_size=256, kernel="auto")


def hot_stream():
    return list(generate(LoadSpec(
        clouds=HOT_REQUESTS, min_points=HOT_POINTS, max_points=HOT_POINTS,
        dup_rate=0.0, profile="hotset", hot_assets=HOT_ASSETS, hot_rate=1.0,
        dataset="modelnet40", seed=7,
    )))


def run_hot_lane(rows):
    stream = hot_stream()
    engine_kwargs = dict(
        ENGINE, reuse_window=HOT_WINDOW, cache_size=HOT_WINDOW
    )

    def run_single():
        engine = BatchExecutor(**engine_kwargs)
        with WindowedServer(engine, WindowConfig(max_clouds=16,
                                                 max_wait=0.005)) as server:
            return list(server.serve(iter(stream)))

    def run_sharded(shards):
        def run():
            with ShardRouter(shards, engine=engine_kwargs, transport="shm",
                             affinity="content", max_in_flight=32) as router:
                return list(router.serve(stream))
        return run

    t_single, single = best_time(run_single, repeats=2)
    reused_single = sum(r.reused for r in single)
    rows.append([
        "hot assets", f"{HOT_REQUESTS} reqs / {HOT_ASSETS} assets",
        "1 process", f"{t_single * 1e3:.0f}", "1.00x",
        f"{reused_single}/{HOT_REQUESTS} reused",
    ])
    speedups = {}
    for shards in (1, HOT_SHARDS):
        t, served = best_time(run_sharded(shards), repeats=2)
        reused = sum(s.result.reused for s in served)
        # Sharding must not change a bit of any result: check against
        # the single-process reference, index by index.
        for ref, got in zip(single, served):
            assert np.array_equal(ref.sampled, got.result.sampled)
            assert np.array_equal(ref.interpolated, got.result.interpolated)
        speedups[shards] = t_single / t
        rows.append([
            "hot assets", f"{HOT_REQUESTS} reqs / {HOT_ASSETS} assets",
            f"router + {shards} shard{'s' if shards > 1 else ''}",
            f"{t * 1e3:.0f}", f"{t_single / t:.2f}x",
            f"{reused}/{HOT_REQUESTS} reused",
        ])
    return speedups


def run_transport_lane(rows):
    cloud = load_cloud("modelnet40", BIG_POINTS, seed=11).coords
    stream = [cloud] * BIG_REQUESTS  # 1 cold build + N-1 dedup replays
    times = {}
    for transport in ("pickle", "shm"):
        def run(transport=transport):
            with ShardRouter(1, engine=ENGINE, transport=transport,
                             arena_bytes=256 << 20,
                             max_in_flight=4) as router:
                return list(router.serve(stream))
        times[transport], served = best_time(run, repeats=2)
        assert sum(s.result.reused for s in served) == BIG_REQUESTS - 1
    for transport in ("pickle", "shm"):
        rows.append([
            "transport", f"{BIG_REQUESTS} reqs @ {BIG_POINTS:,} pts",
            f"1 shard, {transport}", f"{times[transport] * 1e3:.0f}",
            f"{times['pickle'] / times[transport]:.2f}x", "-",
        ])
    return times["pickle"] / times["shm"]


def run_bench():
    rows = []
    hot_speedups = run_hot_lane(rows)
    shm_speedup = run_transport_lane(rows)
    table = format_table(
        ["lane", "traffic", "configuration", "ms", "speedup", "dedup"],
        rows,
        title=(
            "sharded serving: content-affine hot capacity + shm transport "
            f"(fractal, block {ENGINE['block_size']}, window {HOT_WINDOW})"
        ),
    )
    return table, hot_speedups, shm_speedup


def test_shard(benchmark):
    table, hot_speedups, shm_speedup = benchmark.pedantic(
        run_bench, rounds=1, iterations=1
    )
    emit("shard", table)
    # Acceptance: a 4-shard fleet beats one process >= 2.5x on the
    # hot-asset mix (aggregate dedup capacity, not parallelism — the
    # host has one core), and the shm transport beats pickling at
    # 64k-point clouds.
    assert hot_speedups[HOT_SHARDS] >= 2.5, hot_speedups
    assert shm_speedup > 1.0, shm_speedup
