"""Extension bench — multi-tenant shared-engine serving vs isolation,
plus DRR fairness.

Two claims, each asserted:

1. **Sharing wins.** On a seeded 3-tenant mix, one shared engine with
   cross-tenant fused windows beats three per-tenant isolated windowed
   servers (each fusing only its own third of the traffic, run
   concurrently on the same machine as co-located deployments would be)
   by >= 1.3x wall-clock — and stays bit-identical per tenant.
2. **Fairness bounds the trickle tenant.** With a bursty and a trickle
   tenant sharing the engine under deficit-round-robin admission, the
   trickle tenant's p95 stays within a small multiple of its lone-tenant
   p95 instead of queueing behind the burst.

Marked ``slow``: serving benches time wall-clock over hundreds of
clouds.  Run with ``pytest -m slow benchmarks/bench_tenancy.py``.
"""

import threading
import time

import numpy as np
import pytest

from repro.analysis import format_table
from repro.runtime import BatchExecutor, PipelineSpec
from repro.serve import (
    LoadSpec,
    MultiTenantServer,
    TenantSpec,
    WindowConfig,
    WindowedServer,
    generate,
)

from _common import best_time, emit

pytestmark = pytest.mark.slow

PIPELINE = PipelineSpec(sample_ratio=0.25, radius=0.25, group_size=16)
BLOCK = 32


def make_hot_asset_mix(tenants=3, catalog=30, per_tenant=60, seed=0):
    """A seeded 3-tenant mix over a shared hot-asset catalog.

    Serving traffic concentrates on popular content and popular content
    is popular for *every* client (retried frames, shared map tiles, hot
    CAD assets).  Each tenant draws its stream from one catalog of
    distinct clouds with a recency-ish bias — so streams overlap in
    content across tenants without ever being identical in order.
    """
    rng = np.random.default_rng(seed)
    shapes = [
        c for c in generate(LoadSpec(
            clouds=catalog, min_points=96, max_points=384, dup_rate=0.0,
            seed=seed,
        ))
    ]
    streams = {}
    for t in range(tenants):
        draw = rng.zipf(1.6, size=per_tenant)  # popularity skew
        streams[f"t{t}"] = [
            shapes[int(idx - 1) % catalog] for idx in draw
        ]
    # Interleave round-robin: the arrival order tenants actually share.
    pairs = []
    for i in range(per_tenant):
        for name in streams:
            pairs.append((name, streams[name][i]))
    return pairs, streams


def bench_shared_vs_isolated(rows):
    """Claim 1: shared fused engine >= 1.3x over isolated servers.

    The isolated deployment runs one engine + windowed server per tenant
    concurrently on the same machine with the same per-server window
    budget.  It fuses and dedups *within* each tenant's stream but
    cannot share anything across tenants; the shared engine fuses
    cross-tenant windows and (share_results) serves hot content computed
    for any tenant to all of them.
    """
    pairs, streams = make_hot_asset_mix()
    window = WindowConfig(max_clouds=24, max_wait=0.25)

    def run_shared():
        engine = BatchExecutor("kdtree", block_size=BLOCK)
        with MultiTenantServer(
            engine, [TenantSpec(name, PIPELINE) for name in streams],
            window=window, share_results=True,
        ) as server:
            return list(server.serve(iter(pairs)))

    def run_isolated():
        # One engine + windowed server per tenant, run concurrently on
        # the same machine (the co-located no-sharing deployment).
        out = {}

        def serve_one(name):
            engine = BatchExecutor("kdtree", block_size=BLOCK)
            with WindowedServer(engine, window) as server:
                out[name] = list(server.serve(iter(streams[name]), PIPELINE))

        threads = [
            threading.Thread(target=serve_one, args=(name,)) for name in streams
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return out

    t_shared, shared = best_time(run_shared)
    t_isolated, isolated = best_time(run_isolated)

    # Cross-tenant fusion must not change a bit of any tenant's results.
    per_tenant = {name: [] for name in streams}
    for served in shared:
        per_tenant[served.tenant].append(served)
    for name, clouds in streams.items():
        assert [r.seq for r in per_tenant[name]] == list(range(len(clouds)))
        for mine, lone in zip(per_tenant[name], isolated[name]):
            assert np.array_equal(mine.result.sampled, lone.sampled)
            assert np.array_equal(mine.result.neighbors, lone.neighbors)
            assert np.array_equal(mine.result.interpolated, lone.interpolated)

    total = len(pairs)
    speedup = t_isolated / t_shared
    rows.append(["3-tenant hot assets", "isolated x3 (own engine each)",
                 f"{t_isolated * 1e3:.0f}", f"{total / t_isolated:.0f}", "1.00x"])
    rows.append(["3-tenant hot assets", "shared fused engine",
                 f"{t_shared * 1e3:.0f}", f"{total / t_shared:.0f}",
                 f"{speedup:.2f}x"])
    return speedup


def bench_fairness(rows):
    """Claim 2: the trickle tenant's p95 is bounded under a burst."""
    rng = np.random.default_rng(4)
    bursty_clouds = [rng.normal(size=(96, 3)) for _ in range(180)]
    trickle_clouds = [rng.normal(size=(96, 3)) for _ in range(20)]

    def trickle_stream():
        for cloud in trickle_clouds:
            yield ("trickle", cloud)
            time.sleep(0.004)

    def merged():
        # The burst floods in at t=0; the trickle keeps dripping.
        bursty_iter = iter(bursty_clouds)
        trickle_iter = trickle_stream()
        exhausted = object()
        while True:
            cloud = next(bursty_iter, exhausted)
            if cloud is not exhausted:
                yield ("bursty", cloud)
            pair = next(trickle_iter, exhausted)
            if pair is not exhausted:
                yield pair
            if cloud is exhausted and pair is exhausted:
                return

    def run_shared():
        engine = BatchExecutor(
            "kdtree", block_size=BLOCK, reuse_results=False, in_flight=64,
        )
        with MultiTenantServer(
            engine,
            [TenantSpec("bursty", PIPELINE), TenantSpec("trickle", PIPELINE)],
            window=WindowConfig(max_clouds=16, max_wait=0.01),
            quantum_points=4096,
        ) as server:
            list(server.serve(merged()))
            return (
                server.session("trickle").telemetry.percentiles()[1],
                server.session("bursty").telemetry.percentiles()[1],
            )

    def run_lone_trickle():
        engine = BatchExecutor("kdtree", block_size=BLOCK, reuse_results=False)
        with MultiTenantServer(
            engine, [TenantSpec("trickle", PIPELINE)],
            window=WindowConfig(max_clouds=16, max_wait=0.01),
        ) as server:
            list(server.serve(trickle_stream()))
            return server.session("trickle").telemetry.percentiles()[1]

    trickle_shared, bursty_shared = run_shared()
    trickle_lone = run_lone_trickle()
    inflation = trickle_shared / max(trickle_lone, 1e-9)
    rows.append(["bursty+trickle", "trickle alone",
                 f"p95 {trickle_lone * 1e3:.1f} ms", "-", "1.00x"])
    rows.append(["bursty+trickle", "trickle beside 180-cloud burst",
                 f"p95 {trickle_shared * 1e3:.1f} ms", "-",
                 f"{inflation:.2f}x inflation"])
    rows.append(["bursty+trickle", "bursty (self-queued)",
                 f"p95 {bursty_shared * 1e3:.1f} ms", "-", "-"])
    return inflation, trickle_shared, bursty_shared


def run_bench():
    rows = []
    speedup = bench_shared_vs_isolated(rows)
    inflation, trickle_p95, bursty_p95 = bench_fairness(rows)
    table = format_table(
        ["scenario", "engine", "ms / p95", "clouds / s", "speedup"],
        rows,
        title="multi-tenant serving: shared fused engine, DRR fairness "
              "(kdtree, warm caches)",
    )
    return table, speedup, inflation


def test_tenancy(benchmark):
    table, speedup, inflation = benchmark.pedantic(
        run_bench, rounds=1, iterations=1
    )
    emit("tenancy", table)
    # Acceptance (the ISSUE's): shared fused engine >= 1.3x over
    # isolated per-tenant servers on the 3-tenant seeded mix.
    assert speedup >= 1.3, f"shared-engine speedup {speedup:.2f}x < 1.3x"
    # Fairness: the trickle tenant's tail is bounded, not burst-sized.
    assert inflation <= 8.0, f"trickle p95 inflated {inflation:.2f}x"
