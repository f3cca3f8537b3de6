"""Multi-tenant serving: N client sessions sharing one fused engine.

Three tenants with different traffic shapes — a bursty LiDAR client, a
steady asset-preview client, and a latency-sensitive trickle client —
share a single :class:`~repro.runtime.executor.BatchExecutor` through
the :class:`~repro.serve.tenancy.MultiTenantServer`:

- admission is **deficit round robin** in points, so the bursty tenant
  cannot queue the trickle tenant into the ground;
- compatible clouds from different tenants fuse into the **same ragged
  kernel invocation** (cross-tenant windows);
- each tenant keeps its own pipeline config, dedup window and
  telemetry;
- the shared window is **work-conserving**: it closes when full, when
  the source goes quiet, or at ``max_wait`` — an idle engine never waits
  for company that is not coming;
- the engine is serial and runs every window in the serving thread; for
  more cores, put several engines behind ``repro serve --shards N``.

Every tenant's results are bit-identical to running its stream alone,
in its own submission order.

Run:  python examples/multi_tenant_serving.py
"""

import time

from repro.runtime import BatchExecutor, PipelineSpec
from repro.serve import (
    LoadSpec,
    MultiTenantServer,
    TenantSpec,
    WindowConfig,
    generate_tenants,
)


def main() -> None:
    # Three tenants, three traffic shapes, one seed.
    traffic = {
        "lidar": LoadSpec(clouds=60, min_points=128, max_points=384,
                          dup_rate=0.1, burst=6, seed=1),
        "assets": LoadSpec(clouds=60, min_points=96, max_points=256,
                           dup_rate=0.3, dup_window=6, seed=2),
        "trickle": LoadSpec(clouds=20, min_points=64, max_points=128,
                            dup_rate=0.0, seed=3),
    }
    tenants = [
        TenantSpec("lidar", PipelineSpec(radius=0.3, group_size=16)),
        TenantSpec("assets", PipelineSpec(radius=0.25, group_size=8)),
        TenantSpec("trickle", PipelineSpec(radius=0.25, group_size=8),
                   weight=2.0),  # latency-sensitive: double DRR credit
    ]

    engine = BatchExecutor("fractal", block_size=64, fuse_max_spread=4.0)
    server = MultiTenantServer(
        engine, tenants,
        window=WindowConfig(max_clouds=24, max_wait=0.02),
        quantum_points=4096,
        telemetry_every=4,
    )

    total = sum(spec.clouds for spec in traffic.values())
    print(f"serving {total} clouds from {len(tenants)} tenants through one "
          f"shared engine (cross-tenant windows, DRR fairness)\n")
    start = time.perf_counter()
    served = 0
    with server:
        for result in server.serve(generate_tenants(traffic), on_stats=print):
            served += 1  # per-tenant submission order, bit-identical
    wall = time.perf_counter() - start

    print()
    for report in server.reports(wall).values():
        print(report.format())
    print(f"{served} clouds served in {wall * 1e3:.0f} ms "
          f"({served / wall:.0f} clouds/s aggregate)")


if __name__ == "__main__":
    main()
