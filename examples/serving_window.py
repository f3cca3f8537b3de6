"""Serving a live cloud stream: windowed micro-batching + telemetry.

A sensor-shaped traffic generator (ragged sizes, exact duplicate frames,
paced bursts) feeds the :class:`~repro.serve.WindowedServer`: requests
wait at most ``T`` ms, whatever arrived is bin-packed into fused buckets
under the engine's fusion caps, each bucket runs as one ragged kernel
invocation per pipeline stage, and results come back in submission order
with rolling p50/p95/p99 latency telemetry — the paper's block-parallel
kernels turned into a service.

Run:  python examples/serving_window.py
"""

import time

from repro.runtime import BatchExecutor, PipelineSpec
from repro.serve import (
    LoadSpec,
    ServeTelemetry,
    WindowConfig,
    WindowedServer,
    generate,
)


def main() -> None:
    # Serving-shaped traffic: 80 ragged ROI-crop-sized clouds, ~20 % of
    # frames exact repeats of recent ones, arriving in bursts of four.
    traffic = LoadSpec(
        clouds=80, min_points=96, max_points=384, dup_rate=0.2,
        dup_window=8, burst=4, interval=0.005, seed=0,
    )

    window = WindowConfig(max_clouds=16, max_wait=0.02)
    telemetry = ServeTelemetry(window_capacity=window.max_clouds, every=2)
    pipeline = PipelineSpec(sample_ratio=0.25, radius=0.3, group_size=16)

    with BatchExecutor("fractal", block_size=64,
                       fuse_max_spread=4.0) as engine:
        with WindowedServer(engine, window, telemetry=telemetry) as server:
            print(f"serving {traffic.clouds} clouds "
                  f"({traffic.min_points}-{traffic.max_points} points, "
                  f"{traffic.dup_rate:.0%} repeats) through "
                  f"{window.max_clouds}-cloud / "
                  f"{window.max_wait * 1e3:.0f}-ms windows\n")
            start = time.perf_counter()
            served = 0
            for result in server.serve(generate(traffic), pipeline,
                                       on_stats=print):
                served += 1  # results arrive here in submission order
            wall = time.perf_counter() - start

        print()
        print(telemetry.report(wall).format())

        # The same engine, same traffic, offline: run(fuse=True) is the
        # batch-mode ceiling the windowed path trades a latency bound for.
        offline = engine.run(list(generate(traffic)), pipeline, fuse=True)
        print(f"\noffline ceiling (run(fuse=True) over the same "
              f"{served} clouds):")
        print(f"  {offline.summary()}")


if __name__ == "__main__":
    main()
