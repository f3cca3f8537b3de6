"""Streaming LiDAR: incremental Fractal maintenance + dynamic KNN graphs.

A 10 Hz-style sensor stream where ~10 % of the cloud churns per frame.
Instead of re-partitioning every frame, the :class:`FractalUpdater`
routes new points down the existing split planes and repairs only the
blocks that overflow or underfill — then the maintained partition powers
both block-wise FPS and DGCNN-style block-local graph construction
(the paper's §VI-D adaptations).

The frames are then replayed through the batched
:class:`~repro.runtime.executor.BatchExecutor` — the serving-side engine
that pulls frames with backpressure and deduplicates repeated frames
through its content-hash partition cache.

Run:  python examples/streaming_lidar.py
"""

import numpy as np

from repro.analysis import format_table
from repro.core import (
    FractalConfig,
    block_knn_graph,
    dispatch,
    edge_recall,
    exact_knn_graph,
)
from repro.core.update import FractalUpdater
from repro.datasets import lidar_scan
from repro.runtime import BatchExecutor, PipelineSpec

N_POINTS = 8_192
FRAMES = 5
CHURN = 0.1


def main() -> None:
    frame0 = lidar_scan(N_POINTS, seed=0)
    updater = FractalUpdater(frame0.coords.astype(np.float64),
                             FractalConfig(threshold=256))
    rng = np.random.default_rng(42)
    rows = []
    for frame in range(1, FRAMES + 1):
        _, live = updater.structure()
        churn = int(updater.num_points * CHURN)
        work_before = updater.stats.update_work

        # Sensor churn: old returns fall off, new returns arrive (scene
        # drifts along +x as the vehicle moves).
        updater.remove(rng.choice(live, size=churn, replace=False))
        fresh = lidar_scan(churn, seed=frame).coords.astype(np.float64)
        fresh[:, 0] += 0.8 * frame
        updater.insert(fresh)

        structure, _ = updater.structure()
        coords = updater.coords()
        n_samples = len(coords) // 4
        sampled, _ = dispatch.run_op(
            "fps", structure, coords, n_samples, num_centers=n_samples
        )

        rows.append([
            frame,
            structure.num_blocks,
            int(structure.max_block_size),
            updater.stats.update_work - work_before,
            updater.stats.leaf_splits,
            updater.stats.leaf_merges,
            len(sampled),
        ])
    print(format_table(
        ["frame", "blocks", "max block", "update work",
         "splits (cum)", "merges (cum)", "samples"],
        rows,
        title=f"streaming maintenance: {N_POINTS} pts, {int(CHURN*100)}% churn/frame "
              f"(full rebuild would traverse ~{updater.rebuild_work():,} points/frame)",
    ))

    # Streaming the same sensor through the batched execution engine:
    # frames arrive as a generator, the engine pulls them with
    # backpressure, and a stalled scene
    # (identical frame re-sent) is deduplicated — computed once,
    # replayed for every repeat.
    def frames():
        for f in range(2 * FRAMES):
            yield lidar_scan(N_POINTS // 2, seed=f % FRAMES).coords
    pipeline = PipelineSpec(sample_ratio=0.25, radius=0.3, group_size=16,
                            with_interpolation=False)
    with BatchExecutor("fractal", block_size=256) as engine:
        report = engine.run(frames(), pipeline)
    stats = report.stats
    print(f"\nbatched engine over the stream: {stats.clouds} frames at "
          f"{stats.clouds_per_second:.1f} frames/s "
          f"({stats.points_per_second / 1e6:.2f}M points/s), "
          f"{stats.reused} repeated frames deduplicated")

    # Dynamic graph on the final frame (DGCNN adaptation).
    structure, _ = updater.structure()
    coords = updater.coords()
    subset = np.sort(np.random.default_rng(0).choice(len(coords), 2048, replace=False))
    sub_coords = coords[subset]
    from repro.core import fractal_partition
    sub_structure = fractal_partition(sub_coords, FractalConfig(threshold=128)).block_structure()
    exact = exact_knn_graph(sub_coords, 8)
    approx, work = block_knn_graph(sub_structure, sub_coords, 8)
    print(f"\ndynamic KNN graph on 2,048-point crop: "
          f"{edge_recall(approx, exact):.1%} edge recall at "
          f"{2048 * 2048 / work:.1f}x fewer distance computations")


if __name__ == "__main__":
    main()
