"""Quickstart: Fractal partitioning + block-parallel point operations.

Builds a synthetic object cloud, partitions it with Fractal, runs the
three block-parallel point operations, and compares their quality against
the exact global-search references — then hands a whole batch of clouds
to the :class:`~repro.runtime.executor.BatchExecutor` engine.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import FractalConfig, fractal_partition
from repro.core import BlockLayout, dispatch
from repro.datasets import sample_shape
from repro.geometry import coverage_radius, farthest_point_sample
from repro.runtime import BatchExecutor, PipelineSpec


def main() -> None:
    rng = np.random.default_rng(0)
    cloud = sample_shape("torus", 4096, rng)
    coords = cloud.coords.astype(np.float64)
    print(f"input: {cloud} (torus surface, scan-biased density)")

    # 1. Fractal partitioning (paper Alg. 1).
    tree = fractal_partition(coords, FractalConfig(threshold=64))
    print(f"\nFractal: {tree.num_blocks} blocks in {tree.num_levels} levels "
          f"(threshold 64, max block {tree.block_sizes.max()}, "
          f"{tree.cost.num_traversals} traversals)")

    # 2. DFT memory layout: blocks are contiguous, subtrees are ranges.
    layout = BlockLayout.from_tree(tree)
    start, end = layout.block_range(0)
    print(f"DFT layout: block 0 occupies stored range [{start}, {end})")

    structure = tree.block_structure()

    # 3. Block-wise FPS vs exact FPS.  Ops go through the dispatcher,
    # which picks the faster kernel (loop / ragged) from its cost
    # model — pass kernel="loop" or kernel="ragged" to pin one.
    n_samples = 1024
    sampled, fps_trace = dispatch.run_op(
        "fps", structure, coords, n_samples, num_centers=n_samples
    )
    exact_sampled = farthest_point_sample(coords, n_samples)
    ratio = coverage_radius(coords, sampled) / coverage_radius(coords, exact_sampled)
    print(f"\nblock-wise FPS: {len(sampled)} samples over "
          f"{fps_trace.num_blocks} parallel blocks; "
          f"coverage ratio vs exact FPS = {ratio:.3f} (1.0 = exact)")

    # 4. Block-wise ball query: every returned neighbour must lie within
    # the radius (any in-radius subset is a valid PointNet++ group).
    radius = 0.15
    neighbors, bq_trace = dispatch.run_op(
        "ball_query", structure, coords, sampled, radius, 16,
        num_centers=len(sampled),
    )
    dists = np.linalg.norm(coords[sampled][:, None, :] - coords[neighbors], axis=2)
    validity = float((dists <= radius + 1e-9).mean())
    print(f"block-wise ball query: {validity:.1%} of returned neighbours "
          f"within radius ({bq_trace.total_search_elements:,} distance "
          f"computations vs {len(sampled) * len(coords):,} for global search)")

    # 5. Block-wise gathering (functionally identical to global).
    features = rng.normal(size=(len(coords), 32)).astype(np.float64)
    gathered, _ = dispatch.run_op(
        "gather", structure, features, neighbors, sampled,
        num_centers=len(sampled),
    )
    print(f"block-wise gather: {gathered.shape} feature tensor "
          f"(values identical to global gathering by construction)")

    # 6. Many clouds at once: the batched execution engine runs the whole
    # FPS → group → gather → interpolate pipeline per cloud, schedules
    # clouds across a worker pool, and deduplicates identical requests
    # (the repeated cloud below is computed only once and replayed).
    batch = [sample_shape(shape, 2048, rng)
             for shape in ("torus", "sphere", "cube", "cylinder")]
    batch.append(batch[0])  # duplicate request → result reuse
    with BatchExecutor("fractal", block_size=64, max_workers=4) as engine:
        report = engine.run(batch, PipelineSpec(radius=radius, group_size=16))
    stats = report.stats
    print(f"\nbatched engine: {stats.clouds} clouds in "
          f"{stats.wall_seconds * 1e3:.0f} ms "
          f"({stats.clouds_per_second:.1f} clouds/s, "
          f"{stats.reused} duplicate request(s) reused); "
          f"cloud 0 interpolated features {report.results[0].interpolated.shape}")


if __name__ == "__main__":
    main()
