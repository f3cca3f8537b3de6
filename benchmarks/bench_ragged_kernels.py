"""Extension bench — ragged CSR kernels vs loop/stacked in the mid-size regime.

The stacked fast paths only pay off for blocks whose work product
(centres × search size) stays at or below ``_STACK_SMALL``; above that the
pre-PR-2 engine fell back to the per-block Python loop.  The ragged CSR
kernels (:mod:`repro.core.ragged`) were built for exactly that gap, so the
acceptance bar here is:

- on partitions whose work mass sits between ``_STACK_SMALL`` and
  ~4x ``_STACK_SMALL`` (the mid-size regime), the ragged kernels must
  beat the per-block loop on wall time;
- the cost-model dispatcher (``kernel="auto"``) must pick ``ragged`` for
  those partitions on its own;
- every timed configuration must stay bit-identical to the serial
  reference (asserted, not assumed).

KD-tree leaf thresholds steer the regime: with sampling ratio 1/4 and
parent search spaces, per-block products scale like ``size² / 2``, so
leaves of 16/32/48 land below, inside, and above the mid window.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import bppo, dispatch, ragged
from repro.core.bppo import _STACK_SMALL
from repro.datasets import load_cloud
from repro.partition import get_partitioner

from _common import best_time, emit

N_POINTS = 8192
SAMPLE_RATIO = 4          # one centre per SAMPLE_RATIO points
RADIUS = 0.25
GROUP = 16
KNN_K = 3
LEAVES = (16, 32, 48)     # below / inside / above the mid-size window
MID_LO, MID_HI = _STACK_SMALL, 4 * _STACK_SMALL


def run_bench():
    coords = load_cloud("s3dis", N_POINTS, seed=0).coords.astype(np.float64)
    num_centers = N_POINTS // SAMPLE_RATIO
    rows = []
    mid_results = []
    for leaf in LEAVES:
        structure = get_partitioner("kdtree", max_points_per_block=leaf)(coords)
        centers, _ = dispatch.run_op(
            "fps", structure, coords, num_centers, num_centers=num_centers
        )
        ragged.ragged_of(structure, coords)  # build the layout once up front
        sizes = structure.block_sizes
        est_products = (len(centers) * sizes / sizes.sum()) * structure.search_sizes
        median_product = float(np.median(est_products))
        in_mid = MID_LO < median_product <= MID_HI
        choice = dispatch.choose_kernel("ball_query", structure, len(centers))

        timings = {}
        outputs = {}
        # This bench times each kernel implementation against the others,
        # so every entry below pins one deliberately (suppressed REP001);
        # dispatcher-overhead-free calls are the measurement.
        benches = {
            "ball_query": {
                "loop": lambda: bppo.block_ball_query(  # repro: ignore[REP001]
                    structure, coords, centers, RADIUS, GROUP),
                "stacked": lambda: bppo.block_ball_query_batched(  # repro: ignore[REP001]
                    structure, coords, centers, RADIUS, GROUP),
                "ragged": lambda: ragged.ragged_ball_query(  # repro: ignore[REP001]
                    structure, coords, centers, RADIUS, GROUP),
            },
            "knn": {
                "loop": lambda: bppo.block_knn(  # repro: ignore[REP001]
                    structure, coords, np.arange(N_POINTS), centers, KNN_K),
                "stacked": lambda: bppo.block_knn_batched(  # repro: ignore[REP001]
                    structure, coords, np.arange(N_POINTS), centers, KNN_K),
                "ragged": lambda: ragged.ragged_knn(  # repro: ignore[REP001]
                    structure, coords, np.arange(N_POINTS), centers, KNN_K),
            },
            "fps": {
                "loop": lambda: bppo.block_fps(structure, coords, num_centers),  # repro: ignore[REP001]
                "stacked": lambda: bppo.block_fps_batched(  # repro: ignore[REP001]
                    structure, coords, num_centers),
                "ragged": lambda: ragged.ragged_fps(  # repro: ignore[REP001]
                    structure, coords, num_centers),
            },
        }
        for op, kernels in benches.items():
            for kernel, fn in kernels.items():
                timings[(op, kernel)], (outputs[(op, kernel)], _) = best_time(fn)
            # Timed runs must stay bit-identical to the serial reference.
            for kernel in ("stacked", "ragged"):
                assert np.array_equal(
                    outputs[(op, "loop")], outputs[(op, kernel)]
                ), (op, kernel, leaf)
            rows.append([
                leaf, f"{median_product:.0f}",
                "mid" if in_mid else ("small" if median_product <= MID_LO else "big"),
                op,
                f"{timings[(op, 'loop')] * 1e3:.2f}",
                f"{timings[(op, 'stacked')] * 1e3:.2f}",
                f"{timings[(op, 'ragged')] * 1e3:.2f}",
                f"{timings[(op, 'loop')] / timings[(op, 'ragged')]:.2f}x",
                choice if op != "fps"
                else dispatch.choose_kernel("fps", structure, num_centers),
            ])
        if in_mid:
            mid_results.append(
                (
                    choice,
                    min(
                        timings[(op, "loop")] / timings[(op, "ragged")]
                        for op in ("ball_query", "knn")
                    ),
                )
            )

    table = format_table(
        ["leaf", "median m*s", "regime", "op",
         "loop ms", "stacked ms", "ragged ms", "ragged vs loop", "auto picks"],
        rows,
        title=f"ragged CSR kernels: {N_POINTS} pts, kdtree sweep "
              f"(mid regime = products in ({MID_LO}, {MID_HI}])",
    )
    return table, mid_results


def test_ragged_kernels(benchmark):
    table, mid_results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    emit("ragged_kernels", table)
    # Acceptance: in the mid-size regime the dispatcher must choose the
    # ragged path on its own, and that path must beat the per-block loop
    # with a real margin (the per-block loop and the ragged path share
    # one top-k rule, ``_knn_from_dists``; the ragged win is the fused
    # distance pass and one dense scatter for all blocks).
    assert mid_results, "sweep produced no mid-regime configuration"
    for choice, speedup in mid_results:
        assert choice == "ragged"
        assert speedup >= 1.1
