"""Extension bench — the cold path and the streaming-frames delta path.

Two lanes around partition construction, the serving layer's cold cost:

- **cold build**: the fused build-and-sample kernel
  (:func:`repro.core.coldpath.fused_build_and_sample`, via
  :func:`repro.core.dispatch.run_build`) against separate
  build-then-sample.  Fusion folds the FPS seed scan into the partition
  sweep, but each leaf still runs the per-block loop recurrence, while
  the two-pass build dispatches its FPS (ragged at these sizes, 2x
  cheaper end to end); the paper's gain needs the on-chip pipeline, so
  this lane asserts bit-parity, not speed.
- **frame sequence**: a streaming sensor (the loadgen ``frames``
  profile) served by the delta-enabled :class:`PartitionCache` against a
  full rebuild per frame.  Certificate verification is one vectorised
  pass and the incremental updater touches only churned points, so the
  acceptance bar is >= 1.3x on the jittered sequence — measured, not
  assumed.

The churned lane carries its own speed bar since the updater went
batch-vectorised: insert/remove/move land per leaf as bulk set updates
behind one grouped tree descent, and the ``structure()`` export is one
vectorised pass (Euler-tour parent slices + an id→row gather), so
incremental patching beats the full rebuild on wall-clock (>= 1.2x
asserted) as well as on points touched (see ``bench_dynamic_update``).
"""

import numpy as np
import pytest

from repro.analysis import format_table
from repro.core import PatchPolicy, run_build
from repro.partition import get_partitioner
from repro.runtime import PartitionCache
from repro.serve import LoadSpec, generate

from _common import best_time, emit

pytestmark = pytest.mark.slow

BLOCK_SIZE = 256
N_COLD = (4096, 16384)
N_FRAME = 16384
FRAMES = 8
SAMPLE_RATIO = 0.25

#: (label, frame_motion, frame_churn).  The churn lane keeps motion at
#: zero so it isolates insert/delete patching (nonzero jitter marks
#: every retained point as moved and routes through the certificate
#: path instead, which the jitter lane measures on its own).
SEQUENCES = (
    ("jitter", 1e-6, 0.0),
    ("5% churn", 0.0, 0.05),
)


def _frame_stream(motion, churn, seed=0):
    spec = LoadSpec(
        clouds=FRAMES, min_points=N_FRAME, max_points=N_FRAME,
        dup_rate=0.0, profile="frames", frame_motion=motion,
        frame_churn=churn, seed=seed,
    )
    return list(generate(spec))


def run_cold_lane(rows):
    partitioner = get_partitioner("fractal", max_points_per_block=BLOCK_SIZE)
    for n in N_COLD:
        rng = np.random.default_rng(n)
        coords = rng.normal(size=(n, 3))
        samples = max(1, round(SAMPLE_RATIO * n))
        times = {}
        results = {}
        for kernel in ("build_then_sample", "fused"):
            times[kernel], results[kernel] = best_time(
                lambda k=kernel: run_build(partitioner, coords, samples,
                                           kernel=k)
            )
        # Fusion must not change a bit: same blocks, same sample set.
        ref_s, ref_idx = results["build_then_sample"][:2]
        fused_s, fused_idx = results["fused"][:2]
        assert np.array_equal(fused_idx, ref_idx)
        assert fused_s.num_blocks == ref_s.num_blocks
        for a, b in zip(fused_s.blocks, ref_s.blocks):
            assert np.array_equal(a.indices, b.indices)
        base = times["build_then_sample"]
        for kernel in ("build_then_sample", "fused"):
            rows.append([
                "cold build", n, "-", kernel,
                f"{times[kernel] * 1e3:.0f}",
                f"{base / times[kernel]:.2f}x",
                "-",
            ])


def run_frame_lane(rows):
    partitioner = get_partitioner("fractal", max_points_per_block=BLOCK_SIZE)
    speedups = {}
    for label, motion, churn in SEQUENCES:
        frames = _frame_stream(motion, churn)
        cache = PartitionCache(
            partitioner, maxsize=4,
            policy=PatchPolicy(motion_threshold=0.05, max_churn=0.25),
        )

        def run_rebuild():
            return [partitioner(f) for f in frames]

        def run_delta():
            cache.clear()
            return [cache.acquire(f) for f in frames]

        t_rebuild, rebuilt = best_time(run_rebuild)
        t_delta, served = best_time(run_delta)

        outcomes = [outcome for _, outcome, _ in served]
        split = (f"{outcomes.count('cold')}/{outcomes.count('reused')}"
                 f"/{outcomes.count('patched')}")
        # Every served partition is a valid partition of its frame.
        for (structure, outcome, _), frame in zip(served, frames):
            structure.validate()
            assert structure.num_points == len(frame)
        if churn == 0.0:
            # Jitter-only: certificate reuse is proven rebuild-identical.
            assert set(outcomes) <= {"cold", "reused"}
            for (structure, _, _), ref in zip(served, rebuilt):
                for a, b in zip(structure.blocks, ref.blocks):
                    assert np.array_equal(a.indices, b.indices)
        else:
            assert outcomes.count("patched") > 0

        speedups[label] = t_rebuild / t_delta
        rows.append([
            f"frames ({label})", N_FRAME, FRAMES, "rebuild each frame",
            f"{t_rebuild * 1e3:.0f}", "1.00x", "-",
        ])
        rows.append([
            f"frames ({label})", N_FRAME, FRAMES, "delta cache",
            f"{t_delta * 1e3:.0f}", f"{t_rebuild / t_delta:.2f}x", split,
        ])
    return speedups


def run_bench():
    rows = []
    run_cold_lane(rows)
    speedups = run_frame_lane(rows)
    table = format_table(
        ["lane", "points", "frames", "path", "ms", "speedup",
         "cold/reused/patched"],
        rows,
        title="cold-path fusion + streaming-frames delta protocol "
              f"(fractal, threshold {BLOCK_SIZE})",
    )
    return table, speedups


def test_cold_path(benchmark):
    table, speedups = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    emit("cold_path", table)
    # Acceptance: the delta protocol beats per-frame rebuilds by >= 1.3x
    # on the jittered sensor sequence, and the batch-vectorised updater
    # makes the churned-patch lane beat the rebuild outright too.
    assert speedups["jitter"] >= 1.3, speedups
    assert speedups["5% churn"] >= 1.2, speedups
