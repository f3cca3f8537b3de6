"""Extension bench — the streaming-frames delta path.

Partition construction is the serving layer's cold cost.  A streaming
sensor (the loadgen ``frames`` profile) served by the delta-enabled
:class:`PartitionCache` is measured against a full rebuild per frame, on
two frame sequences.  Certificate verification is one vectorised pass
and the incremental updater touches only churned points, so the
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
from repro.core import PatchPolicy
from repro.partition import get_partitioner
from repro.runtime import PartitionCache
from repro.serve import LoadSpec, generate

from _common import best_time, emit

pytestmark = pytest.mark.slow

BLOCK_SIZE = 256
N_FRAME = 16384
FRAMES = 8

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

        outcomes = [outcome for _, outcome in served]
        split = (f"{outcomes.count('cold')}/{outcomes.count('reused')}"
                 f"/{outcomes.count('patched')}")
        # Every served partition is a valid partition of its frame.
        for (structure, _), frame in zip(served, frames):
            structure.validate()
            assert structure.num_points == len(frame)
        if churn == 0.0:
            # Jitter-only: certificate reuse is proven rebuild-identical.
            assert set(outcomes) <= {"cold", "reused"}
            for (structure, _), ref in zip(served, rebuilt):
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
    speedups = run_frame_lane(rows)
    table = format_table(
        ["lane", "points", "frames", "path", "ms", "speedup",
         "cold/reused/patched"],
        rows,
        title="streaming-frames delta protocol "
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
