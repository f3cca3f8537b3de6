"""Replay probes: a layer's public function timed on the workload's own
clouds, outside any server.

Spans can only see what runs in the benchmark's process and behind a
name it can wrap; probes cover the rest — unit costs (hashing, partition
build, transport copies), the shard workers' side of ``hotset_shards``,
and the *regret* of each cost model in ``core.dispatch``: how much
slower ``auto`` ran than the fastest pinned alternative, with the
results asserted equal.
"""

from __future__ import annotations

import time

import numpy as np
import workloads as wl
from harness import same_bits

from repro.core import dispatch
from repro.core.bppo import allocate_samples
from repro.infer import run_offline
from repro.partition import get_partitioner
from repro.runtime import PartitionCache, PipelineSpec, result_key
from repro.shard import ShmArena, ShmPeer

__all__ = ["probe_clouds", "run_probes"]

#: Probe input: up to this many distinct clouds ...
PROBE_CLOUDS = 16
#: ... or this many points, whichever comes first (at least 4 clouds).
PROBE_POINTS = 65_536
#: Timed repeats per call; the fastest is kept.
REPEATS = 2


def probe_clouds(workload: wl.Workload, wire: str) -> list[np.ndarray]:
    """The first distinct clouds of the workload's firehose stream."""
    clouds: list[np.ndarray] = []
    seen: set[bytes] = set()
    points = 0
    with open(wire, "rb") as fh:
        for _, cloud in wl.open_source(workload, fh):
            key = result_key(cloud, None)
            if key in seen:
                continue
            seen.add(key)
            clouds.append(cloud)
            points += len(cloud)
            if len(clouds) >= PROBE_CLOUDS or (
                points >= PROBE_POINTS and len(clouds) >= 4
            ):
                break
    return clouds


def _timed(fn, repeats: int = REPEATS):
    """``(fastest seconds of ``repeats`` calls, last result)``."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def _regret_pct(seconds: dict[str, float]) -> float:
    """How much slower ``auto`` ran than the fastest pinned choice."""
    pinned = [t for name, t in seconds.items() if name != "auto"]
    if not pinned or min(pinned) <= 0:
        return 0.0
    return (seconds["auto"] / min(pinned) - 1.0) * 100.0


def _race(seconds: dict[str, float], call, result_of=lambda out: out) -> int:
    """Time ``call(variant)`` for every variant named in ``seconds``
    (adding to its total) and return how many variants' results differ
    from the first one's."""
    mismatches = 0
    reference = None
    for variant in seconds:
        took, out = _timed(lambda: call(variant))
        seconds[variant] += took
        out = result_of(out)
        if reference is None:
            reference = out
        elif not same_bits(out, reference):
            mismatches += 1
    return mismatches


def _probe_ops(clouds, pipeline: PipelineSpec, partitioner) -> tuple[dict, int]:
    """Each point op through ``dispatch.run_op`` under ``auto`` and every
    pinned kernel, with the engine's own arguments and cost-model hints.

    Returns ``({op: {kernel: seconds}}, mismatches)``.
    """
    seconds = {
        op: dict.fromkeys(("auto", *kernels), 0.0)
        for op, kernels in dispatch.KERNELS.items()
    }
    mismatches = 0
    for coords in clouds:
        n = len(coords)
        structure = partitioner(coords)
        num_samples = pipeline.samples_for(n)
        quotas = allocate_samples(structure.block_sizes, num_samples, clamp=True)
        sampled, _ = dispatch.run_op("fps", structure, coords, num_samples,
                                     kernel="loop")
        counts = np.bincount(structure.block_of_point()[sampled],
                             minlength=structure.num_blocks)
        neighbors, _ = dispatch.run_op(
            "ball_query", structure, coords, sampled, pipeline.radius,
            pipeline.group_size, kernel="loop",
        )
        everyone = np.arange(n, dtype=np.int64)
        k = min(pipeline.interpolate_k, len(sampled))
        calls = {
            "fps": ((coords, num_samples), num_samples, quotas),
            "ball_query": (
                (coords, sampled, pipeline.radius, pipeline.group_size),
                len(sampled), counts,
            ),
            "gather": ((coords, neighbors, sampled), len(sampled), counts),
            "knn": ((coords, everyone, sampled, k), n, structure.block_sizes),
            "interpolate": (
                (coords, everyone, sampled, coords[sampled], k),
                n, structure.block_sizes,
            ),
        }
        for op, (args, num_centers, center_counts) in calls.items():
            if op not in seconds:
                continue
            hints = dict(num_centers=num_centers, center_counts=center_counts)
            mismatches += _race(
                seconds[op],
                lambda kernel: dispatch.run_op(
                    op, structure, *args, kernel=kernel,
                    **(hints if kernel == "auto" else {}),
                ),
                lambda out: out[0],
            )
    return seconds, mismatches


def _probe_build(clouds, pipeline: PipelineSpec, partitioner) -> tuple[dict, int]:
    """``dispatch.run_build`` under ``auto`` and each build kernel."""
    seconds = dict.fromkeys(dispatch.BUILD_KERNEL_NAMES, 0.0)
    mismatches = 0
    for coords in clouds:
        mismatches += _race(
            seconds,
            lambda kernel: dispatch.run_build(
                partitioner, coords, pipeline.samples_for(len(coords)),
                kernel=kernel,
            ),
            lambda out: out[1],
        )
    return seconds, mismatches


def _probe_models(clouds, models) -> tuple[dict, dict, int]:
    """``run_offline`` per model under ``auto`` and each aggregation
    order; also the totals over the models."""
    per_model: dict[str, dict[str, float]] = {}
    mismatches = 0
    for model in models:
        seconds = per_model[model] = dict.fromkeys(dispatch.AGG_NAMES, 0.0)
        for coords in clouds:
            mismatches += _race(
                seconds, lambda agg: run_offline(model, coords, agg=agg)
            )
    total = {
        agg: sum(seconds[agg] for seconds in per_model.values())
        for agg in dispatch.AGG_NAMES
    }
    return per_model, total, mismatches


def _probe_transport(clouds) -> tuple[float, float]:
    """``(pack, unpack + reclaim)`` seconds per MB through a shm arena."""
    arena = ShmArena(64 << 20)
    peer = ShmPeer()
    pack = unpack = 0.0
    try:
        for coords in clouds:
            took, ref = _timed(lambda: arena.pack(coords), repeats=1)
            pack += took
            start = time.perf_counter()
            peer.unpack(ref, copy=True)
            arena.reclaim([ref])
            unpack += time.perf_counter() - start
    finally:
        peer.close()
        arena.close()
    megabytes = sum(c.nbytes for c in clouds) / 1e6
    return pack / megabytes, unpack / megabytes


def run_probes(workload: wl.Workload, clouds: list[np.ndarray]) -> dict:
    """All probes of the layers on this workload's serving path.

    Returns ``{"metrics": {name: value}, "mismatches": int, "detail": ...}``;
    layers the workload never calls (models without a model pipeline,
    the arena without shards) are left out and read 0 in the report.
    """
    pipeline = PipelineSpec()
    partitioner = get_partitioner(
        wl.ENGINE["partitioner"], max_points_per_block=256
    )
    kpts = sum(len(c) for c in clouds) / 1e3
    metrics: dict[str, float] = {}

    keyed = [_timed(lambda: result_key(c, None))[0] for c in clouds]
    metrics["cache.result_key_us_per_cloud"] = float(np.median(keyed)) * 1e6

    cache = PartitionCache(partitioner, maxsize=len(clouds))
    cold = [_timed(lambda: cache.acquire(c), repeats=1)[0] for c in clouds]
    warm = [_timed(lambda: cache.acquire(c))[0] for c in clouds]
    metrics["cache.acquire_cold_ms_per_kpt"] = sum(cold) * 1e3 / kpts
    metrics["cache.acquire_warm_us"] = float(np.median(warm)) * 1e6

    built = [_timed(lambda: partitioner(c)) for c in clouds]
    metrics["partition.build_ms_per_kpt"] = sum(t for t, _ in built) * 1e3 / kpts
    metrics["partition.blocks_per_kpt"] = (
        sum(s.num_blocks for _, s in built) / kpts
    )

    ops, mismatches = _probe_ops(clouds, pipeline, partitioner)
    for op, seconds in ops.items():
        metrics[f"probe.op.{op}.ms_per_kpt"] = seconds["auto"] * 1e3 / kpts
        metrics[f"dispatch.{op}.regret_pct"] = _regret_pct(seconds)
    build, bad = _probe_build(clouds, pipeline, partitioner)
    mismatches += bad
    metrics["dispatch.build.regret_pct"] = _regret_pct(build)
    detail = {"ops_s": ops, "build_s": build, "clouds": len(clouds),
              "kpts": kpts}

    if workload.models:
        per_model, total, bad = _probe_models(clouds, workload.models)
        mismatches += bad
        for model, seconds in per_model.items():
            metrics[f"model.{model}.ms_per_cloud"] = (
                seconds["auto"] * 1e3 / len(clouds)
            )
        metrics["dispatch.agg.regret_pct"] = _regret_pct(total)
        detail["models_s"] = per_model
    if workload.server == "shards":
        pack, unpack = _probe_transport(clouds)
        metrics["transport.pack_us_per_mb"] = pack * 1e6
        metrics["transport.unpack_us_per_mb"] = unpack * 1e6
    return {"metrics": metrics, "mismatches": mismatches, "detail": detail}
