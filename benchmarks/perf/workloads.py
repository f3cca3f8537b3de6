"""The four serving workloads: traffic, server topology, fixed rates.

This file is the single place a workload is defined.  ``capacity`` and
``paced_rate`` are absolute numbers measured once on the seed commit
(2-core box); they size the passes and fix the open-loop arrival rate,
and a later commit never rescales them — a faster program finishes the
same firehose pass sooner and serves the same paced schedule with lower
latency.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.runtime import BatchExecutor, PipelineSpec
from repro.serve import (
    LoadSpec,
    MultiTenantServer,
    TenantSpec,
    WindowConfig,
    WindowedServer,
    generate,
    generate_tenants,
    read_stream,
    read_tenant_stream,
    tenant_specs,
    write_stream,
    write_tenant_stream,
)
from repro.shard import ShardRouter

__all__ = [
    "FIREHOSE_SHARE",
    "ROUNDS",
    "WORKLOADS",
    "Workload",
    "describe",
    "open_server",
    "open_source",
    "pass_sizes",
    "pipeline_for",
    "write_wire",
]

#: Rounds per run; every reported value is the median over them.
ROUNDS = 3

#: Share of a round's measuring time given to the firehose pass; the
#: rest goes to the paced pass, which needs the samples for its tail.
FIREHOSE_SHARE = 0.3

#: Seed of the hot-asset catalog, the same on every run.
CATALOG_SEED = 7_000_003

#: Engine settings shared by every in-process server (the shard workers
#: build theirs from ``partitioner`` alone and are forced serial).
ENGINE = dict(partitioner="fractal", max_workers=1, in_flight=32)


@dataclass(frozen=True)
class Workload:
    """One traffic mix on one server topology.

    ``load`` holds :class:`repro.serve.LoadSpec` keywords (``clouds`` and
    ``seed`` are filled in per pass).  ``server`` is ``window``
    (:class:`WindowedServer`), ``tenants`` (:class:`MultiTenantServer`,
    one tenant per entry of ``models``) or ``shards``
    (:class:`ShardRouter`).  ``tail`` is the latency percentile reported
    as ``latency_tail_ms``; at least ten samples lie beyond it.
    ``sparse`` marks a workload with only a dozen heavy requests per
    paced pass: its latency percentiles are taken over the samples of all
    rounds together, and its arrivals are jittered slots instead of
    Poisson (``harness.arrival_schedule``).
    """

    name: str
    why: str
    server: str
    load: dict
    window: tuple[int, float]
    capacity: float
    paced_rate: float
    tail: float
    sparse: bool = False
    even_sizes: bool = False
    models: tuple[str, ...] = ()
    shards: dict = field(default_factory=dict)
    parity_sample: int = 32


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="roi_window",
            why="64-256-point clouds, 1 ms of CPU each: what a request costs "
                "per call (kernel launches, cache and engine glue, wire "
                "decode, window loop), not per point",
            server="window",
            load=dict(profile="uniform", dataset="modelnet40", min_points=64,
                      max_points=256, dup_rate=0.2),
            window=(16, 0.05),
            capacity=1100.0,
            paced_rate=400.0,
            tail=95.0,
        ),
        Workload(
            name="scene_large",
            why="the paper's regime, 8K-12K-point scenes: what a request "
                "costs per point (partition build, the five point ops); "
                "fused windows under firehose, per-cloud dispatch when paced",
            server="window",
            load=dict(profile="uniform", dataset="s3dis", min_points=8192,
                      max_points=12288, dup_rate=0.0),
            window=(4, 0.05),
            capacity=10.0,
            paced_rate=4.0,
            tail=80.0,
            sparse=True,
            even_sizes=True,
            parity_sample=4,
        ),
        Workload(
            name="hotset_shards",
            why="48 hot assets behind 2 shard processes: read-dominated "
                "dedup and partition cache (half the requests replay), hash "
                "ring, arena transport, reorder buffer; the busiest shard "
                "sets the time",
            server="shards",
            load=dict(profile="hotset", dataset="s3dis", min_points=1024,
                      max_points=4096, hot_assets=48, hot_rate=0.8,
                      dup_rate=0.0),
            window=(12, 0.05),
            capacity=100.0,
            paced_rate=40.0,
            tail=90.0,
            shards=dict(shards=2, transport="shm", affinity="content",
                        max_in_flight=8),
        ),
        Workload(
            name="infer_tenants",
            why="three tenants on three networks: network math, the "
                "aggregation-order choice, DRR admission and cross-tenant "
                "grouping; the only workload a model or tenancy change moves",
            server="tenants",
            load=dict(profile="inference", dataset="modelnet40",
                      min_points=128, max_points=512, dup_rate=0.1),
            window=(16, 0.05),
            capacity=215.0,
            paced_rate=85.0,
            tail=95.0,
            models=("pointnet2-cls", "pointnet2-msg-cls", "pointnet2-seg"),
        ),
    )
}


def pass_sizes(workload: Workload, seconds: float) -> tuple[int, int]:
    """``(firehose, paced)`` request counts of one round for a run that
    measures ``seconds`` in total."""
    per_round = seconds / ROUNDS
    tenants = max(1, len(workload.models))
    firehose = workload.capacity * per_round * FIREHOSE_SHARE
    paced = workload.paced_rate * per_round * (1.0 - FIREHOSE_SHARE)
    # Tenant streams carry the same count per tenant.
    return tuple(
        max(tenants, int(round(n / tenants)) * tenants)
        for n in (firehose, paced)
    )


def _sized(load: dict, points: int, seed: int) -> np.ndarray:
    """One cloud of exactly ``points`` points from the workload's dataset."""
    spec = LoadSpec(**{**load, "min_points": points, "max_points": points},
                    clouds=1, seed=seed)
    return next(iter(generate(spec)))


def _even_sizes(load: dict, count: int) -> np.ndarray:
    """``count`` sizes tiling ``[min_points, max_points]`` evenly."""
    sizes = np.linspace(load["min_points"], load["max_points"], count)
    return np.round(sizes).astype(np.int64)


def _even_clouds(load: dict, clouds: int, seed: int):
    """``clouds`` scenes whose sizes tile the size range evenly, in
    seeded order.

    With only tens of clouds per pass, sizes drawn at random would move
    the total work by several per cent from seed to seed — more than the
    regression bound.  Content and order still come from the seed.
    """
    rng = np.random.default_rng([seed, 0x5CE2E])
    sizes = _even_sizes(load, clouds)
    rng.shuffle(sizes)
    for i, points in enumerate(sizes):
        yield _sized(load, int(points), seed * 100_003 + i)


def _catalog_clouds(load: dict, clouds: int, seed: int):
    """Hot-asset traffic over a catalog that does not depend on the seed.

    A ``hot_rate`` share of requests goes to ``hot_assets`` fixed clouds
    (exact repeats, equally popular); the rest are one-off clouds.  The seed
    decides the order of requests and the content of the one-off clouds.
    The catalog itself is the service's, not the day's: were it redrawn
    per seed, which shard each asset hashes to and how large the hot
    assets are would move throughput by more than 20 % between seeds.
    """
    load = dict(load)
    assets, hot_rate = load.pop("hot_assets"), load.pop("hot_rate")
    load["profile"] = "uniform"
    rng = np.random.default_rng([seed, 0xCA7A])
    catalog: dict[int, np.ndarray] = {}
    asset_sizes = _even_sizes(load, assets)
    # Exactly the cold share of requests is one-off, at seeded positions
    # and with evenly tiled sizes, and the hot requests go round the
    # catalog in seeded order, so the work per pass and per shard does
    # not depend on how a seed's draws happen to fall.
    cold_at = rng.permutation(clouds)[: round(clouds * (1.0 - hot_rate))]
    cold_sizes = dict(zip(cold_at.tolist(),
                          rng.permutation(_even_sizes(load, len(cold_at)))))
    hot = iter(rng.permutation(np.arange(clouds - len(cold_at)) % assets))
    for i in range(clouds):
        if i in cold_sizes:
            yield _sized(load, int(cold_sizes[i]), seed * 100_003 + i)
            continue
        asset = int(next(hot))
        if asset not in catalog:
            catalog[asset] = _sized(load, int(asset_sizes[asset]),
                                    CATALOG_SEED + asset)
        yield catalog[asset]


def write_wire(workload: Workload, clouds: int, seed: int, path) -> None:
    """Generate ``clouds`` requests from ``seed`` and wire-encode them to
    ``path``."""
    with open(path, "wb") as fh:
        if workload.server == "tenants":
            base = LoadSpec(**workload.load, seed=seed,
                            clouds=clouds // len(workload.models))
            specs = tenant_specs(len(workload.models), base)
            write_tenant_stream(fh, generate_tenants(specs))
        elif workload.even_sizes:
            write_stream(fh, _even_clouds(workload.load, clouds, seed))
        elif "hot_assets" in workload.load:
            write_stream(fh, _catalog_clouds(workload.load, clouds, seed))
        else:
            spec = LoadSpec(**workload.load, seed=seed, clouds=clouds)
            write_stream(fh, generate(spec))


def open_source(workload: Workload, fh):
    """The wire decoder ``repro serve`` would use on this stream; yields
    ``(stream, cloud)`` pairs."""
    if workload.server == "tenants":
        return read_tenant_stream(fh)
    return (("t0", cloud) for cloud in read_stream(fh))


def pipeline_for(workload: Workload, stream: str) -> PipelineSpec:
    """The pipeline requests of ``stream`` run through."""
    if workload.models:
        return PipelineSpec(model=workload.models[int(stream[1:])], agg="auto")
    return PipelineSpec()


def _pin_workers() -> None:
    """Give each shard worker a core of its own, round-robin.

    Left to the scheduler, the two workers and the router sometimes stack
    on one core for a whole pass and sometimes do not: the same stream
    then serves at 100 or at 145 clouds/s with the same CPU time.  An
    operator pins workers for the same reason; the router stays free.
    """
    cores = sorted(os.sched_getaffinity(0))
    workers = sorted(mp.active_children(), key=lambda child: child.name)
    for index, worker in enumerate(workers):
        os.sched_setaffinity(worker.pid, {cores[index % len(cores)]})


@contextmanager
def open_server(workload: Workload):
    """Build the workload's server exactly as ``repro serve`` does.

    Yields ``(server, serve)``: the server object (for the tracer and the
    counters) and ``serve(source)``, which takes ``(stream, cloud)``
    pairs and yields ``(stream, seq, CloudResult)`` in emission order.
    """
    window = WindowConfig(*workload.window)
    if workload.server == "shards":
        config = dict(workload.shards)
        with ShardRouter(
            config.pop("shards"),
            engine=dict(partitioner=ENGINE["partitioner"]),
            pipeline=PipelineSpec(),
            max_clouds=window.max_clouds,
            **config,
        ) as router:
            _pin_workers()
            yield router, lambda source: (
                (served.stream, served.seq, served.result)
                for served in router.serve(cloud for _, cloud in source)
            )
    elif workload.server == "tenants":
        tenants = [
            TenantSpec(f"t{i}", pipeline_for(workload, f"t{i}"))
            for i in range(len(workload.models))
        ]
        engine = BatchExecutor(**ENGINE)
        with MultiTenantServer(engine, tenants, window=window) as server:
            yield server, lambda source: (
                (served.tenant, served.seq, served.result)
                for served in server.serve(source)
            )
    else:
        engine = BatchExecutor(**ENGINE)
        with WindowedServer(engine, window) as server:
            yield server, lambda source: (
                ("t0", result.index, result)
                for result in server.serve(
                    (cloud for _, cloud in source), PipelineSpec()
                )
            )


def describe(workload: Workload) -> dict:
    """JSON-ready definition (recorded in every BENCH document)."""
    return dataclasses.asdict(workload)
