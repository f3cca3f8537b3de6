"""Batched multi-cloud execution engine.

The functional layers below this one process exactly one cloud at a time;
this module is the throughput story on top of them: it takes a sequence
(or generator) of point clouds, partitions each with any registered
strategy (content-hash cached), runs the block-parallel point-operation
pipeline — block FPS → ball-query grouping → gathering → KNN
interpolation — per cloud with the kernels :mod:`repro.core.dispatch`
picks, and schedules clouds across a configurable
``concurrent.futures`` worker pool (threads, processes, or a serial
fallback).  Results stream back in submission order together with
aggregate throughput statistics.

Scheduling granularity is the *cloud*: blocks inside a cloud are already
executed "in parallel" by the ragged kernels (one vectorized pass over many
blocks), so the pool only needs to overlap independent clouds — the
delayed-batching lesson of Mesorasi applied at the request level.  With
``fuse=True`` the engine goes one level further and batches *across*
clouds: near-equal-size clouds bucket into one ragged problem per
pipeline stage (mixed sizes fuse via per-cloud quotas and offset
tables), so heterogeneous serving traffic restructures into a handful of
uniform kernel invocations.

Everything the engine computes is bit-identical to the serial reference
path; ``tests/test_batch_parity.py`` holds the proof obligations.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict, deque
from collections.abc import Iterable, Iterator
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core import bppo, dispatch
from ..core.bppo import BlockWork, OpTrace, allocate_samples
from ..core.delta import PatchPolicy
from ..core.ragged import (
    RaggedBlocks,
    ball_query_on_layout,
    fps_on_layout,
    knn_on_layout,
)
from ..geometry import ops as exact_ops
from ..obs import latency_percentiles
from ..partition.base import Partitioner, get_partitioner
from ..serve.planner import WindowPlan, plan_buckets
from .cache import PartitionCache, ResultWindow, replayed, result_key

__all__ = [
    "PipelineSpec",
    "CloudResult",
    "ExecutorStats",
    "BatchReport",
    "BatchExecutor",
]


@dataclass(frozen=True)
class PipelineSpec:
    """The BPPO stage chain applied to every cloud of a batch.

    Mirrors one set-abstraction + feature-propagation round of the
    PointNet++ family: sample centres, group neighbours within a radius,
    gather their features, then interpolate features back onto the dense
    cloud through block-wise KNN.

    Attributes:
        sample_ratio: fraction of points kept by block FPS (used when
            ``num_samples`` is None; always at least one sample).
        num_samples: absolute sample count; clamped to the cloud size so
            a fixed setting survives tiny streamed clouds.
        radius: ball-query grouping radius.
        group_size: neighbours per centre in the grouping stage.
        interpolate_k: K for the interpolation KNN (clamped to the
            number of sampled centres).
        with_interpolation: skip the interpolation stage when False
            (classification-style pipelines stop after grouping).
        model: name of a registered serving model
            (:data:`repro.infer.MODEL_NAMES`).  When set, the pipeline
            runs full network inference instead of the raw BPPO stage
            chain: results carry ``model_output`` and the point-op
            fields stay empty.  The sampling/grouping knobs above are
            ignored — the model's own stage parameters drive the point
            operations.
        agg: set-abstraction aggregation order for model pipelines —
            ``"auto"`` (cost model / ``REPRO_AGG``), ``"eager"``
            (gather-then-MLP), or ``"delayed"`` (MLP-then-gather,
            Mesorasi-style).  Both orders are bit-identical.
    """

    sample_ratio: float = 0.25
    num_samples: int | None = None
    radius: float = 0.2
    group_size: int = 16
    interpolate_k: int = 3
    with_interpolation: bool = True
    model: str | None = None
    agg: str = "auto"

    def __post_init__(self):
        dispatch.validate_agg(self.agg)

    def samples_for(self, num_points: int) -> int:
        """Sample count for a cloud of ``num_points`` (clamped to [1, n])."""
        if self.num_samples is not None:
            return max(1, min(int(self.num_samples), num_points))
        return max(1, min(num_points, round(self.sample_ratio * num_points)))


@dataclass
class CloudResult:
    """Per-cloud output of the engine, in submission order.

    ``reused`` marks a result replayed from an identical earlier cloud of
    the same batch (request deduplication); its arrays are shared with the
    original result, so treat them as read-only.

    ``partition_source`` records how the partition was obtained —
    ``"warm"`` (exact cache hit), ``"reused"`` (certificate-verified
    reuse of a near-match), ``"patched"`` (incremental delta update), or
    ``"cold"`` (full build); empty on results from engines predating the
    delta protocol.

    ``model_output`` holds the network output of a model pipeline
    (``PipelineSpec.model``): per-cloud logits for classifiers,
    per-point logits for segmenters; ``None`` on raw BPPO pipelines,
    whose point-op arrays are empty in the model case.
    """

    index: int
    num_points: int
    num_blocks: int
    cache_hit: bool
    seconds: float
    sampled: np.ndarray
    neighbors: np.ndarray
    grouped: np.ndarray
    interpolated: np.ndarray | None
    traces: dict[str, OpTrace] = field(default_factory=dict)
    reused: bool = False
    partition_source: str = ""
    model_output: np.ndarray | None = None


@dataclass
class ExecutorStats:
    """Aggregate throughput statistics of one :meth:`BatchExecutor.run`."""

    clouds: int = 0
    points: int = 0
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    reused: int = 0
    #: Cache misses absorbed by the delta protocol (certificate reuse or
    #: an incremental patch) instead of a full rebuild.  Zero unless the
    #: engine was built with ``delta=True``.
    patched: int = 0
    #: Cache misses that paid a full partition build.
    cold: int = 0
    #: Per-cloud processing-latency percentiles in seconds (replayed
    #: duplicates count at ~0 — a served repeat really is that cheap).
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0

    @property
    def clouds_per_second(self) -> float:
        return self.clouds / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def points_per_second(self) -> float:
        return self.points / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def speedup_over_busy(self) -> float:
        """Overlap achieved by the pool: per-cloud work time / wall time."""
        return self.busy_seconds / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def summary(self) -> str:
        """One line with the numbers an operator looks at first."""
        return (
            f"throughput {self.clouds_per_second:.1f} clouds/s "
            f"({self.points_per_second / 1e3:.0f}K points/s) | "
            f"latency p50/p95/p99 {self.latency_p50 * 1e3:.2f}/"
            f"{self.latency_p95 * 1e3:.2f}/{self.latency_p99 * 1e3:.2f} ms | "
            f"cache {self.cache_hits}/{self.clouds} hits, "
            f"{self.reused} reused | "
            + (
                f"partitions {self.cold} cold, {self.patched} patched | "
                if self.patched
                else ""
            )
            + f"overlap {self.speedup_over_busy:.2f}x"
        )


@dataclass
class BatchReport:
    """Everything :meth:`BatchExecutor.run` produces."""

    results: list[CloudResult]
    stats: ExecutorStats

    def summary(self) -> str:
        """Delegates to :meth:`ExecutorStats.summary`."""
        return self.stats.summary()


def _as_cloud(item: object) -> tuple[np.ndarray, np.ndarray | None]:
    """Normalise one batch item to ``(coords, features-or-None)``.

    Accepts an ``(n, 3)`` array, a ``(coords, features)`` pair, or any
    object with a ``coords`` attribute (e.g. :class:`repro.geometry.
    pointcloud.PointCloud`).
    """
    features = None
    if isinstance(item, (tuple, list)) and len(item) == 2:
        item, features = item
    if hasattr(item, "coords"):
        item = item.coords
    coords = np.asarray(item, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"each cloud must be (n, 3), got shape {coords.shape}")
    if len(coords) == 0:
        raise ValueError("clouds must contain at least one point")
    if features is not None:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or len(features) != len(coords):
            raise ValueError(
                f"features must be (n, c) aligned with coords, got "
                f"{features.shape} for {len(coords)} points"
            )
    return coords, features


# -- process-mode plumbing ---------------------------------------------------
# Each worker process builds its own serial engine once (fork inherits the
# parent's modules, so this is cheap) and reuses it for every task; the
# parent only ships (index, coords, features, pipeline) per cloud.

def _shutdown_pool(pool: Executor) -> None:
    """GC finalizer for engines dropped without :meth:`BatchExecutor.
    close` — non-blocking so collection never stalls on workers."""
    pool.shutdown(wait=False)


_PROCESS_ENGINE: "BatchExecutor | None" = None


def _process_init(partitioner_name: str, block_size: int, kernel: str,
                  cache_size: int, delta: bool = False,
                  delta_policy: "PatchPolicy | None" = None) -> None:
    global _PROCESS_ENGINE
    # A forked pool child inherits the parent's tracer but nothing ever
    # drains it here (the shard workers are the traced multi-process
    # path); disable so inherited spans don't accumulate.
    obs.configure(trace=False, metrics=False)
    # Serial (max_workers=1): never builds a pool, lives exactly as long
    # as its worker process — there is nothing to release.
    _PROCESS_ENGINE = BatchExecutor(  # repro: ignore[REP004]
        partitioner_name,
        block_size=block_size,
        max_workers=1,
        kernel=kernel,
        cache_size=cache_size,
        delta=delta,
        delta_policy=delta_policy,
    )


def _process_run(args: tuple) -> CloudResult:
    index, coords, features, pipeline = args
    assert _PROCESS_ENGINE is not None
    return _PROCESS_ENGINE._execute(index, coords, features, pipeline)


class BatchExecutor:
    """Batched multi-cloud BPPO engine with partition caching.

    Usage::

        from repro.runtime import BatchExecutor, PipelineSpec

        engine = BatchExecutor("fractal", block_size=128, max_workers=4)
        report = engine.run(clouds, PipelineSpec(radius=0.3, group_size=16))
        for result in report.results:          # submission order
            use(result.sampled, result.neighbors, result.interpolated)
        print(f"{report.stats.clouds_per_second:.1f} clouds/s, "
              f"{report.stats.cache_hits} cache hits")

        for result in engine.stream(sensor_frames()):   # generator in,
            consume(result)                             # results stream out
        engine.close()   # joins the persistent worker pool (or use `with`)

    The worker pool is **persistent**: created lazily on the first
    parallel call, shared by every subsequent ``stream()`` /
    ``execute_window()``, and joined by :meth:`close` (the engine also
    works as a context manager).  Serving layers that close a window
    every few milliseconds reuse one pool instead of churning one per
    window.

    Args:
        partitioner: strategy name from :mod:`repro.partition` or a
            ready :class:`Partitioner` instance.
        block_size: partition threshold (``th`` / BS) when constructing
            from a name.
        max_workers: worker count; ``1`` (or ``mode="serial"``) runs the
            serial fallback with no pool.  Defaults to ``min(4, cpus)``.
        in_flight: backpressure bound — how many clouds :meth:`stream`
            keeps in flight (and the serving layer's puller-queue
            capacity) before the source is stalled.  Defaults to
            ``2 × max_workers``.
        mode: ``"thread"`` (shared partition cache, numpy releases the
            GIL in the heavy kernels), ``"process"`` (independent caches,
            full parallelism; requires a partitioner *name*), or
            ``"serial"``.
        kernel: block-op implementation — ``"auto"`` (default) resolves
            each op per call through the cost-model dispatcher of
            :mod:`repro.core.dispatch`; ``"loop" | "ragged"`` pin one
            path.  Results are bit-identical either way.
        fuse: default for :meth:`run`'s whole-cloud fusion — clouds of a
            batch are size-bucketed and each bucket is concatenated into
            one ragged problem executed as a single kernel invocation per
            stage, results split back in submission order.  Mixed sizes
            fuse fine (each cloud keeps its own sample quota and offsets);
            the bucketing knobs below bound how unlike a bucket may get.
        fuse_max_points: fused-group budget — a bucket never holds more
            than this many total points (``None`` = unbounded).  Bounds
            the flat arrays one fused invocation materialises.
        fuse_max_spread: largest/smallest cloud-size ratio allowed inside
            one bucket (``None`` = unbounded).  Wildly unlike sizes fuse
            correctly but share little per-stage work shape, so the
            scheduler prefers splitting them; clouds left alone fall back
            to the per-cloud pool path.
        use_batched_ops: legacy boolean equivalent of ``kernel``
            (``False`` → ``"loop"``); kept for callers of the PR-1 API.
        cache_size: LRU capacity of the partition cache.
        reuse_results: deduplicate identical clouds within a stream —
            compute once, replay the result (``CloudResult.reused``).
            Identity is the exact float64 content of coords + features.
        reuse_window: distinct recent clouds eligible for reuse (``>=
            0``; 0 replays only repeats inside one window).  The engine
            retains the full result arrays of that many recent clouds
            even when nothing repeats, so the window bounds steady-state
            memory on unbounded unique streams (at the default 32 and
            8 K-point clouds, a few tens of MB).
        delta: enable the streaming-frames delta protocol — on a cache
            miss the partition cache scans recent entries for a
            near-match and serves a certificate-verified reuse or an
            incrementally patched structure (bit-identical to a rebuild)
            instead of partitioning from scratch.  See
            :class:`repro.core.delta.PatchPolicy`.
        delta_policy: explicit :class:`~repro.core.delta.PatchPolicy`
            (implies ``delta=True``); ``None`` with ``delta=True`` uses
            the policy defaults.
    """

    def __init__(
        self,
        partitioner: str | Partitioner = "fractal",
        *,
        block_size: int = 256,
        max_workers: int | None = None,
        in_flight: int | None = None,
        mode: str = "thread",
        kernel: str = "auto",
        fuse: bool = False,
        fuse_max_points: int | None = 262_144,
        fuse_max_spread: float | None = 4.0,
        use_batched_ops: bool = True,
        cache_size: int = 64,
        reuse_results: bool = True,
        reuse_window: int = 32,
        delta: bool = False,
        delta_policy: PatchPolicy | None = None,
    ):
        if mode not in ("thread", "process", "serial"):
            raise ValueError(f"mode must be thread|process|serial, got {mode!r}")
        if isinstance(partitioner, Partitioner):
            self.partitioner = partitioner
            self.partitioner_name = partitioner.name
            self._from_name = False
        else:
            self.partitioner = get_partitioner(
                partitioner, max_points_per_block=block_size
            )
            self.partitioner_name = partitioner
            self._from_name = True
        if mode == "process" and not self._from_name:
            raise ValueError(
                "process mode needs a partitioner name (instances do not "
                "cross process boundaries); pass e.g. partitioner='kdtree'"
            )
        self.block_size = block_size
        self.max_workers = max_workers if max_workers else min(4, os.cpu_count() or 1)
        self.mode = "serial" if self.max_workers <= 1 else mode
        if in_flight is not None and in_flight < 1:
            raise ValueError(f"in_flight must be >= 1 or None, got {in_flight}")
        self.in_flight = (
            int(in_flight) if in_flight is not None else 2 * self.max_workers
        )
        if not use_batched_ops and kernel == "auto":
            kernel = "loop"
        self.kernel = dispatch.validate_kernel(kernel)
        self.fuse = fuse
        if fuse_max_points is not None and fuse_max_points < 1:
            raise ValueError(
                f"fuse_max_points must be >= 1 or None, got {fuse_max_points}"
            )
        if fuse_max_spread is not None and fuse_max_spread < 1.0:
            raise ValueError(
                f"fuse_max_spread must be >= 1.0 or None, got {fuse_max_spread}"
            )
        self.fuse_max_points = fuse_max_points
        self.fuse_max_spread = fuse_max_spread
        self.use_batched_ops = use_batched_ops
        self.cache_size = cache_size
        self.reuse_results = reuse_results
        if reuse_window < 0:
            raise ValueError(f"reuse_window must be >= 0, got {reuse_window}")
        self.reuse_window = reuse_window
        policy = (
            (delta_policy or PatchPolicy())
            if (delta or delta_policy is not None)
            else None
        )
        self.delta = policy is not None
        self.cache = PartitionCache(
            self.partitioner, maxsize=cache_size, policy=policy
        )
        # Persistent worker pool: created lazily on first parallel use,
        # reused by every stream()/execute_window() after that, joined by
        # close().  The serving layer closes one window every few ms, so
        # a throwaway pool per window was measurable churn.
        self._pool: Executor | None = None
        self._pool_lock = threading.Lock()

    # -- single-cloud pipeline ----------------------------------------------

    def _execute(
        self,
        index: int,
        coords: np.ndarray,
        features: np.ndarray | None,
        pipeline: PipelineSpec,
    ) -> CloudResult:
        """Run the full BPPO pipeline on one cloud."""
        if obs.enabled():
            with obs.span("engine.cloud", points=len(coords)) as span:
                result = self._execute_impl(index, coords, features, pipeline)
                span.annotate(source=result.partition_source)
                return result
        return self._execute_impl(index, coords, features, pipeline)

    def _execute_impl(
        self,
        index: int,
        coords: np.ndarray,
        features: np.ndarray | None,
        pipeline: PipelineSpec,
    ) -> CloudResult:
        if pipeline.model is not None:
            return self._execute_model_impl(index, coords, features, pipeline)
        start = obs.now()
        n = len(coords)
        num_samples = pipeline.samples_for(n)
        structure, source = self.cache.acquire(coords)
        cache_hit = source == "warm"

        feats = coords if features is None else features
        traces: dict[str, OpTrace] = {}

        # Each stage knows exactly how many centres every block will see —
        # the FPS quotas up front, then a bincount of the sampled centres
        # over the owner map — so auto dispatch runs on measured per-block
        # work instead of the population-proportion estimate.  A pinned
        # kernel never consults the cost model, so skip the bookkeeping.
        auto = self.kernel == "auto"
        quotas = (
            allocate_samples(structure.block_sizes, num_samples, clamp=True)
            if auto
            else None
        )
        sampled, traces["fps"] = dispatch.run_op(
            "fps", structure, coords, num_samples,
            kernel=self.kernel, num_centers=num_samples, center_counts=quotas,
        )
        sampled_counts = (
            np.bincount(
                structure.block_of_point()[sampled],
                minlength=structure.num_blocks,
            )
            if auto
            else None
        )
        neighbors, traces["ball_query"] = dispatch.run_op(
            "ball_query", structure, coords, sampled,
            pipeline.radius, pipeline.group_size,
            kernel=self.kernel, num_centers=len(sampled),
            center_counts=sampled_counts,
        )
        grouped, traces["gather"] = dispatch.run_op(
            "gather", structure, feats, neighbors, sampled,
            kernel=self.kernel, num_centers=len(sampled),
            center_counts=sampled_counts,
        )
        interpolated = None
        if pipeline.with_interpolation:
            k = min(pipeline.interpolate_k, len(sampled))
            interpolated, traces["interpolate"] = dispatch.run_op(
                "interpolate", structure, coords, np.arange(n, dtype=np.int64),
                sampled, feats[sampled], k,
                kernel=self.kernel, num_centers=n,
                center_counts=structure.block_sizes if auto else None,
            )
        return CloudResult(
            index=index,
            num_points=n,
            num_blocks=structure.num_blocks,
            cache_hit=cache_hit,
            seconds=obs.now() - start,
            sampled=sampled,
            neighbors=neighbors,
            grouped=grouped,
            interpolated=interpolated,
            traces=traces,
            partition_source=source,
        )

    def _execute_model_impl(
        self,
        index: int,
        coords: np.ndarray,
        features: np.ndarray | None,
        pipeline: PipelineSpec,
    ) -> CloudResult:
        """Run full network inference on one cloud.

        The model's point operations resolve through a backend that
        shares this engine's partition cache and kernel choice, so every
        pyramid level's partition is content-cached exactly like raw
        BPPO traffic (the level-0 acquire below only claims the
        warm/cold accounting before the backend warm-hits it).
        """
        from ..infer import get_model, run_model
        from ..networks.backends import BlockBackend

        start = obs.now()
        structure, source = self.cache.acquire(coords)
        backend = BlockBackend(
            self.partitioner, kernel=self.kernel, cache=self.cache
        )
        output = run_model(
            get_model(pipeline.model), coords, features, backend,
            agg=pipeline.agg,
        )
        return CloudResult(
            index=index,
            num_points=len(coords),
            num_blocks=structure.num_blocks,
            cache_hit=source == "warm",
            seconds=obs.now() - start,
            sampled=np.zeros(0, dtype=np.int64),
            neighbors=np.zeros((0, 0), dtype=np.int64),
            grouped=np.zeros((0, 0, 0)),
            interpolated=None,
            partition_source=source,
            model_output=output,
        )

    def run_cloud(
        self,
        cloud: object,
        pipeline: PipelineSpec | None = None,
        *,
        index: int = 0,
    ) -> CloudResult:
        """Run the pipeline on a single cloud in the calling thread."""
        coords, features = _as_cloud(cloud)
        return self._execute(index, coords, features, pipeline or PipelineSpec())

    # -- batched execution ---------------------------------------------------

    def stream(
        self,
        clouds: Iterable[object],
        pipeline: PipelineSpec | None = None,
    ) -> Iterator[CloudResult]:
        """Yield one :class:`CloudResult` per cloud, in submission order.

        ``clouds`` may be any iterable — including an unbounded generator:
        at most ``in_flight`` clouds (default ``2 × max_workers``) are in
        flight at a time, so the engine pulls from the source at the rate
        it can process (simple backpressure for sensor streams).

        When ``reuse_results`` is on, a cloud whose (coords, features)
        content already appeared among the last ``reuse_window`` distinct
        clouds of this stream is never recomputed — its result is
        replayed with the new index and marked ``reused`` (repeated
        frames, retries, and popular assets are the common case of
        serving traffic).
        """
        pipeline = pipeline or PipelineSpec()
        if self.mode == "serial":
            # Every cloud is a window of one.
            done = ResultWindow(self.reuse_window)
            for entry in self._keyed(clouds):
                split = done.split([entry])
                results = {
                    index: self._execute(index, coords, features, pipeline)
                    for index, coords, features in split.uniques
                }
                yield done.complete(results, split)[entry[0]]
            return

        pool = self._ensure_pool()
        pending: deque = deque()
        in_flight: OrderedDict = OrderedDict()
        window = self.in_flight

        def drain_one() -> CloudResult:
            index, future, is_replay = pending.popleft()
            result = future.result()
            return replayed(result, index) if is_replay else result

        for index, coords, features, key in self._keyed(clouds):
            if key is not None and key in in_flight:
                in_flight.move_to_end(key)
                pending.append((index, in_flight[key], True))
            else:
                future = self._submit(pool, (index, coords, features), pipeline)
                if key is not None:
                    in_flight[key] = future
                    while len(in_flight) > self.reuse_window:
                        in_flight.popitem(last=False)
                pending.append((index, future, False))
            while len(pending) >= window:
                yield drain_one()
        while pending:
            yield drain_one()

    def _keyed(self, clouds: Iterable[object]) -> Iterator[tuple]:
        """Normalise a batch into ``(index, coords, features, key)``
        :class:`~repro.runtime.cache.ResultWindow` entries."""
        for index, cloud in enumerate(clouds):
            coords, features = _as_cloud(cloud)
            key = result_key(coords, features) if self.reuse_results else None
            yield index, coords, features, key

    def run(
        self,
        clouds: Iterable[object],
        pipeline: PipelineSpec | None = None,
        *,
        fuse: bool | None = None,
    ) -> BatchReport:
        """Process a batch and return ordered results plus throughput stats.

        ``fuse=True`` (or constructing the engine with ``fuse=True``)
        enables whole-cloud fusion: clouds are size-bucketed
        (``fuse_max_points`` / ``fuse_max_spread``), each bucket is
        concatenated into one ragged problem, and each pipeline stage
        runs as a single kernel invocation over all of its clouds — the
        batch-level analogue of fusing blocks.  Sizes need not match:
        every cloud keeps its own sample quota and offset-table slice, so
        ragged serving streams (LiDAR frames, mixed assets) fuse too.
        Results are bit-identical to the unfused path and are returned in
        submission order; fusion replaces pool scheduling for the fused
        buckets (the fused kernels *are* the parallelism).
        """
        fuse = self.fuse if fuse is None else fuse
        start = obs.now()
        if fuse:
            results = self._run_fused(clouds, pipeline or PipelineSpec())
        else:
            results = list(self.stream(clouds, pipeline))
        wall = obs.now() - start
        p50, p95, p99 = latency_percentiles([r.seconds for r in results])
        stats = ExecutorStats(
            clouds=len(results),
            points=sum(r.num_points for r in results),
            wall_seconds=wall,
            busy_seconds=sum(r.seconds for r in results),
            cache_hits=sum(1 for r in results if r.cache_hit and not r.reused),
            cache_misses=sum(1 for r in results if not r.cache_hit),
            reused=sum(1 for r in results if r.reused),
            patched=sum(
                1 for r in results
                if not r.reused and r.partition_source in ("patched", "reused")
            ),
            cold=sum(
                1 for r in results
                if not r.reused and r.partition_source == "cold"
            ),
            latency_p50=p50,
            latency_p95=p95,
            latency_p99=p99,
        )
        return BatchReport(results=results, stats=stats)

    # -- whole-cloud fusion --------------------------------------------------

    def _run_fused(
        self, clouds: Iterable[object], pipeline: PipelineSpec
    ) -> list[CloudResult]:
        """Execute a batch with size-bucketed clouds fused per stage.

        Clouds first split into *lanes* that must never share a kernel
        invocation — effective feature width, and (when interpolating)
        the effective KNN ``k`` (tiny clouds whose sample count clamps
        ``interpolate_k`` need their own ``k``).  Within a lane the
        size-bucketing scheduler (:meth:`_fuse_buckets`) packs near-equal
        clouds under the fuse-group budget; every bucket with at least
        two distinct members runs through :meth:`_execute_fused`,
        singletons fall back to the per-cloud path (scheduled across the
        worker pool when one is configured, so a poorly-fusable batch
        never loses the pool overlap), and content-identical repeats are
        replayed exactly like the streaming dedup.
        """
        entries = list(self._keyed(clouds))
        # One batch is one window: within-batch dedup, nothing kept.
        window = ResultWindow(0)
        split = window.split(entries)
        results, _ = self.execute_window(split.uniques, pipeline)
        window.complete(results, split)
        return [results[index] for index in range(len(entries))]

    def execute_window(
        self,
        items: list[tuple[int, np.ndarray, np.ndarray | None]],
        pipeline: PipelineSpec,
    ) -> tuple[dict[int, CloudResult], WindowPlan]:
        """Fused execution of pre-normalised ``(index, coords, features)``
        clouds: the shared engine entry point of :meth:`run` (``fuse=True``)
        and the windowed serving layer (:class:`repro.serve.WindowedServer`).

        Items split into fusion lanes, each lane's buckets come from the
        bin-packing planner, multi-cloud buckets run through
        :meth:`_execute_fused`, and singletons fall back to the per-cloud
        path (across the worker pool when one is configured).  Callers own
        deduplication; every item here is executed.  Returns results keyed
        by item index plus the :class:`~repro.serve.planner.WindowPlan`
        counters describing how the window was scheduled.
        """
        lanes: dict[tuple, list] = {}
        for item in items:
            _, coords, features = item
            if pipeline.model is not None:
                # One pipeline per window means one (model, agg) pair;
                # the fused forward handles mixed sizes and ignores
                # features, so every cloud shares a single lane.
                lane = ("model",)
            elif pipeline.with_interpolation:
                width = 3 if features is None else features.shape[1]
                k_eff = min(
                    pipeline.interpolate_k, pipeline.samples_for(len(coords))
                )
                lane = (width, k_eff)
            else:
                width = 3 if features is None else features.shape[1]
                lane = (width,)
            lanes.setdefault(lane, []).append(item)

        results: dict[int, CloudResult] = {}
        fused_buckets = 0
        singletons: list[tuple[int, np.ndarray, np.ndarray | None]] = []
        with (
            obs.span("engine.window", clouds=len(items))
            if obs.enabled()
            else obs.NULL_SPAN
        ):
            for members in lanes.values():
                for bucket in self._fuse_buckets(members):
                    if len(bucket) == 1:
                        singletons.append(bucket[0])
                    else:
                        fused_buckets += 1
                        for result in self._execute_fused(bucket, pipeline):
                            results[result.index] = result
            if singletons:
                if self.mode == "serial" or len(singletons) == 1:
                    for index, coords, features in singletons:
                        results[index] = self._execute(
                            index, coords, features, pipeline
                        )
                else:
                    pool = self._ensure_pool()
                    futures = [
                        self._submit(pool, item, pipeline) for item in singletons
                    ]
                    for future in futures:
                        result = future.result()
                        results[result.index] = result
        plan = WindowPlan(
            buckets=fused_buckets,
            fused_clouds=len(items) - len(singletons),
            singleton_clouds=len(singletons),
            singleton_indices=tuple(sorted(index for index, _, _ in singletons)),
        )
        return results, plan

    def _fuse_buckets(
        self, members: list[tuple[int, np.ndarray, np.ndarray | None]]
    ) -> list[list[tuple[int, np.ndarray, np.ndarray | None]]]:
        """Bin-pack one fuse lane under the engine's fusion caps.

        Delegates to the best-fit-decreasing planner of
        :mod:`repro.serve.planner`.  Bucket composition only affects
        speed: every bucket is bit-identical to running its clouds alone.
        """
        return plan_buckets(
            members,
            max_points=self.fuse_max_points,
            max_spread=self.fuse_max_spread,
        )

    def _execute_fused(
        self,
        items: list[tuple[int, np.ndarray, np.ndarray | None]],
        pipeline: PipelineSpec,
    ) -> list[CloudResult]:
        impl = (
            self._execute_fused_model_impl
            if pipeline.model is not None
            else self._execute_fused_impl
        )
        if obs.enabled():
            with obs.span("engine.fused", clouds=len(items)):
                return impl(items, pipeline)
        return impl(items, pipeline)

    def _execute_fused_model_impl(
        self,
        items: list[tuple[int, np.ndarray, np.ndarray | None]],
        pipeline: PipelineSpec,
    ) -> list[CloudResult]:
        """Fused network inference over a group of clouds.

        The fused forward (:func:`repro.infer.run_fused`) shares one
        FPS/ball-query structure pass per pyramid level across every
        cloud of the group while the row-wise network math runs over
        the concatenated feature rows — bit-identical to the per-cloud
        model path.
        """
        from ..infer import run_fused

        start = obs.now()
        outputs, sources, num_blocks = run_fused(
            pipeline.model, items, self.cache, agg=pipeline.agg
        )
        elapsed = obs.now() - start
        total_points = sum(len(coords) for _, coords, _ in items)
        return [
            CloudResult(
                index=index,
                num_points=len(coords),
                num_blocks=num_blocks[g],
                cache_hit=sources[g] == "warm",
                seconds=elapsed * len(coords) / total_points,
                sampled=np.zeros(0, dtype=np.int64),
                neighbors=np.zeros((0, 0), dtype=np.int64),
                grouped=np.zeros((0, 0, 0)),
                interpolated=None,
                partition_source=sources[g],
                model_output=outputs[g],
            )
            for g, (index, coords, _) in enumerate(items)
        ]

    def _execute_fused_impl(
        self,
        items: list[tuple[int, np.ndarray, np.ndarray | None]],
        pipeline: PipelineSpec,
    ) -> list[CloudResult]:
        """Run the pipeline once over a fused group of clouds.

        Cloud sizes may differ: each cloud keeps its own (cached)
        partition and its own sample quota (``pipeline.samples_for(n_i)``
        allocated across its blocks), and the per-cloud ragged layouts
        are concatenated into one problem whose blocks span all clouds.
        Every stage — FPS, ball query, gather, KNN interpolation — runs
        as a single kernel invocation; per-cloud row/point/block offset
        tables carry the boundaries through every stage and drive the
        split-back.  Blocks never search outside their own cloud (search
        spaces are per-partition and KNN widening is group-confined), so
        the results are bit-identical to running each cloud alone.

        Requires one shared effective interpolation ``k`` across the
        group — the lane keys of :meth:`_run_fused` guarantee it.
        """
        start = obs.now()
        structures, layouts, sources = [], [], []
        for _, coords, _ in items:
            structure, layout, source = self.cache.acquire_ragged(coords)
            structures.append(structure)
            layouts.append(layout)
            sources.append(source)
        fused = RaggedBlocks.concatenate(layouts)
        coords_f = np.concatenate(
            [np.asarray(coords, dtype=np.float64) for _, coords, _ in items]
        )
        feats_f = np.concatenate(
            [
                np.asarray(coords if features is None else features, np.float64)
                for _, coords, features in items
            ]
        )

        # Per-cloud sample quotas and the offset tables of the split-back:
        # rows (sampled centres), points, and blocks, one cumulative table
        # each, all in fused cloud order.
        quotas = [
            allocate_samples(
                s.block_sizes, pipeline.samples_for(len(coords)), clamp=True
            )
            for s, (_, coords, _) in zip(structures, items)
        ]
        samples_per_cloud = [int(q.sum()) for q in quotas]
        row_offsets = np.zeros(len(items) + 1, dtype=np.int64)
        np.cumsum(samples_per_cloud, out=row_offsets[1:])
        point_offsets = fused.group_point_offsets
        block_offsets = fused.group_block_offsets

        traced = obs.enabled()
        with obs.span("op.fps", kernel="ragged") if traced else obs.NULL_SPAN:
            sampled_f = fps_on_layout(fused, np.concatenate(quotas))
        with (
            obs.span("op.ball_query", kernel="ragged")
            if traced
            else obs.NULL_SPAN
        ):
            neighbors_f, ball_counts = ball_query_on_layout(
                fused, coords_f, sampled_f, pipeline.radius, pipeline.group_size
            )
        with obs.span("op.gather", kernel="ragged") if traced else obs.NULL_SPAN:
            grouped_f = exact_ops.gather_features(feats_f, neighbors_f)
        interpolated_f = None
        knn_stats = None
        if pipeline.with_interpolation:
            k_per_cloud = {
                min(pipeline.interpolate_k, s) for s in samples_per_cloud
            }
            if len(k_per_cloud) != 1:
                raise ValueError(
                    "fused group mixes effective interpolation k values "
                    f"{sorted(k_per_cloud)}; the scheduler must keep them "
                    "in separate lanes"
                )
            k = k_per_cloud.pop()
            centers_f = np.arange(fused.num_points, dtype=np.int64)
            with (
                obs.span("op.knn", kernel="ragged") if traced else obs.NULL_SPAN
            ):
                knn_f, knn_counts, knn_cands, widened = knn_on_layout(
                    fused, coords_f, centers_f, sampled_f, k
                )
            with (
                obs.span("op.interpolate", kernel="ragged")
                if traced
                else obs.NULL_SPAN
            ):
                interpolated_f = bppo._interpolate_from_neighbors(
                    fused.num_points, coords_f, centers_f, sampled_f,
                    feats_f[sampled_f], knn_f,
                )
            knn_stats = (knn_counts, knn_cands, widened, k)

        elapsed = obs.now() - start
        total_points = int(point_offsets[-1])
        results = []
        for g, ((index, coords, _), structure) in enumerate(zip(items, structures)):
            n = len(coords)
            blocks = slice(int(block_offsets[g]), int(block_offsets[g + 1]))
            row_lo, row_hi = int(row_offsets[g]), int(row_offsets[g + 1])
            point_off = int(point_offsets[g])
            sizes = structure.block_sizes
            search = fused.search_sizes[blocks]
            traces = {
                "fps": self._fused_trace(
                    "fps", sizes, sizes, quotas[g], 1
                ),
                "ball_query": self._fused_trace(
                    "ball_query", sizes, search, ball_counts[blocks],
                    pipeline.group_size,
                ),
                "gather": self._fused_trace(
                    "gather", sizes, search, ball_counts[blocks],
                    pipeline.group_size,
                ),
            }
            interpolated = None
            if knn_stats is not None:
                knn_counts, knn_cands, widened, k = knn_stats
                traces["interpolate"] = self._fused_trace(
                    "interpolate", sizes, knn_cands[blocks],
                    knn_counts[blocks], k, widened[blocks],
                )
                interpolated = interpolated_f[point_off: point_off + n]
            results.append(
                CloudResult(
                    index=index,
                    num_points=n,
                    num_blocks=structure.num_blocks,
                    cache_hit=sources[g] == "warm",
                    seconds=elapsed * n / total_points,
                    sampled=sampled_f[row_lo:row_hi] - point_off,
                    neighbors=neighbors_f[row_lo:row_hi] - point_off,
                    grouped=grouped_f[row_lo:row_hi],
                    interpolated=interpolated,
                    traces=traces,
                    partition_source=sources[g],
                )
            )
        return results

    @staticmethod
    def _fused_trace(
        kind: str,
        block_sizes: np.ndarray,
        search_sizes: np.ndarray,
        center_counts: np.ndarray,
        outputs_per_center: int,
        widened: np.ndarray | None = None,
    ) -> OpTrace:
        """Per-cloud work trace reconstructed from fused per-block arrays."""
        trace = OpTrace(kind=kind)
        for block_id in range(len(block_sizes)):
            trace.blocks.append(
                BlockWork(
                    block_id=block_id,
                    n_points=int(block_sizes[block_id]),
                    n_search=int(search_sizes[block_id]),
                    n_centers=int(center_counts[block_id]),
                    n_outputs=int(center_counts[block_id]) * outputs_per_center,
                    widened=bool(widened[block_id]) if widened is not None else False,
                )
            )
        return trace

    # -- pool plumbing -------------------------------------------------------

    @property
    def pool(self) -> Executor | None:
        """The persistent worker pool (``None`` until first parallel use,
        and again after :meth:`close`)."""
        return self._pool

    def _ensure_pool(self) -> Executor:
        """Return the persistent pool, creating it on first use.

        The pool outlives individual streams and windows: the windowed
        serving layer closes a window every few milliseconds and a fresh
        pool per window (threads spawned, joined, discarded) was pure
        overhead.  :meth:`close` joins it; a closed engine lazily builds
        a fresh pool if it is used again.
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._make_pool()
                # Engines dropped without close() (loops over configs,
                # REPL use) must not accumulate idle workers: shut the
                # pool down when the engine is collected.  close() first
                # is fine — shutdown is idempotent.
                weakref.finalize(self, _shutdown_pool, self._pool)
            return self._pool

    def close(self) -> None:
        """Join and discard the persistent worker pool (idempotent).

        Safe to call on an engine that never went parallel.  The engine
        stays usable afterwards — the next parallel call builds a new
        pool — but long-lived servers should call this exactly once, at
        shutdown, so worker threads/processes do not linger.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _make_pool(self) -> Executor:
        if self.mode == "process":
            return ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_process_init,
                initargs=(
                    self.partitioner_name,
                    self.block_size,
                    self.kernel,
                    self.cache_size,
                    self.delta,
                    self.cache.policy,
                ),
            )
        return ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix="repro-batch",
        )

    def _submit(self, pool: Executor, task: tuple, pipeline: PipelineSpec):
        index, coords, features = task
        if self.mode == "process":
            return pool.submit(_process_run, (index, coords, features, pipeline))
        return pool.submit(self._execute, index, coords, features, pipeline)
