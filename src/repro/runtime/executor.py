"""Batched multi-cloud execution engine.

The functional layers below this one process exactly one cloud at a time;
this module is the throughput story on top of them: it takes a sequence
(or generator) of point clouds, partitions each with any registered
strategy (content-hash cached), and runs the block-parallel
point-operation pipeline — block FPS → ball-query grouping → gathering →
KNN interpolation, or a whole network forward — through **one body**,
:meth:`BatchExecutor._execute_fused`.  Near-equal-size clouds bucket
into one ragged problem per pipeline stage (mixed sizes fuse via
per-cloud quotas and offset tables); a cloud that fuses with nothing is
a bucket of one, run by the same body.  Results come back in submission
order together with aggregate throughput statistics.

The engine is serial: everything runs in the calling thread.  Its
parallelism is inside each point operation (block-parallel over the
partition's blocks and fused over a window's clouds), not across
requests.  Multi-core serving means more engines in more processes —
:class:`repro.shard.ShardRouter` (``repro serve --shards N``).

Everything the engine computes is bit-identical to the serial reference
path; ``tests/test_batch_parity.py`` holds the proof obligations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core import bppo, dispatch
from ..core.bppo import allocate_samples
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
from .cache import PartitionCache, ResultWindow, result_key

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
    ``"warm"`` (exact cache hit) or ``"cold"`` (full build).

    ``model_output`` holds the network output of a model pipeline
    (``PipelineSpec.model``): per-cloud logits for classifiers,
    per-point logits for segmenters; ``None`` on raw BPPO pipelines,
    whose point-op arrays are empty in the model case.

    A served result carries outputs only, no per-block work traces: the
    accelerator model's traces come from the offline
    :func:`repro.core.dispatch.run_op` path.
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
    reused: bool = False
    partition_source: str = ""
    model_output: np.ndarray | None = None


@dataclass
class ExecutorStats:
    """Aggregate throughput statistics of one :meth:`BatchExecutor.run`."""

    clouds: int = 0
    points: int = 0
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    reused: int = 0
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

    def summary(self) -> str:
        """One line with the numbers an operator looks at first."""
        return (
            f"throughput {self.clouds_per_second:.1f} clouds/s "
            f"({self.points_per_second / 1e3:.0f}K points/s) | "
            f"latency p50/p95/p99 {self.latency_p50 * 1e3:.2f}/"
            f"{self.latency_p95 * 1e3:.2f}/{self.latency_p99 * 1e3:.2f} ms | "
            f"cache {self.cache_hits}/{self.clouds} hits, "
            f"{self.reused} reused"
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


#: Default :attr:`BatchExecutor.in_flight`, the serving layers'
#: puller-queue capacity.
DEFAULT_IN_FLIGHT = 8


class BatchExecutor:
    """Batched multi-cloud BPPO engine with partition caching.

    Usage::

        from repro.runtime import BatchExecutor, PipelineSpec

        engine = BatchExecutor("fractal", block_size=128)
        report = engine.run(clouds, PipelineSpec(radius=0.3, group_size=16))
        for result in report.results:          # submission order
            use(result.sampled, result.neighbors, result.interpolated)
        print(f"{report.stats.clouds_per_second:.1f} clouds/s, "
              f"{report.stats.cache_hits} cache hits")

        for result in engine.stream(sensor_frames()):   # generator in,
            consume(result)                             # results stream out

    Every cloud runs through one fused body in the calling thread: a
    window's clouds are size-bucketed and each bucket — of many clouds
    or of one — is one ragged problem per stage.  :meth:`run_cloud` and
    :meth:`stream` are windows of one.  There is no worker pool; for
    multi-core serving put several engines behind
    :class:`repro.shard.ShardRouter` (``repro serve --shards N``).

    Args:
        partitioner: strategy name from :mod:`repro.partition` or a
            ready :class:`Partitioner` instance.
        block_size: partition threshold (``th`` / BS) when constructing
            from a name.
        max_workers: must be ``None`` or ``1``; anything else raises
            ``ValueError`` pointing at the shard router.
        in_flight: backpressure bound — the serving layers' puller-queue
            capacity, i.e. how many clouds are pulled from the source
            ahead of execution before it is stalled.  Defaults to
            :data:`DEFAULT_IN_FLIGHT` (8).
        mode: must be ``"serial"`` (the default); anything else raises
            ``ValueError`` pointing at the shard router.  ``mode`` and
            ``max_workers`` remain only because the serving benchmark
            (``benchmarks/perf``) still passes them; they go with
            ``kernel`` when that benchmark next changes.
        kernel: accepted and validated against
            :data:`repro.core.dispatch.KERNEL_NAMES`, but no longer
            affects the engine: every bucket calls the layout ops of
            :mod:`repro.core.ragged` directly.
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
            scheduler prefers splitting them; a cloud left alone runs as
            a bucket of one.
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
    """

    def __init__(
        self,
        partitioner: str | Partitioner = "fractal",
        *,
        block_size: int = 256,
        max_workers: int | None = None,
        in_flight: int | None = None,
        mode: str = "serial",
        kernel: str = "auto",
        fuse: bool = False,
        fuse_max_points: int | None = 262_144,
        fuse_max_spread: float | None = 4.0,
        cache_size: int = 64,
        reuse_results: bool = True,
        reuse_window: int = 32,
    ):
        if mode != "serial" or max_workers not in (None, 1):
            raise ValueError(
                f"BatchExecutor is one serial engine (got mode={mode!r}, "
                f"max_workers={max_workers!r}); for multi-core serving run "
                "several engines behind repro.shard.ShardRouter "
                "(`repro serve --shards N`)"
            )
        if isinstance(partitioner, Partitioner):
            self.partitioner = partitioner
            self.partitioner_name = partitioner.name
        else:
            self.partitioner = get_partitioner(
                partitioner, max_points_per_block=block_size
            )
            self.partitioner_name = partitioner
        self.block_size = block_size
        if in_flight is not None and in_flight < 1:
            raise ValueError(f"in_flight must be >= 1 or None, got {in_flight}")
        self.in_flight = (
            int(in_flight) if in_flight is not None else DEFAULT_IN_FLIGHT
        )
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
        self.cache_size = cache_size
        self.reuse_results = reuse_results
        if reuse_window < 0:
            raise ValueError(f"reuse_window must be >= 0, got {reuse_window}")
        self.reuse_window = reuse_window
        self.cache = PartitionCache(self.partitioner, maxsize=cache_size)

    # -- single-cloud pipeline ----------------------------------------------

    def _execute(
        self,
        index: int,
        coords: np.ndarray,
        features: np.ndarray | None,
        pipeline: PipelineSpec,
    ) -> CloudResult:
        """One cloud as a window of one."""
        return self.execute_window([(index, coords, features)], pipeline)[0][index]

    def run_cloud(
        self,
        cloud: object,
        pipeline: PipelineSpec | None = None,
        *,
        index: int = 0,
    ) -> CloudResult:
        """Run the pipeline on a single cloud in the calling thread, as a
        window of one."""
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
        each cloud runs as a window of one before the next is pulled, so
        the engine reads the source at the rate it can process.

        When ``reuse_results`` is on, a cloud whose (coords, features)
        content already appeared among the last ``reuse_window`` distinct
        clouds of this stream is never recomputed — its result is
        replayed with the new index and marked ``reused`` (repeated
        frames, retries, and popular assets are the common case of
        serving traffic).
        """
        pipeline = pipeline or PipelineSpec()
        done = ResultWindow(self.reuse_window)
        for entry in self._keyed(clouds):
            split = done.split([entry])
            results = {
                index: self._execute(index, coords, features, pipeline)
                for index, coords, features in split.uniques
            }
            yield done.complete(results, split)[entry[0]]

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
        submission order.
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
            cache_hits=sum(1 for r in results if r.cache_hit and not r.reused),
            cache_misses=sum(1 for r in results if not r.cache_hit),
            reused=sum(1 for r in results if r.reused),
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
        clouds under the fuse-group budget; every bucket, a bucket of one
        included, runs through :meth:`_execute_fused`, and
        content-identical repeats are replayed exactly like the streaming
        dedup.
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
        bin-packing planner, and every bucket — of one cloud or many —
        runs through :meth:`_execute_fused` in the calling thread.
        Callers own deduplication; every item here is executed.  Returns
        results keyed by item index plus the
        :class:`~repro.serve.planner.WindowPlan` counters describing how
        the window was scheduled.
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
        singletons: list[int] = []
        with (
            obs.span("engine.window", clouds=len(items))
            if obs.enabled()
            else obs.NULL_SPAN
        ):
            for members in lanes.values():
                for bucket in self._fuse_buckets(members):
                    if len(bucket) == 1:
                        singletons.append(bucket[0][0])
                    else:
                        fused_buckets += 1
                    for result in self._execute_fused(bucket, pipeline):
                        results[result.index] = result
        plan = WindowPlan(
            buckets=fused_buckets,
            fused_clouds=len(items) - len(singletons),
            singleton_clouds=len(singletons),
            singleton_indices=tuple(sorted(singletons)),
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
        the concatenated feature rows — bit-identical to
        :func:`repro.infer.run_offline` on each cloud alone.
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

        traced = obs.enabled()
        with obs.span("op.fps", kernel="ragged") if traced else obs.NULL_SPAN:
            sampled_f = fps_on_layout(fused, np.concatenate(quotas))
        with (
            obs.span("op.ball_query", kernel="loop")
            if traced
            else obs.NULL_SPAN
        ):
            neighbors_f, _ = ball_query_on_layout(
                fused, coords_f, sampled_f, pipeline.radius, pipeline.group_size
            )
        with obs.span("op.gather", kernel="loop") if traced else obs.NULL_SPAN:
            grouped_f = exact_ops.gather_features(feats_f, neighbors_f)
        interpolated_f = None
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
                obs.span("op.knn", kernel="loop") if traced else obs.NULL_SPAN
            ):
                knn_f, *_ = knn_on_layout(
                    fused, coords_f, centers_f, sampled_f, k
                )
            with (
                obs.span("op.interpolate", kernel="loop")
                if traced
                else obs.NULL_SPAN
            ):
                interpolated_f = bppo._interpolate_from_neighbors(
                    fused.num_points, coords_f, centers_f, sampled_f,
                    feats_f[sampled_f], knn_f,
                )

        elapsed = obs.now() - start
        total_points = int(point_offsets[-1])
        results = []
        for g, ((index, coords, _), structure) in enumerate(zip(items, structures)):
            n = len(coords)
            row_lo, row_hi = int(row_offsets[g]), int(row_offsets[g + 1])
            point_off = int(point_offsets[g])
            interpolated = None
            if interpolated_f is not None:
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
                    partition_source=sources[g],
                )
            )
        return results

    def close(self) -> None:
        """No-op: the serial engine holds no workers.  Kept so existing
        ``with BatchExecutor(...)`` / ``close()`` callers keep working."""

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
