"""Windowed micro-batching: whole-cloud fusion for unbounded streams.

``BatchExecutor.run(fuse=True)`` needs the whole batch in hand before it
can plan fused buckets, so the streaming path — the one that actually
models sensor and serving traffic — never benefited from fusion.  The
:class:`WindowedServer` closes that gap with the classic serving trade:
batch whatever arrives together (up to ``W`` clouds, holding a request
at most ``T`` milliseconds), and run the batch through the same
bin-packing planner and fused kernels as the offline path.

The loop:

1. a puller thread drains the source iterator into a bounded queue
   (capacity ``engine.in_flight``), so a slow consumer stalls the pull,
   never memory; including the window being assembled, at most
   ``in_flight + max_clouds`` clouds are ever held ahead of emission;
2. the scheduler opens a window at the first arrival and keeps taking
   what the puller delivers until the window holds
   ``window.max_clouds`` clouds (*full*), the source goes quiet — the
   queue is empty and stays empty for a sub-millisecond grace (*idle*) —
   or ``window.max_wait`` seconds have passed (*timeout*), whichever
   comes first.  The loop is work-conserving: an idle engine never waits
   for company that is not coming, and occupancy rides the load by
   itself — while a window executes, the next one's clouds queue up, so
   windows grow as the engine gets busier (steps 1–2 are
   :class:`~repro.serve.inbox.Inbox`, shared with the tenant server);
3. the window dedups exact repeats (against this window *and* the last
   ``engine.reuse_window`` distinct clouds of the stream — a
   :class:`~repro.runtime.cache.ResultWindow`), plans fused buckets for
   the rest, executes via the engine's fused machinery, and emits
   :class:`~repro.runtime.executor.CloudResult`\\ s in submission order.

Results are bit-identical to ``run(fuse=True)`` over the same finite
stream, and therefore to the serial per-cloud reference — window
boundaries affect latency and throughput, never a single index or bit.

``W`` and ``T`` are the static :class:`WindowConfig`: with windows that
close when the source goes quiet there is no wait left to tune online.
Multi-stream serving with fairness across clients lives one layer up in
:mod:`repro.serve.tenancy`.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..runtime.cache import ResultWindow, result_key
from ..runtime.executor import BatchExecutor, CloudResult, PipelineSpec, _as_cloud
from .inbox import Inbox
from .telemetry import ServeTelemetry

__all__ = ["WindowConfig", "WindowedServer"]


@dataclass(frozen=True)
class WindowConfig:
    """Micro-batching window: close after ``max_clouds`` arrivals, when
    the source goes quiet, or ``max_wait`` seconds past the first
    arrival, whichever comes first.

    ``max_clouds`` is the biggest fused plan a busy stream can build.
    ``max_wait`` is a cap, not a price: only a trickle whose every gap
    is shorter than the idle grace (:data:`repro.serve.inbox.IDLE_GRACE`)
    holds a window open that long; a paced stream pays the grace.
    """

    max_clouds: int = 16
    max_wait: float = 0.05

    def __post_init__(self):
        if self.max_clouds < 1:
            raise ValueError(f"max_clouds must be >= 1, got {self.max_clouds}")
        if self.max_wait <= 0:
            raise ValueError(f"max_wait must be > 0, got {self.max_wait}")


@dataclass
class _Arrival:
    index: int
    arrived: float
    coords: np.ndarray
    features: np.ndarray | None
    key: bytes | None


class WindowedServer:
    """Serve an unbounded cloud stream through windowed fused execution.

    Usage::

        engine = BatchExecutor("fractal", block_size=128, fuse_max_spread=4.0)
        server = WindowedServer(engine, WindowConfig(max_clouds=16,
                                                     max_wait=0.02))
        for result in server.serve(sensor_frames(), pipeline):
            consume(result)                      # submission order
        print(server.telemetry.report(wall).format())

    Args:
        engine: the :class:`BatchExecutor` that executes windows; its
            fusion caps steer the bucket planner, ``in_flight`` bounds
            the pull-ahead, and ``reuse_results`` / ``reuse_window``
            drive cross-window dedup.
        window: the :class:`WindowConfig` (default 16 clouds / 50 ms).
        telemetry: a :class:`ServeTelemetry` to record into; one is
            created (sized to the window) when omitted.

    :meth:`close` (also available as a context manager) calls
    :meth:`BatchExecutor.close`; each :meth:`serve` releases its own
    puller thread.
    """

    def __init__(
        self,
        engine: BatchExecutor,
        window: WindowConfig | None = None,
        *,
        telemetry: ServeTelemetry | None = None,
    ):
        self.engine = engine
        self.window = window or WindowConfig()
        self.telemetry = telemetry or ServeTelemetry(
            window_capacity=self.window.max_clouds
        )

    def close(self) -> None:
        """Close the engine."""
        self.engine.close()

    def __enter__(self) -> "WindowedServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def serve(
        self,
        clouds: Iterable[object],
        pipeline: PipelineSpec | None = None,
        *,
        on_stats=None,
    ) -> Iterator[CloudResult]:
        """Yield one :class:`CloudResult` per cloud, in submission order.

        Windows close full, idle or on timeout (see the module
        docstring); the reason is booked in ``telemetry``.  ``on_stats``
        (e.g. ``print``) receives the periodic telemetry line every
        ``telemetry.every`` windows.  The source may be unbounded;
        closing the generator stops the puller thread.
        """
        pipeline = pipeline or PipelineSpec()
        # Cross-window dedup over the last `reuse_window` distinct clouds
        # (same bound as stream()).
        done = ResultWindow(self.engine.reuse_window)
        batch: list[_Arrival] = []
        index = itertools.count()

        def admit(cloud, arrived: float) -> None:
            batch.append(self._admit(cloud, arrived, next(index)))

        with Inbox(
            clouds, capacity=self.engine.in_flight, name="repro-serve-pull"
        ) as inbox:
            while (
                reason := inbox.gather(
                    admit, self.window.max_clouds, self.window.max_wait
                )
            ) is not None:
                yield from self._run_window(
                    batch, pipeline, done, inbox.depth, reason, on_stats
                )
                batch.clear()

    # -- internals -----------------------------------------------------------

    def _admit(self, cloud: object, arrived: float, index: int) -> _Arrival:
        """Normalise one arrival and key it for dedup."""
        coords, features = _as_cloud(cloud)
        key = (
            result_key(coords, features) if self.engine.reuse_results else None
        )
        return _Arrival(index, arrived, coords, features, key)

    def _run_window(
        self,
        batch: list[_Arrival],
        pipeline: PipelineSpec,
        done: ResultWindow,
        queue_depth: int,
        reason: str,
        on_stats,
    ) -> Iterator[CloudResult]:
        """Dedup, plan, execute, and emit one closed window."""
        first_arrival = min(arrival.arrived for arrival in batch)
        with (
            obs.span(
                "serve.window",
                start=first_arrival,
                clouds=len(batch),
                closed=reason,
            )
            if obs.enabled()
            else obs.NULL_SPAN
        ):
            split = done.split(
                (arrival.index, arrival.coords, arrival.features, arrival.key)
                for arrival in batch
            )
            exec_start = obs.now()
            # Queue wait is everything between the window's first arrival
            # and execution start — recorded retroactively as a child so
            # the summarizer books it under "queueing".
            obs.record("serve.wait", first_arrival, exec_start)
            results, plan = self.engine.execute_window(split.uniques, pipeline)
            obs.observe("repro_serve_window_seconds", obs.now() - exec_start)
            obs.inc("repro_serve_clouds", len(batch))
            obs.inc("repro_serve_windows")
            done.complete(results, split)

            sources = [
                results[index].partition_source
                for index, _, _ in split.uniques
            ]
            self.telemetry.record_window(
                size=len(batch),
                buckets=plan.buckets,
                fused=plan.fused_clouds,
                singletons=plan.singleton_clouds,
                reused=split.reused,
                queue_depth=queue_depth,
                reason=reason,
                cold=sources.count("cold"),
                warm=sources.count("warm"),
            )
        for arrival in batch:
            self.telemetry.record_latency(obs.now() - arrival.arrived)
            yield results[arrival.index]
        line = self.telemetry.tick()
        if line is not None and on_stats is not None:
            on_stats(line)
