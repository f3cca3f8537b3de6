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
   ``engine.reuse_window`` distinct clouds of the stream), plans fused
   buckets for the rest, executes via the engine's fused machinery, and
   emits :class:`~repro.runtime.executor.CloudResult`\\ s in submission
   order.

Results are bit-identical to ``run(fuse=True)`` over the same finite
stream, and therefore to the serial per-cloud reference — window
boundaries affect latency and throughput, never a single index or bit.

``W`` and ``T`` may be static (:class:`WindowConfig`) or controlled
online by an :class:`~repro.serve.controller.AdaptiveWindow` (pass
``controller=``); multi-stream serving with fairness across clients
lives one layer up in :mod:`repro.serve.tenancy`.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..runtime.cache import result_key
from ..runtime.executor import BatchExecutor, CloudResult, PipelineSpec, _as_cloud
from .controller import AdaptiveWindow
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
        controller: an :class:`~repro.serve.controller.AdaptiveWindow`
            that resizes ``W``/``T`` online within its configured bounds
            (arrival rate + rolling p95); when given it replaces the
            static ``window`` limits (which then only size telemetry).
        telemetry: a :class:`ServeTelemetry` to record into; one is
            created (sized to the window) when omitted.

    The server closes like the engine it wraps: :meth:`close` joins the
    engine's persistent worker pool (also available as a context
    manager).
    """

    def __init__(
        self,
        engine: BatchExecutor,
        window: WindowConfig | None = None,
        *,
        controller: AdaptiveWindow | None = None,
        telemetry: ServeTelemetry | None = None,
    ):
        self.engine = engine
        self.window = window or WindowConfig()
        self.controller = controller
        capacity = (
            controller.config.max_clouds if controller else self.window.max_clouds
        )
        self.telemetry = telemetry or ServeTelemetry(window_capacity=capacity)

    def close(self) -> None:
        """Join the engine's persistent worker pool."""
        self.engine.close()

    def __enter__(self) -> "WindowedServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _limits(self) -> tuple[int, float]:
        """The next window's ``(W, T)`` — adaptive when a controller is
        attached, the static config otherwise."""
        if self.controller is not None:
            return self.controller.limits()
        return (self.window.max_clouds, self.window.max_wait)

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
        # Cross-window dedup: content -> canonical CloudResult of the last
        # `reuse_window` distinct clouds (same bound as stream()).
        done: OrderedDict[bytes, CloudResult] = OrderedDict()
        batch: list[_Arrival] = []
        index = itertools.count()

        def admit(cloud, arrived: float) -> None:
            batch.append(self._admit(cloud, arrived, next(index)))

        with Inbox(
            clouds, capacity=self.engine.in_flight, name="repro-serve-pull"
        ) as inbox:
            while (reason := inbox.gather(admit, self._limits)) is not None:
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
        if self.controller is not None:
            self.controller.observe_arrival(arrived)
        return _Arrival(index, arrived, coords, features, key)

    def _run_window(
        self,
        batch: list[_Arrival],
        pipeline: PipelineSpec,
        done: OrderedDict,
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
            uniques: list[tuple[int, np.ndarray, np.ndarray | None]] = []
            canonical: dict[bytes, int] = {}
            replays: list[tuple[int, bytes]] = []
            dup_of: dict[int, int] = {}
            for arrival in batch:
                key = arrival.key
                if key is not None and key in done:
                    replays.append((arrival.index, key))
                elif key is not None and key in canonical:
                    dup_of[arrival.index] = canonical[key]
                else:
                    if key is not None:
                        canonical[key] = arrival.index
                    uniques.append(
                        (arrival.index, arrival.coords, arrival.features)
                    )

            exec_start = obs.now()
            # Queue wait is everything between the window's first arrival
            # and execution start — recorded retroactively as a child so
            # the summarizer books it under "queueing".
            obs.record("serve.wait", first_arrival, exec_start)
            results, plan = self.engine.execute_window(uniques, pipeline)
            exec_seconds = obs.now() - exec_start
            if self.controller is not None and uniques:
                self.controller.observe_service(exec_seconds, len(uniques))
            obs.observe("repro_serve_window_seconds", exec_seconds)
            obs.inc("repro_serve_clouds", len(batch))
            obs.inc("repro_serve_windows")
            for index, key in replays:
                done.move_to_end(key)
                results[index] = dataclasses.replace(
                    done[key], index=index, cache_hit=True, seconds=0.0,
                    reused=True,
                )
            for index, original in dup_of.items():
                results[index] = dataclasses.replace(
                    results[original], index=index, cache_hit=True,
                    seconds=0.0, reused=True,
                )
            for key, index in canonical.items():
                done[key] = results[index]
                while len(done) > self.engine.reuse_window:
                    done.popitem(last=False)

            sources = [
                results[index].partition_source for index, _, _ in uniques
            ]
            self.telemetry.record_window(
                size=len(batch),
                buckets=plan.buckets,
                fused=plan.fused_clouds,
                singletons=plan.singleton_clouds,
                reused=len(replays) + len(dup_of),
                queue_depth=queue_depth,
                reason=reason,
                cold=sources.count("cold"),
                patched=sources.count("patched") + sources.count("reused"),
                warm=sources.count("warm"),
            )
        for arrival in batch:
            latency = obs.now() - arrival.arrived
            self.telemetry.record_latency(latency)
            if self.controller is not None:
                self.controller.observe_latency(latency)
            yield results[arrival.index]
        if self.controller is not None:
            self.controller.update()
        line = self.telemetry.tick()
        if line is not None and on_stats is not None:
            on_stats(line)
