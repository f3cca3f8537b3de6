"""Live serving telemetry: rolling latency percentiles and window health.

The serving loop is judged on tail latency, not mean throughput, so the
telemetry tracks the distribution: rolling p50/p95/p99 over the last
``rolling`` served clouds (bounded memory on unbounded streams), plus the
window-scheduler vitals — queue depth at window close, window occupancy
(how full windows run against their ``W`` budget), and the fused-vs-
singleton split (how much traffic the bucket planner actually fuses).

Two consumption styles:

- :meth:`ServeTelemetry.tick` returns a one-line stats summary every
  ``every`` windows (the periodic log line of ``repro serve``);
- :meth:`ServeTelemetry.report` folds everything into a final
  :class:`ServeReport` once the stream ends.

The percentile primitives (the preallocated :class:`LatencyRing` and
:func:`latency_percentiles`) live in :mod:`repro.obs.metrics` and are
re-exported here so serving-layer callers keep one import path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable

from ..obs import PERCENTILES, LatencyRing, latency_percentiles
from .inbox import FULL, IDLE, TIMEOUT

__all__ = [
    "PERCENTILES",
    "LatencyRing",
    "ServeReport",
    "ServeTelemetry",
    "latency_percentiles",
]


@dataclass(frozen=True)
class ServeReport:
    """Final accounting of one serving session.

    ``label`` names the stream the numbers belong to (the tenant, in
    multi-tenant serving; empty for a single-stream server).

    The partition-source split (``cold`` / ``warm``) counts how each
    distinct cloud's partition was obtained: a full build or an exact
    cache hit.

    Windows close for one of three reasons (:mod:`repro.serve.inbox`):
    ``timeout_windows`` hit the ``max_wait`` cap, ``idle_windows`` closed
    early because the source went quiet, the rest filled to
    ``max_clouds``.  (A shard worker assembles its windows greedily and
    does not say why each closed; the router books them under neither.)
    """

    clouds: int
    windows: int
    buckets: int
    fused_clouds: int
    singleton_clouds: int
    reused_clouds: int
    wall_seconds: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    mean_occupancy: float
    max_queue_depth: int
    timeout_windows: int
    label: str = ""
    cold_clouds: int = 0
    warm_clouds: int = 0
    idle_windows: int = 0

    @property
    def clouds_per_second(self) -> float:
        return self.clouds / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def fused_ratio(self) -> float:
        """Fraction of distinct (non-reused) clouds served from a fused
        bucket rather than a bucket of one."""
        distinct = self.fused_clouds + self.singleton_clouds
        return self.fused_clouds / distinct if distinct else 0.0

    def format(self) -> str:
        """Multi-line human report (``repro serve`` prints this)."""
        who = f"[{self.label}] " if self.label else ""
        lines = [
            f"{who}served {self.clouds} clouds in {self.windows} windows "
            f"({self.wall_seconds * 1e3:.0f} ms, "
            f"{self.clouds_per_second:.1f} clouds/s)",
            f"  latency p50/p95/p99 {self.latency_p50 * 1e3:.2f}/"
            f"{self.latency_p95 * 1e3:.2f}/{self.latency_p99 * 1e3:.2f} ms",
            f"  fused {self.fused_clouds} clouds in {self.buckets} buckets "
            f"({self.fused_ratio:.0%} of distinct traffic), "
            f"{self.singleton_clouds} singletons, "
            f"{self.reused_clouds} reused",
            f"  windows {self.mean_occupancy:.0%} full on average, "
            f"{self.timeout_windows} closed on timeout, "
            f"{self.idle_windows} idle, "
            f"max queue depth {self.max_queue_depth}",
        ]
        if self.cold_clouds or self.warm_clouds:
            lines.append(
                f"  partitions {self.cold_clouds} cold, "
                f"{self.warm_clouds} warm"
            )
        return "\n".join(lines)

    @classmethod
    def merge(cls, reports: "Iterable[ServeReport]") -> "ServeReport":
        """Aggregate per-tenant / per-shard reports into one.

        Every field must appear in exactly one policy set below —
        adding a ``ServeReport`` field without deciding how it merges
        raises here instead of silently defaulting (the bug this
        replaces: layers hand-assembled reports field by field and new
        fields like the cold/warm split dropped to zero).

        Policies: counts **sum**; ``wall_seconds`` and
        ``max_queue_depth`` take the **max** (sessions share one wall
        clock and the depth bound is a worst case); latency percentiles
        take the **max** (a conservative bound — true aggregate
        percentiles need the samples, which reports no longer hold);
        ``mean_occupancy`` re-weights by window count; labels join with
        ``+``.
        """
        names = {f.name for f in dataclasses.fields(cls)}
        covered = (
            _MERGE_SUM | _MERGE_MAX | {"mean_occupancy", "label"}
        )
        if covered != names:
            missing = sorted(names - covered) + sorted(covered - names)
            raise RuntimeError(
                f"ServeReport.merge has no policy for field(s) {missing}; "
                "add each to exactly one merge set"
            )
        reports = list(reports)
        if not reports:
            raise ValueError("cannot merge zero reports")
        fields: dict[str, object] = {}
        for name in _MERGE_SUM:
            fields[name] = sum(getattr(r, name) for r in reports)
        for name in _MERGE_MAX:
            fields[name] = max(getattr(r, name) for r in reports)
        windows = sum(r.windows for r in reports)
        fields["mean_occupancy"] = (
            sum(r.mean_occupancy * r.windows for r in reports) / windows
            if windows
            else 0.0
        )
        labels = [r.label for r in reports if r.label]
        fields["label"] = "+".join(dict.fromkeys(labels))
        return cls(**fields)

    def __add__(self, other: "ServeReport") -> "ServeReport":
        if not isinstance(other, ServeReport):
            return NotImplemented
        return ServeReport.merge((self, other))


#: Merge policies for :meth:`ServeReport.merge`, one set per strategy.
_MERGE_SUM = frozenset(
    {
        "clouds",
        "windows",
        "buckets",
        "fused_clouds",
        "singleton_clouds",
        "reused_clouds",
        "timeout_windows",
        "idle_windows",
        "cold_clouds",
        "warm_clouds",
    }
)
_MERGE_MAX = frozenset(
    {
        "wall_seconds",
        "latency_p50",
        "latency_p95",
        "latency_p99",
        "max_queue_depth",
    }
)


class ServeTelemetry:
    """Rolling statistics collector for the windowed serving loop.

    Args:
        window_capacity: the scheduler's ``W`` (occupancy denominator).
        rolling: how many recent per-cloud latencies the percentile
            window retains — the memory bound on unbounded streams.
        every: emit a :meth:`tick` line every that many windows
            (``0`` disables periodic lines).
        label: stream name stamped on stats lines and the final report
            (the tenant name in multi-tenant serving).
    """

    def __init__(
        self,
        *,
        window_capacity: int = 16,
        rolling: int = 1024,
        every: int = 10,
        label: str = "",
    ):
        if window_capacity < 1:
            raise ValueError(f"window_capacity must be >= 1, got {window_capacity}")
        if rolling < 1:
            raise ValueError(f"rolling must be >= 1, got {rolling}")
        self.window_capacity = window_capacity
        self.every = every
        self.label = label
        self.latencies = LatencyRing(rolling)
        self.clouds = 0
        self.windows = 0
        self.buckets = 0
        self.fused_clouds = 0
        self.singleton_clouds = 0
        self.reused_clouds = 0
        self.occupancy_sum = 0
        self.max_queue_depth = 0
        self.timeout_windows = 0
        self.idle_windows = 0
        self.last_queue_depth = 0
        self.cold_clouds = 0
        self.warm_clouds = 0

    # -- recording -----------------------------------------------------------

    def record_latency(self, seconds: float) -> None:
        """One cloud served; ``seconds`` is arrival-to-emit latency."""
        self.latencies.append(float(seconds))
        self.clouds += 1

    def record_window(
        self,
        *,
        size: int,
        buckets: int,
        fused: int,
        singletons: int,
        reused: int,
        queue_depth: int,
        reason: str = FULL,
        cold: int = 0,
        warm: int = 0,
    ) -> None:
        """One window executed (counts, not timings — latency is per cloud).

        ``reason`` is why the window closed: ``full``, ``timeout`` or
        ``idle`` (:meth:`repro.serve.inbox.Inbox.gather`).
        ``cold``/``warm`` split the window's distinct clouds by
        partition source.
        """
        self.windows += 1
        self.buckets += buckets
        self.fused_clouds += fused
        self.singleton_clouds += singletons
        self.reused_clouds += reused
        self.cold_clouds += cold
        self.warm_clouds += warm
        self.occupancy_sum += size
        self.last_queue_depth = queue_depth
        self.max_queue_depth = max(self.max_queue_depth, queue_depth)
        if reason == TIMEOUT:
            self.timeout_windows += 1
        elif reason == IDLE:
            self.idle_windows += 1

    # -- reading -------------------------------------------------------------

    @property
    def mean_occupancy(self) -> float:
        if not self.windows:
            return 0.0
        return self.occupancy_sum / (self.windows * self.window_capacity)

    def percentiles(self) -> tuple[float, float, float]:
        """Rolling ``(p50, p95, p99)`` latency in seconds."""
        return latency_percentiles(self.latencies)

    def stats_line(self) -> str:
        """One-line snapshot: the periodic log line of ``repro serve``."""
        p50, p95, p99 = self.percentiles()
        distinct = self.fused_clouds + self.singleton_clouds
        fused_ratio = self.fused_clouds / distinct if distinct else 0.0
        tag = f"serve:{self.label}" if self.label else "serve"
        return (
            f"[{tag}] {self.clouds} clouds / {self.windows} windows | "
            f"p50/p95/p99 {p50 * 1e3:.2f}/{p95 * 1e3:.2f}/{p99 * 1e3:.2f} ms | "
            f"queue {self.last_queue_depth} | "
            f"occupancy {self.mean_occupancy:.0%} | "
            f"timeout/idle {self.timeout_windows}/{self.idle_windows} | "
            f"fused {fused_ratio:.0%} | reused {self.reused_clouds}"
            + (
                f" | cold/warm {self.cold_clouds}/{self.warm_clouds}"
                if self.warm_clouds
                else ""
            )
        )

    def tick(self) -> str | None:
        """:meth:`stats_line` every ``every`` windows, else ``None``."""
        if self.every and self.windows and self.windows % self.every == 0:
            return self.stats_line()
        return None

    def report(self, wall_seconds: float) -> ServeReport:
        """Freeze everything into the final :class:`ServeReport`."""
        p50, p95, p99 = self.percentiles()
        return ServeReport(
            clouds=self.clouds,
            windows=self.windows,
            buckets=self.buckets,
            fused_clouds=self.fused_clouds,
            singleton_clouds=self.singleton_clouds,
            reused_clouds=self.reused_clouds,
            wall_seconds=wall_seconds,
            latency_p50=p50,
            latency_p95=p95,
            latency_p99=p99,
            mean_occupancy=self.mean_occupancy,
            max_queue_depth=self.max_queue_depth,
            timeout_windows=self.timeout_windows,
            label=self.label,
            cold_clouds=self.cold_clouds,
            warm_clouds=self.warm_clouds,
            idle_windows=self.idle_windows,
        )
