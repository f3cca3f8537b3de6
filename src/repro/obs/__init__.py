"""`repro.obs`: always-compiled-in tracing + metrics for the whole stack.

A *leaf* package — stdlib + numpy only, imported by every layer (core
dispatch, runtime engine, serve, shard, cli) without creating cycles.
One process-global :class:`~repro.obs.trace.Tracer` and one
:class:`~repro.obs.metrics.MetricsRegistry`, both disabled by default;
:func:`configure` swaps in fresh instances (which is also how forked
shard workers shed state inherited from the router).

Usage at an instrumentation site::

    from .. import obs

    if obs.enabled():                       # disabled-path fast exit
        with obs.span("op.fps", kernel=name):
            return kernel_fn(...)
    return kernel_fn(...)

Span naming convention (see CONTRIBUTING): ``<layer>.<what>`` —
``serve.request``, ``serve.window``, ``serve.wait``, ``shard.window``,
``shard.serialize``, ``transport.pack`` / ``transport.unpack``,
``engine.window`` / ``engine.fused``,
``partition.build``, ``build.<kernel>``,
``op.<op>``.  Metric names: ``repro_<layer>_<what>[_<unit>]``.
"""

from __future__ import annotations

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    PERCENTILES,
    Counter,
    Gauge,
    Histogram,
    LatencyRing,
    MetricsRegistry,
    latency_percentiles,
)
from .trace import NULL_SPAN, OpenSpan, Span, Tracer, now

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "NULL_SPAN",
    "PERCENTILES",
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyRing",
    "MetricsRegistry",
    "OpenSpan",
    "Span",
    "Tracer",
    "adopt",
    "configure",
    "drain",
    "enabled",
    "inc",
    "latency_percentiles",
    "metrics",
    "now",
    "observe",
    "open_span",
    "record",
    "set_gauge",
    "span",
    "span_remote",
    "tracer",
]

_TRACER = Tracer()
_METRICS = MetricsRegistry()


def configure(
    *,
    trace: bool | None = None,
    sample: int | None = None,
    metrics: bool | None = None,
) -> None:
    """(Re)configure the process-global tracer and registry.

    ``None`` leaves a setting as it is; changing ``trace``/``sample``
    replaces the tracer wholesale (dropping any undrained spans), which
    is deliberate: forked workers call this to get a pid-correct tracer
    that has not inherited the parent's buffered spans.
    """
    global _TRACER, _METRICS
    if trace is not None or sample is not None:
        enabled = _TRACER.enabled if trace is None else bool(trace)
        n = _TRACER.sample if sample is None else int(sample)
        _TRACER = Tracer(enabled=enabled, sample=n)
    if metrics is not None:
        _METRICS = MetricsRegistry(enabled=bool(metrics))


def tracer() -> Tracer:
    return _TRACER


def metrics() -> MetricsRegistry:
    return _METRICS


def enabled() -> bool:
    """True when spans record — the guard for attr-building call sites."""
    return _TRACER.enabled


# -- span conveniences (delegate to the current global tracer) --------------


def span(name, attrs=None, *, start=None, **extra):
    return _TRACER.span(name, attrs, start=start, **extra)


def span_remote(ctx, name, attrs=None, **extra):
    return _TRACER.span_remote(ctx, name, attrs, **extra)


def record(name, start, end, *, parent=None, **attrs):
    return _TRACER.record(name, start, end, parent=parent, **attrs)


def open_span(name, attrs=None, **extra):
    return _TRACER.open_span(name, attrs, **extra)


def drain():
    return _TRACER.drain()


def adopt(wires):
    return _TRACER.adopt(wires)


# -- metric conveniences ----------------------------------------------------


def inc(name: str, amount: float = 1.0) -> None:
    registry = _METRICS
    if registry.enabled:
        registry.counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    registry = _METRICS
    if registry.enabled:
        registry.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    registry = _METRICS
    if registry.enabled:
        registry.gauge(name).set(value)
