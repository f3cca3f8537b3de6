"""Serving layer: windowed micro-batching on top of the batch engine.

- :mod:`repro.serve.window` — the :class:`WindowedServer` micro-batcher
  (collect up to ``W`` clouds, at most ``T`` ms, until the source goes
  quiet; fuse; emit in order);
- :mod:`repro.serve.inbox` — the puller thread, bounded queue and window
  close rule (full / timeout / idle) both in-process servers share;
- :mod:`repro.serve.tenancy` — the :class:`MultiTenantServer`: N client
  sessions (own pipeline, dedup window, telemetry) sharing one engine
  under deficit-round-robin fairness, with cross-tenant fused windows;
- :mod:`repro.serve.planner` — best-fit-decreasing bucket packing,
  shared with ``BatchExecutor.run(fuse=True)``;
- :mod:`repro.serve.telemetry` — rolling latency percentiles and window
  health counters, per stream (= per tenant);
- :mod:`repro.serve.loadgen` — seeded serving-shaped traffic (uniform /
  diurnal / adversarial / frames profiles, multi-tenant mixes) plus the
  ``.npy``-record wire format of ``repro loadgen | repro serve``.
"""

from .loadgen import (
    LoadSpec,
    generate,
    generate_tenants,
    read_stream,
    read_tenant_stream,
    tenant_specs,
    write_stream,
    write_tenant_stream,
)
from .planner import (
    WindowPlan,
    first_fit_buckets,
    plan_buckets,
    singleton_count,
)
from .telemetry import ServeReport, ServeTelemetry, latency_percentiles

__all__ = [
    "DeficitRoundRobin",
    "LoadSpec",
    "MultiTenantServer",
    "ServeReport",
    "ServeTelemetry",
    "TenantResult",
    "TenantSpec",
    "WindowConfig",
    "WindowPlan",
    "WindowedServer",
    "first_fit_buckets",
    "generate",
    "generate_tenants",
    "latency_percentiles",
    "plan_buckets",
    "read_stream",
    "read_tenant_stream",
    "singleton_count",
    "tenant_specs",
    "write_stream",
    "write_tenant_stream",
]

#: Exports that live in modules importing repro.runtime.executor.
_LAZY_EXPORTS = {
    "WindowedServer": "window",
    "WindowConfig": "window",
    "MultiTenantServer": "tenancy",
    "TenantSpec": "tenancy",
    "TenantResult": "tenancy",
    "DeficitRoundRobin": "tenancy",
}


def __getattr__(name: str):
    # repro.runtime.executor imports repro.serve.planner at module load,
    # which executes this package __init__; importing .window / .tenancy
    # here eagerly would close the cycle (both need the executor).
    # Loading them on first attribute access keeps both import orders
    # working.
    if name in _LAZY_EXPORTS:
        import importlib

        module = importlib.import_module(f".{_LAZY_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
