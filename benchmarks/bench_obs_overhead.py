"""Extension bench — observability overhead on the serving hot path.

``repro.obs`` is always compiled in (PR 9): every dispatch, cache
acquire, window execution, and shard hop carries an instrumentation
site.  This bench holds the layer to the ISSUE's overhead budget:

- **disabled** (the default): the per-site cost is one attribute read
  and a no-op context manager; across the ~dozen sites a cloud crosses
  it must stay under **2%** of per-cloud service time;
- **sampled** (``--trace`` with ``--trace-sample 8``): recording every
  eighth request trace end to end must stay under **5%** wall-clock
  against the same warm serving run with tracing off.

The disabled bound is measured analytically — per-call cost of the
guarded site pattern times the spans-per-cloud observed on a fully
sampled run — because the end-to-end delta of a <2% effect drowns in
scheduler noise.  The sampled bound is end-to-end best-of-N with the
two configurations *interleaved* round-robin: back-to-back blocks
drift apart (thermal, allocator state) by more than the effect under
measurement.

Marked ``slow``: serving benches time wall-clock over hundreds of
clouds.  Run with ``pytest -m slow benchmarks/bench_obs_overhead.py``.
"""

import pytest

from repro import obs
from repro.analysis import format_table
from repro.runtime import BatchExecutor, PipelineSpec
from repro.serve import LoadSpec, WindowConfig, WindowedServer, generate

from _common import best_time, emit

pytestmark = pytest.mark.slow

PIPELINE = PipelineSpec(sample_ratio=0.25, radius=0.25, group_size=16)
SPEC = LoadSpec(clouds=96, min_points=96, max_points=256, dup_rate=0.15,
                dup_window=12, seed=0)
WINDOW = WindowConfig(max_clouds=16, max_wait=0.25)

DISABLED_BUDGET_PCT = 2.0
SAMPLED_BUDGET_PCT = 5.0

#: Site-pattern calls timed for the disabled per-call cost.
CALLS = 200_000


def _disabled_site_cost() -> float:
    """Seconds per instrumentation site with tracing + metrics off."""
    obs.configure(trace=False, metrics=False)

    def loop():
        for _ in range(CALLS):
            if obs.enabled():
                with obs.span("op.bench", kernel="ragged"):
                    pass
            obs.inc("repro_bench_calls")

    seconds, _ = best_time(loop)
    return seconds / CALLS


def run_bench():
    clouds = list(generate(SPEC))
    engine = BatchExecutor("kdtree", block_size=32)

    def serve_once():
        server = WindowedServer(engine, WINDOW)
        return list(server.serve(iter(clouds), PIPELINE))

    off = dict(trace=False, metrics=False)
    sampled = dict(trace=True, sample=8, metrics=True)

    def timed(config):
        obs.configure(**config)
        seconds, _ = best_time(serve_once, repeats=1)
        obs.drain()
        return seconds

    with engine:
        # Two warmups prime the partition caches so both timed
        # configurations serve the same warm state.
        obs.configure(trace=False, metrics=False)
        serve_once()
        serve_once()

        # Spans per cloud, observed at full sampling.
        obs.configure(trace=True, sample=1, metrics=True)
        serve_once()
        spans_per_cloud = len(obs.drain()) / len(clouds)

        # Interleaved best-of-N for the end-to-end comparison.
        t_off, t_sampled = float("inf"), float("inf")
        for _ in range(8):
            t_off = min(t_off, timed(off))
            t_sampled = min(t_sampled, timed(sampled))
        obs.configure(trace=False, metrics=False)

    site_cost = _disabled_site_cost()
    per_cloud = t_off / len(clouds)
    disabled_pct = 100.0 * site_cost * spans_per_cloud / per_cloud
    sampled_pct = 100.0 * max(0.0, t_sampled - t_off) / t_off

    table = format_table(
        ["configuration", "per cloud", "overhead", "budget"],
        [
            ["tracing off (site cost x "
             f"{spans_per_cloud:.1f} sites)",
             f"{site_cost * spans_per_cloud * 1e6:.2f} us",
             f"{disabled_pct:.3f}%", f"<{DISABLED_BUDGET_PCT:.0f}%"],
            ["--trace --trace-sample 8",
             f"{t_sampled / len(clouds) * 1e3:.3f} ms",
             f"{sampled_pct:.2f}%", f"<{SAMPLED_BUDGET_PCT:.0f}%"],
        ],
        title=f"observability overhead ({len(clouds)} clouds, warm caches, "
              f"site cost {site_cost * 1e9:.0f} ns)",
    )
    return table, disabled_pct, sampled_pct


def test_obs_overhead(benchmark):
    table, disabled_pct, sampled_pct = benchmark.pedantic(
        run_bench, rounds=1, iterations=1
    )
    emit("obs_overhead", table)
    assert disabled_pct < DISABLED_BUDGET_PCT, disabled_pct
    assert sampled_pct < SAMPLED_BUDGET_PCT, sampled_pct
