"""Tests for :mod:`repro.obs`: tracer, metrics, exporters, stitching.

The layer's obligations:

- span trees are well formed under any nesting (stack discipline, no
  orphans, child intervals contained in their parents) — including
  unsampled traces, mis-nested exits, and concurrent threads;
- head-based sampling is deterministic (counter, not clock or rng);
- spans stitch across the shard pipes into one tree per request, over
  both transports, and the summarizer's coverage identity holds on the
  stitched file;
- the exporters round-trip and the Chrome JSON obeys the trace_event
  schema Perfetto expects;
- the metrics registry renders valid Prometheus text exposition;
- :class:`LatencyRing` matches the numpy percentile reference, before
  and after wraparound;
- :meth:`ServeReport.merge` aggregates under its declared policies and
  refuses fields no policy covers.
"""

import json
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.datasets import load_cloud
from repro.obs import (
    NULL_SPAN,
    LatencyRing,
    MetricsRegistry,
    Span,
    Tracer,
    export,
    latency_percentiles,
)
from repro.serve import telemetry as telemetry_mod
from repro.serve.telemetry import ServeReport
from repro.shard import ShardRouter

ENGINE = dict(partitioner="kdtree", block_size=32, kernel="auto")


@pytest.fixture(autouse=True)
def _reset_obs():
    """Leave the process-global tracer/registry disabled after each test."""
    yield
    obs.configure(trace=False, sample=1, metrics=False)


def clouds_for(count, *, base=160, step=16, seed=0):
    return [
        load_cloud("modelnet40", base + step * i, seed=seed + i).coords
        for i in range(count)
    ]


class TestTracer:
    def test_disabled_span_is_free_singleton(self):
        t = Tracer()
        assert t.span("x") is NULL_SPAN
        with t.span("x") as s:
            s.annotate(ignored=1)
        assert t.drain() == []

    def test_nesting_records_parentage(self):
        t = Tracer(enabled=True)
        with t.span("root", tenant="a"):
            with t.span("child"):
                pass
        spans = {s.name: s for s in t.drain()}
        root, child = spans["root"], spans["child"]
        assert root.parent_id == 0
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id == root.span_id
        assert root.start <= child.start <= child.end <= root.end
        assert root.attrs == {"tenant": "a"}

    def test_sampling_is_counter_deterministic(self):
        t = Tracer(enabled=True, sample=3)
        for i in range(7):
            with t.span(f"r{i}"):
                with t.span(f"c{i}"):
                    pass
        names = {s.name for s in t.drain()}
        # Roots 0, 3, 6 sampled — each with its child, nothing else.
        assert names == {"r0", "c0", "r3", "c3", "r6", "c6"}

    def test_sample_zero_is_worker_mode(self):
        t = Tracer(enabled=True, sample=0)
        with t.span("local-root"):
            pass
        assert t.drain() == []
        with t.span_remote((77, 42), "shard.window"):
            with t.span("op.fps"):
                pass
        spans = {s.name: s for s in t.drain()}
        assert spans["shard.window"].trace_id == 77
        assert spans["shard.window"].parent_id == 42
        assert spans["op.fps"].parent_id == spans["shard.window"].span_id

    def test_remote_none_context_suppresses_subtree(self):
        t = Tracer(enabled=True, sample=0)
        with t.span_remote(None, "shard.window"):
            with t.span("op.fps"):
                pass
        assert t.drain() == []

    def test_unsampled_trace_suppresses_descendants(self):
        t = Tracer(enabled=True, sample=2)
        for i in range(2):
            with t.span(f"r{i}"):
                with t.span(f"c{i}"):
                    pass
        assert {s.name for s in t.drain()} == {"r0", "c0"}

    def test_backdated_start(self):
        t = Tracer(enabled=True)
        early = obs.now() - 5.0
        with t.span("serve.window", start=early):
            pass
        (span,) = t.drain()
        assert span.start == early
        assert span.duration >= 5.0

    def test_record_attaches_to_innermost_open_span(self):
        t = Tracer(enabled=True)
        with t.span("root") as root:
            t.record("serve.wait", 1.0, 2.0, clouds=3)
            root_id = root.span_id
        t.record("orphan", 1.0, 2.0)  # no open span: dropped
        spans = {s.name: s for s in t.drain()}
        assert "orphan" not in spans
        wait = spans["serve.wait"]
        assert wait.parent_id == root_id
        assert wait.duration == pytest.approx(1.0)
        assert wait.attrs == {"clouds": 3}

    def test_record_with_explicit_parent(self):
        t = Tracer(enabled=True)
        t.record("transport.unpack", 1.0, 1.5, parent=(9, 4))
        (span,) = t.drain()
        assert (span.trace_id, span.parent_id) == (9, 4)

    def test_open_span_crosses_threads(self):
        t = Tracer(enabled=True)
        handle = t.open_span("serve.request", stream="s0")
        finisher = threading.Thread(target=handle.finish)
        finisher.start()
        finisher.join()
        (span,) = t.drain()
        assert span.name == "serve.request"
        assert span.span_id == handle.ctx[1]
        assert t.open_span("x") is not None
        assert Tracer(enabled=True, sample=0).open_span("x") is None

    def test_exception_annotates_and_unwinds(self):
        t = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with t.span("root"):
                raise ValueError("boom")
        (span,) = t.drain()
        assert span.attrs["error"] == "ValueError"
        with t.span("next-root") as nxt:
            assert nxt.parent_id == 0  # stack fully unwound

    def test_mis_nested_exit_tolerated(self):
        t = Tracer(enabled=True)
        outer = t.span("outer")
        outer.__enter__()
        inner = t.span("inner")
        inner.__enter__()
        outer.__exit__(None, None, None)  # wrong order: drops descendants
        inner.__exit__(None, None, None)
        assert len(t.drain()) == 2
        with t.span("fresh") as fresh:
            assert fresh.parent_id == 0

    def test_wire_round_trip_and_adopt(self):
        t = Tracer(enabled=True)
        with t.span("shard.window", shard="shard-1"):
            pass
        (span,) = t.drain()
        router = Tracer(enabled=True)
        assert router.adopt([span.to_wire()]) == 1
        (adopted,) = router.drain()
        assert adopted == span

    def test_finished_buffer_is_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.obs.trace.MAX_FINISHED", 3)
        t = Tracer(enabled=True)
        for i in range(5):
            with t.span(f"r{i}"):
                pass
        assert len(t.drain()) == 3
        assert t.dropped == 2

    def test_span_ids_are_pid_salted(self):
        t = Tracer(enabled=True)
        with t.span("x"):
            pass
        (span,) = t.drain()
        assert span.pid == os.getpid()
        assert span.span_id >> 40 == os.getpid() & 0x3FFFFF

    @settings(deadline=None, max_examples=60)
    @given(
        script=st.lists(st.sampled_from(["push", "pop"]), max_size=40),
        sample=st.integers(1, 4),
    )
    def test_stack_discipline_no_orphans(self, script, sample):
        """Any push/pop sequence yields a well-formed forest: every
        recorded parent exists, shares the trace id, and contains its
        child's interval."""
        t = Tracer(enabled=True, sample=sample)
        stack = []
        for op in script:
            if op == "push":
                cm = t.span(f"d{len(stack)}")
                cm.__enter__()
                stack.append(cm)
            elif stack:
                stack.pop().__exit__(None, None, None)
        while stack:
            stack.pop().__exit__(None, None, None)
        assert t._state().stack == [] and t._state().skip == 0
        spans = t.drain()
        by_id = {s.span_id: s for s in spans}
        for s in spans:
            if s.parent_id:
                parent = by_id[s.parent_id]  # KeyError = orphan
                assert parent.trace_id == s.trace_id
                assert parent.start <= s.start and s.end <= parent.end

    def test_threads_keep_private_stacks(self):
        t = Tracer(enabled=True)
        barrier = threading.Barrier(4)

        def work(tag):
            with t.span(f"root.{tag}"):
                barrier.wait()
                with t.span(f"child.{tag}"):
                    pass

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        spans = t.drain()
        roots = {
            s.name.split(".")[1]: s for s in spans if s.name.startswith("root")
        }
        children = [s for s in spans if s.name.startswith("child")]
        assert len(roots) == len(children) == 4
        for child in children:
            assert child.parent_id == roots[child.name.split(".")[1]].span_id


class TestConfigure:
    def test_configure_swaps_tracer_and_registry(self):
        obs.configure(trace=True, sample=2, metrics=True)
        assert obs.enabled()
        assert obs.tracer().sample == 2
        assert obs.metrics().enabled
        with obs.span("root"):
            pass
        obs.configure(trace=False)
        assert not obs.enabled()
        assert obs.drain() == []  # replacement dropped buffered spans

    def test_metric_helpers_gate_on_enabled(self):
        obs.configure(metrics=False)
        obs.inc("repro_test_total")
        obs.observe("repro_test_seconds", 0.1)
        obs.set_gauge("repro_test_depth", 3)
        assert obs.metrics().render() == ""
        obs.configure(metrics=True)
        obs.inc("repro_test_events", 2)
        obs.set_gauge("repro_test_depth", 3)
        line = obs.metrics().snapshot_line()
        assert "test_events=2" in line and "test_depth=3" in line


class TestMetricsRegistry:
    def test_prometheus_exposition(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("repro_clouds", help="served clouds").inc(3)
        registry.gauge("repro_depth").set(1.5)
        h = registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 2.0):
            h.observe(v)
        text = registry.render()
        assert "# HELP repro_clouds served clouds" in text
        assert "# TYPE repro_clouds counter" in text
        assert "repro_clouds_total 3" in text
        assert "repro_depth 1.5" in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_lat_seconds_count 3" in text
        assert "repro_lat_seconds_sum 2.55" in text

    def test_get_or_create_rejects_kind_mismatch(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("repro_x")
        assert registry.counter("repro_x") is registry.counter("repro_x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("repro_x")

    def test_histogram_validates_buckets(self):
        with pytest.raises(ValueError, match="bucket"):
            MetricsRegistry(enabled=True).histogram("repro_x", buckets=())


class TestLatencyRing:
    def test_matches_numpy_before_and_after_wraparound(self):
        rng = np.random.default_rng(0)
        ring = LatencyRing(64)
        samples = rng.exponential(0.01, size=200)
        for i, value in enumerate(samples):
            ring.append(value)
            tail = samples[max(0, i - 63): i + 1]
            expected = np.percentile(tail, (50.0, 95.0, 99.0))
            assert ring.percentiles() == pytest.approx(tuple(expected))
        assert len(ring) == 64

    def test_view_is_zero_copy(self):
        ring = LatencyRing(8)
        ring.append(1.0)
        view = ring.view()
        assert view.base is not None and len(view) == 1

    def test_latency_percentiles_inputs(self):
        assert latency_percentiles([]) == (0.0, 0.0, 0.0)
        assert latency_percentiles([0.2]) == (0.2, 0.2, 0.2)
        from_gen = latency_percentiles(float(v) for v in range(100))
        assert from_gen == pytest.approx((49.5, 94.05, 98.01))
        assert latency_percentiles([1.0, 2.0], (100.0,)) == (2.0,)

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            LatencyRing(0)


def _report(**kw):
    base = dict(
        clouds=4, windows=2, buckets=2, fused_clouds=2, singleton_clouds=1,
        reused_clouds=1, wall_seconds=1.0, latency_p50=0.01,
        latency_p95=0.02, latency_p99=0.03, mean_occupancy=0.5,
        max_queue_depth=3, timeout_windows=1, label="a", cold_clouds=1,
        warm_clouds=1,
    )
    base.update(kw)
    return ServeReport(**base)


class TestServeReportMerge:
    def test_merge_policies(self):
        a = _report()
        b = _report(
            clouds=8, windows=6, wall_seconds=0.5, latency_p95=0.08,
            mean_occupancy=0.25, max_queue_depth=9, label="b",
            warm_clouds=4,
        )
        merged = ServeReport.merge([a, b])
        assert merged.clouds == 12
        assert merged.windows == 8
        assert merged.warm_clouds == 5
        assert merged.wall_seconds == 1.0  # max: shared wall clock
        assert merged.latency_p95 == 0.08
        assert merged.max_queue_depth == 9
        # Windows-weighted: (0.5 * 2 + 0.25 * 6) / 8.
        assert merged.mean_occupancy == pytest.approx(0.3125)
        assert merged.label == "a+b"

    def test_add_operator_and_duplicate_labels(self):
        total = _report() + _report()
        assert total.clouds == 8
        assert total.label == "a"

    def test_merge_rejects_zero_reports(self):
        with pytest.raises(ValueError, match="zero reports"):
            ServeReport.merge([])

    def test_unpoliced_field_raises(self, monkeypatch):
        """A new ServeReport field without a merge policy must fail loud —
        the silent-default bug this API replaced."""
        reduced = telemetry_mod._MERGE_SUM - {"clouds"}
        monkeypatch.setattr(telemetry_mod, "_MERGE_SUM", reduced)
        with pytest.raises(RuntimeError, match="clouds"):
            ServeReport.merge([_report(), _report()])


def _make_tree():
    """One two-process request tree with known self times."""
    return [
        Span("serve.request", 1, 1, 0, 0.0, 1.0, 100, 1, {}),
        Span("shard.window", 1, 2, 1, 0.2, 0.8, 200, 1, {"shard": "s0"}),
        Span("op.fps", 1, 3, 2, 0.3, 0.5, 200, 1, {}),
        Span("transport.pack", 1, 4, 2, 0.6, 0.7, 200, 1, {}),
    ]


class TestExport:
    def test_chrome_schema(self, tmp_path):
        path = str(tmp_path / "trace.json")
        export.write_chrome_trace(_make_tree(), path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["pid"] for e in meta} == {100, 200}
        assert all(e["name"] == "process_name" for e in meta)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 4
        for event in complete:
            assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(event)
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert {"trace", "span", "parent"} <= set(event["args"])

    def test_chrome_round_trip_preserves_tree(self, tmp_path):
        path = str(tmp_path / "trace.json")
        spans = _make_tree()
        export.write_trace(spans, path)
        loaded = export.load_trace(path)
        assert [(s.name, s.trace_id, s.span_id, s.parent_id) for s in loaded] \
            == [(s.name, s.trace_id, s.span_id, s.parent_id) for s in spans]
        for original, back in zip(spans, loaded):
            assert back.duration == pytest.approx(original.duration)
            assert back.attrs == original.attrs

    def test_jsonl_round_trip_is_exact(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        spans = _make_tree()
        assert export.write_trace(spans, path) == len(spans)
        assert export.load_trace(path) == spans

    def test_load_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        assert export.load_trace(str(path)) == []

    def test_stage_mapping(self):
        assert export.stage_of("op.fps") == "op.fps"
        assert export.stage_of("partition.build") == "build"
        assert export.stage_of("shard.serialize") == "transport"
        assert export.stage_of("transport.unpack") == "transport"
        assert export.stage_of("serve.wait") == "queueing"
        assert export.stage_of("serve.request") == "queueing"
        assert export.stage_of("serve.window") == "engine"
        assert export.stage_of("engine.fused") == "engine"
        assert export.stage_of("mystery") == "other"

    def test_summarize_self_time_identity(self):
        summary = export.summarize(_make_tree())
        assert summary.traces == 1
        assert summary.wall_seconds == pytest.approx(1.0)
        assert summary.coverage == pytest.approx(1.0)
        seconds = {row.stage: row.seconds for row in summary.rows}
        # Request self time: 1.0 - 0.6 (its one child) = 0.4.
        assert seconds["queueing"] == pytest.approx(0.4)
        # Window self time: 0.6 - 0.2 - 0.1 = 0.3.
        assert seconds["engine"] == pytest.approx(0.3)
        assert seconds["op.fps"] == pytest.approx(0.2)
        assert seconds["transport"] == pytest.approx(0.1)

    def test_summarize_absent_parent_counts_as_root(self):
        orphan = Span("engine.cloud", 5, 9, 7, 0.0, 0.5, 1, 1, {})
        summary = export.summarize([orphan])
        assert summary.traces == 1
        assert summary.wall_seconds == pytest.approx(0.5)
        assert summary.coverage == pytest.approx(1.0)


class TestCrossProcessStitching:
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_router_worker_spans_form_one_tree(self, transport):
        obs.configure(trace=True, sample=1, metrics=True)
        clouds = clouds_for(6)
        with ShardRouter(
            2, engine=ENGINE, transport=transport, max_clouds=3
        ) as router:
            served = list(router.serve(clouds))
        assert len(served) == len(clouds)
        spans = obs.drain()
        by_id = {s.span_id: s for s in spans}
        requests = [s for s in spans if s.name == "serve.request"]
        windows = [s for s in spans if s.name == "shard.window"]
        ops = [s for s in spans if s.name.startswith("op.")]
        assert len(requests) == len(clouds)
        assert windows and ops
        router_pid = requests[0].pid
        for window in windows:
            parent = by_id[window.parent_id]
            assert parent.name == "serve.request"
            assert window.pid != router_pid  # crossed the pipe
        request_traces = {s.trace_id for s in requests}
        for op in ops:
            assert op.trace_id in request_traces
        # The stitched file satisfies the summarizer's coverage identity.
        summary = export.summarize(spans)
        assert summary.traces == len(clouds)
        assert 0.9 <= summary.coverage <= 1.1

    def test_sampling_thins_request_traces(self):
        obs.configure(trace=True, sample=3, metrics=False)
        clouds = clouds_for(6)
        with ShardRouter(1, engine=ENGINE, max_clouds=2) as router:
            list(router.serve(clouds))
        spans = obs.drain()
        requests = [s for s in spans if s.name == "serve.request"]
        assert len(requests) == 2  # roots 0 and 3 of 6
        request_traces = {s.trace_id for s in requests}
        for span in spans:
            assert span.trace_id in request_traces


class TestTraceCli:
    def test_serve_trace_and_summarize(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "trace.json")
        rc = main([
            "serve", "--clouds", "12", "--window", "4",
            "--stats-every", "0", "--max-points", "128",
            "--trace", path, "--metrics",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro_serve_clouds_total 12" in out
        rc = main(["trace", "summarize", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "coverage" in out
        assert "op.fps" in out

    def test_summarize_empty_trace_fails(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        assert main(["trace", "summarize", str(path)]) == 1
        assert "no spans" in capsys.readouterr().err
