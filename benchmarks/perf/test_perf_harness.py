"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q`` (outside
tier-1's ``testpaths``).  They check the harness, not the program: that
equal seeds give equal inputs, that span self times add up, that the
tail-percentile rule holds, that the correctness checks catch injected
faults, and that ``compare.py`` draws its line where the bounds say.
"""

import dataclasses
import json
import time
from pathlib import Path

import compare
import harness
import metrics
import numpy as np
import pytest
import stats
import tracing
import workloads as wl

from repro.core import dispatch
from repro.runtime import BatchExecutor, PipelineSpec

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    workload = wl.WORKLOADS[name]
    paths = [tmp_path / f"{i}.npy" for i in range(3)]
    for path, seed in zip(paths, (5, 5, 6)):
        wl.write_wire(workload, 6, seed, path)
    same, again, other = (path.read_bytes() for path in paths)
    assert same == again
    assert same != other
    with open(paths[0], "rb") as fh:
        assert sum(1 for _ in wl.open_source(workload, fh)) == 6


@pytest.mark.parametrize("jittered", [False, True])
def test_schedule_follows_the_seed(jittered):
    def schedule(seed):
        return harness.arrival_schedule(400.0, 500, seed, jittered)

    first = schedule(3)
    assert np.array_equal(first, schedule(3))
    assert not np.array_equal(first, schedule(4))
    assert np.all(np.diff(first) >= 0)
    assert 0.0 <= first[0] and first[-1] <= 500 / 400.0
    slots = np.bincount((first * 400.0).astype(int), minlength=500)
    assert (slots.max() == 1) == jittered


def test_even_sizes_fix_the_work_per_pass(tmp_path):
    workload = wl.WORKLOADS["scene_large"]
    totals = []
    for seed in (1, 2):
        path = tmp_path / f"{seed}.npy"
        wl.write_wire(workload, 5, seed, path)
        with open(path, "rb") as fh:
            totals.append(sorted(len(c) for _, c in wl.open_source(workload, fh)))
    assert totals[0] == totals[1]
    assert totals[0][0] == workload.load["min_points"]
    assert totals[0][-1] == workload.load["max_points"]


def test_hot_catalog_does_not_depend_on_the_seed(tmp_path):
    workload = wl.WORKLOADS["hotset_shards"]
    assets = workload.load["hot_assets"]
    requests = 3 * assets
    streams = []
    for seed in (1, 2):
        path = tmp_path / f"{seed}.npy"
        wl.write_wire(workload, requests, seed, path)
        with open(path, "rb") as fh:
            streams.append([c.tobytes() for _, c in wl.open_source(workload, fh)])
    first, second = (set(stream) for stream in streams)
    cold = round(requests * (1 - workload.load["hot_rate"]))
    assert len(first & second) == assets      # the same catalog on every seed
    assert len(first - second) == cold        # one-off clouds are the seed's
    assert len(first) == assets + cold        # hot assets repeat exactly
    assert streams[0] != streams[1]           # in a seeded order


def _burn(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_self_times_of_nested_spans_sum_to_the_root():
    recorder = tracing.Recorder()
    root = recorder.begin("root")
    _burn(0.002)
    child = recorder.begin("child")
    _burn(0.003)
    grandchild = recorder.begin("grandchild")
    _burn(0.001)
    recorder.end(grandchild)
    recorder.end(child)
    child = recorder.begin("child")
    _burn(0.001)
    recorder.end(child)
    recorder.end(root)
    (_, spans), = recorder.all_spans()
    own = tracing.self_times(spans)
    root_cpu = spans[0][tracing._C1] - spans[0][tracing._C0]
    assert sum(own) == pytest.approx(root_cpu, rel=1e-9)
    assert all(t >= 0 for t in own)
    summary = tracing.summarize(recorder, root_cpu)
    assert summary["coverage"] == pytest.approx(1.0)
    assert summary["layers"]["child"]["spans"] == 2
    assert summary["layers"]["child"]["self_s"] >= 0.004 - 1e-4


def test_tail_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="beyond"):
        stats.require_tail(199, 95)
    stats.require_tail(200, 95)
    with pytest.raises(ValueError):
        stats.require_tail(99, 90)
    stats.require_tail(100, 90)
    assert stats.percentile(list(range(200)), 95) == pytest.approx(189.05)
    for workload in wl.WORKLOADS.values():
        paced = wl.pass_sizes(workload, 20.0)[1]
        stats.require_tail(paced * (wl.ROUNDS if workload.sparse else 1),
                           workload.tail)


def test_dropped_reordered_or_duplicated_results_count_as_failed():
    expected = {"t0": [64, 80, 96, 70], "t1": [128, 130]}
    clean = {"t0": [(0, 64), (1, 80), (2, 96), (3, 70)],
             "t1": [(0, 128), (1, 130)]}
    assert harness.count_failed(expected, clean) == 0
    dropped = {**clean, "t0": [(0, 64), (2, 96), (3, 70)]}
    assert harness.count_failed(expected, dropped) == 1
    swapped = {**clean, "t0": [(0, 64), (2, 96), (1, 80), (3, 70)]}
    assert harness.count_failed(expected, swapped) == 1
    twice = {**clean, "t1": [(0, 128), (0, 128), (1, 130)]}
    assert harness.count_failed(expected, twice) == 1
    wrong_size = {**clean, "t1": [(0, 128), (1, 131)]}
    assert harness.count_failed(expected, wrong_size) == 1
    unasked = {**clean, "t2": [(0, 64)]}
    assert harness.count_failed(expected, unasked) == 1


def test_a_flipped_bit_fails_parity():
    workload = wl.WORKLOADS["roi_window"]
    rng = np.random.default_rng(0)
    cloud = rng.random((96, 3))
    with BatchExecutor("fractal", max_workers=1) as engine:
        served = engine.run_cloud(cloud, PipelineSpec())
    key = ("t0", 0)
    assert harness.parity_failures(workload, {key: cloud}, {key: served}) == 0
    flipped = served.grouped.copy()
    flipped.view(np.uint64)[0, 0, 0] ^= 1
    broken = dataclasses.replace(served, grouped=flipped)
    assert harness.parity_failures(workload, {key: cloud}, {key: broken}) == 1
    assert harness.parity_failures(workload, {key: cloud}, {}) == 1


def test_instrument_records_layers_and_restores_every_name(tmp_path):
    workload = wl.WORKLOADS["roi_window"]
    wire = tmp_path / "wire.npy"
    wl.write_wire(workload, 40, 1, wire)
    before = (dispatch.run_op, dispatch.run_build)
    out = harness.run_pass(workload, str(wire), mode="firehose", count=40,
                           seed=1, parity=True, instrument="bench",
                           trace_path=str(tmp_path / "trace.json"))
    assert (dispatch.run_op, dispatch.run_build) == before
    assert out["failed"] == 0 and out["served"] == 40
    layers = out["trace"]["layers"]
    assert layers["wire.decode"]["spans"] >= 40
    assert layers["engine.window"]["clouds"] == 40 - round(
        out["reused_share"] * 40)
    assert 0.5 < out["trace"]["coverage"] < 1.5
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert len(events) == out["trace"]["events"]
    assert {"name", "ph", "ts", "dur", "pid", "tid", "args"} <= set(events[0])


def _document(scale: float) -> dict:
    values = [100.0, 101.0, 99.0, 100.5, 99.5]
    return {
        "end_to_end": {"latency_p50_ms": ["ms", "lower", 0.10]},
        "workloads": {"w": {"runs": [
            {"attempted": 10, "failed": 0,
             "metrics": {"latency_p50_ms": {"value": v * scale, "unit": "ms"}}}
            for v in values
        ]}},
    }


def test_compare_flags_fifteen_per_cent_and_passes_three():
    rows, passed = compare.compare(_document(1.0), _document(1.15))
    assert not passed
    assert rows[0]["verdict"] == "regressed"
    assert rows[0]["ratio"] == pytest.approx(1.15)
    rows, passed = compare.compare(_document(1.0), _document(1.03))
    assert passed and rows[0]["verdict"] == "ok"
    faster, passed = compare.compare(_document(1.0), _document(0.85))
    assert passed and faster[0]["verdict"] == "ok"


def test_compare_reports_wide_overlapping_runs_as_unresolved():
    noisy = [80.0, 120.0, 95.0, 105.0, 100.0]
    status, _ = compare.verdict(noisy, [v * 1.02 for v in noisy], "lower", 0.10)
    assert status == "unresolved"
    status, _ = compare.verdict(noisy, [v * 0.5 for v in noisy], "lower", 0.10)
    assert status == "ok"


def test_compare_fails_on_any_rise_in_failures():
    worse = _document(1.0)
    worse["workloads"]["w"]["runs"][0]["failed"] = 1
    rows, passed = compare.compare(_document(1.0), worse)
    assert not passed
    assert rows[-1]["metric"] == "failed_share"
    assert rows[-1]["verdict"] == "regressed"


def test_benchmark_json_names_what_the_harness_prints():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in declared["end_to_end"]
    } == metrics.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]
    } == metrics.PER_LAYER
    assert declared["paths"] == ["benchmarks/perf"]
