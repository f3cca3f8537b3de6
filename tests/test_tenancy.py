"""Tests for multi-tenant serving: deficit-round-robin fairness,
cross-tenant fused windows, per-session isolation, and ordering.

The proof obligations extend the serving suite's: fairness decisions,
window composition, and cross-tenant bucket mates may change *when* a
tenant's work happens, never *what* comes out — every tenant's results
are index-level bit-identical to that tenant running alone through the
serial reference path, and always in the tenant's own submission order.
On top of that the scheduler carries a starvation bound: a backlogged
tenant is never passed over in two consecutive admission rounds.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_batch_parity import TestExecutorParity, make_cloud

from repro.runtime import BatchExecutor, PipelineSpec
from repro.serve import (
    DeficitRoundRobin,
    MultiTenantServer,
    TenantSpec,
    WindowConfig,
    inbox,
)

PIPELINE = PipelineSpec(radius=0.4, group_size=8)


def serial_reference(clouds, pipeline, partitioner="kdtree", block_size=16):
    return [
        TestExecutorParity.reference_pipeline(
            np.asarray(c, dtype=np.float64), partitioner, block_size, pipeline
        )
        for c in clouds
    ]


def drain_all(server, *, now=0.0):
    """Drain the full backlog; returns emissions in drain order."""
    out = []
    while server.backlog:
        out.append(server.drain(now=now))
    return [r for round_ in out for r in round_]


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="name"):
            TenantSpec("")
        with pytest.raises(ValueError, match="weight"):
            TenantSpec("a", weight=0.0)
        with pytest.raises(ValueError, match="reuse_window"):
            TenantSpec("a", reuse_window=0)

    def test_server_rejects_bad_rosters(self):
        engine = BatchExecutor("kdtree")
        with pytest.raises(ValueError, match="at least one"):
            MultiTenantServer(engine, [])
        with pytest.raises(ValueError, match="duplicate"):
            MultiTenantServer(engine, ["a", "a"])
        server = MultiTenantServer(engine, ["a"])
        with pytest.raises(ValueError, match="unknown tenant"):
            server.submit("nope", make_cloud(10, seed=0))


class TestDeficitRoundRobin:
    def test_quantum_validation(self):
        with pytest.raises(ValueError, match="quantum"):
            DeficitRoundRobin(0)
        drr = DeficitRoundRobin(100)
        with pytest.raises(ValueError, match="capacity"):
            drr.admit({"a": [10]}, 0)

    def test_equal_tenants_share_equally(self):
        drr = DeficitRoundRobin(quantum=100)
        queues = {"a": [50] * 10, "b": [50] * 10}
        totals = {"a": 0, "b": 0}
        for _ in range(5):
            admitted = drr.admit(
                {t: q[totals[t]:] for t, q in queues.items()}, 4
            )
            for t, n in admitted.items():
                totals[t] += n
        assert totals["a"] == totals["b"] == 10

    def test_weights_skew_admission(self):
        drr = DeficitRoundRobin(quantum=50, weights={"a": 1.0, "b": 3.0})
        taken = {"a": 0, "b": 0}
        for _ in range(8):
            admitted = drr.admit(
                {"a": [50] * 100, "b": [50] * 100}, 100
            )
            for t, n in admitted.items():
                taken[t] += n
        # b earns 3x the credit, so (starvation guard aside) it admits
        # about 3x the work.
        assert taken["b"] > 2 * taken["a"]

    def test_burst_cannot_crowd_out_trickle(self):
        """The fairness scenario of the ISSUE in scheduler-only form: a
        deep bursty queue and a single-cloud trickle queue — the trickle
        tenant is admitted every round it is ready."""
        drr = DeficitRoundRobin(quantum=200)
        for round_ in range(20):
            admitted = drr.admit(
                {"bursty": [100] * 500, "trickle": [100]}, 4
            )
            assert admitted.get("trickle", 0) >= 1 or round_ == 0
            # bursty still gets the lion's share of the window
            assert admitted.get("bursty", 0) >= 1

    def test_oversized_head_rides_the_guard(self):
        """A cloud costing more than any credit balance cannot starve its
        tenant: the skip guard force-admits it on the second round."""
        drr = DeficitRoundRobin(quantum=10)
        first = drr.admit({"big": [10_000], "small": [5] * 50}, 4)
        second = drr.admit({"big": [10_000], "small": [5] * 50}, 4)
        assert first.get("big", 0) + second.get("big", 0) >= 1

    def test_empty_queues_no_admission(self):
        drr = DeficitRoundRobin()
        assert drr.admit({}, 4) == {}
        assert drr.admit({"a": []}, 4) == {}

    def test_drained_queue_resets_deficit(self):
        drr = DeficitRoundRobin(quantum=1000)
        drr.admit({"a": [10]}, 4)
        assert drr.deficits["a"] == 0.0

    @settings(deadline=None, max_examples=120)
    @given(
        arrivals=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 3),  # tenant index
                    st.integers(1, 400),  # cost
                ),
                max_size=8,
            ),
            min_size=2,
            max_size=14,
        ),
        capacity=st.integers(1, 6),
        quantum=st.integers(1, 500),
    )
    def test_never_skips_ready_tenant_twice(self, arrivals, capacity, quantum):
        """The ISSUE's hypothesis property: a tenant with queued work is
        never passed over in two consecutive admission rounds, whatever
        the traffic, the quantum, or the window budget."""
        drr = DeficitRoundRobin(quantum=quantum)
        queues = {f"t{i}": [] for i in range(4)}
        skipped_last = set()
        for round_arrivals in arrivals:
            for tenant_index, cost in round_arrivals:
                queues[f"t{tenant_index}"].append(cost)
            ready = {t for t, q in queues.items() if q}
            admitted = drr.admit(
                {t: list(q) for t, q in queues.items() if q}, capacity
            )
            for tenant, count in admitted.items():
                del queues[tenant][:count]
            skipped = {t for t in ready if admitted.get(t, 0) == 0}
            assert not (skipped & skipped_last), (
                f"tenants {skipped & skipped_last} were ready and skipped "
                f"in two consecutive rounds"
            )
            skipped_last = skipped

    @settings(deadline=None, max_examples=120)
    @given(
        rounds=st.lists(
            st.dictionaries(
                st.sampled_from(["t0", "t1", "t2"]),
                st.lists(st.integers(1, 20_000), min_size=1, max_size=6),
                min_size=1,
            ),
            min_size=1,
            max_size=10,
        ),
        capacity=st.integers(1, 6),
        quantum=st.integers(1, 10_000),
    )
    def test_nonempty_backlog_admits_at_least_one(
        self, rounds, capacity, quantum
    ):
        """A round with work queued never comes up empty — even when
        every head costs more than its tenant's credit."""
        drr = DeficitRoundRobin(quantum=quantum)
        for queues in rounds:
            admitted = drr.admit(queues, capacity)
            assert sum(admitted.values()) >= 1
            for tenant, count in admitted.items():
                assert 1 <= count <= len(queues[tenant])

    def test_lone_oversized_tenant_drains_every_round(self):
        """Regression: one tenant whose clouds all cost more than the
        quantum used to drain ``[0, 1, 1, 1]`` — an empty first round."""
        engine = BatchExecutor("kdtree", block_size=16)
        with MultiTenantServer(engine, ["a"], quantum_points=30.0) as server:
            for n in (40, 44, 48, 52):
                server.submit("a", make_cloud(n, seed=n), arrived=0.0)
            assert [len(server.drain(now=1.0)) for _ in range(4)] == [1] * 4
            assert server.backlog == 0


class TestCrossTenantParity:
    """Cross-tenant fused windows ≡ each tenant's serial reference."""

    def assert_tenant_parity(self, per_tenant_clouds, results,
                             pipelines=None, partitioner="kdtree"):
        per_tenant = {name: [] for name in per_tenant_clouds}
        for served in results:
            per_tenant[served.tenant].append(served)
        for name, clouds in per_tenant_clouds.items():
            served = per_tenant[name]
            assert [r.seq for r in served] == list(range(len(clouds)))
            pipeline = (pipelines or {}).get(name, PIPELINE)
            refs = serial_reference(clouds, pipeline, partitioner)
            for ref, tenant_result in zip(refs, served):
                result = tenant_result.result
                assert np.array_equal(ref[0], result.sampled)
                assert np.array_equal(ref[1], result.neighbors)
                assert np.array_equal(ref[2], result.grouped)
                assert np.array_equal(ref[3], result.interpolated)

    @pytest.mark.parametrize("partitioner", ("kdtree", "fractal"))
    def test_fused_window_spanning_tenants(self, partitioner):
        """Same-pipeline tenants share ragged kernel invocations; the
        results must match each tenant running alone, bit for bit."""
        clouds = {
            "a": [make_cloud(n, seed=3000 + n) for n in (40, 44, 64, 181)],
            "b": [make_cloud(n, seed=3100 + n) for n in (42, 48, 60, 200)],
        }
        engine = BatchExecutor(
            partitioner, block_size=16, fuse_max_spread=None
        )
        server = MultiTenantServer(
            engine,
            [TenantSpec("a", PIPELINE), TenantSpec("b", PIPELINE)],
            window=WindowConfig(max_clouds=8),
        )
        for name, tenant_clouds in clouds.items():
            for cloud in tenant_clouds:
                server.submit(name, cloud, arrived=0.0)
        results = drain_all(server)
        # One shared window: both tenants' clouds fused together.
        telemetry = server.session("a").telemetry
        assert telemetry.fused_clouds > 0
        self.assert_tenant_parity(clouds, results, partitioner=partitioner)

    def test_per_tenant_pipelines_stay_separate(self):
        """Tenants with different pipeline configs never share a kernel
        invocation but still serve from the same window round."""
        pipelines = {
            "wide": PipelineSpec(radius=0.6, group_size=8),
            "narrow": PipelineSpec(radius=0.2, group_size=4,
                                   with_interpolation=False),
        }
        clouds = {
            "wide": [make_cloud(n, seed=3200 + n) for n in (40, 50, 60)],
            "narrow": [make_cloud(n, seed=3300 + n) for n in (45, 55)],
        }
        engine = BatchExecutor("kdtree", block_size=16)
        server = MultiTenantServer(
            engine,
            [TenantSpec(name, pipeline) for name, pipeline in pipelines.items()],
        )
        for name, tenant_clouds in clouds.items():
            for cloud in tenant_clouds:
                server.submit(name, cloud, arrived=0.0)
        results = drain_all(server)
        per_tenant = {name: [] for name in clouds}
        for served in results:
            per_tenant[served.tenant].append(served)
        for name, tenant_clouds in clouds.items():
            refs = serial_reference(tenant_clouds, pipelines[name])
            for ref, tenant_result in zip(refs, per_tenant[name]):
                assert np.array_equal(ref[0], tenant_result.result.sampled)
                assert np.array_equal(ref[1], tenant_result.result.neighbors)
                assert np.array_equal(ref[2], tenant_result.result.grouped)
        assert per_tenant["narrow"][0].result.interpolated is None

    def test_threaded_serve_matches_serial_reference(self):
        clouds = {
            "a": [make_cloud(n, seed=3400 + n) for n in (40, 52, 64)],
            "b": [make_cloud(n, seed=3500 + n) for n in (44, 56)],
        }
        pairs = []
        for name, tenant_clouds in clouds.items():
            pairs.extend((name, cloud) for cloud in tenant_clouds)
        engine = BatchExecutor("kdtree", block_size=16)
        with MultiTenantServer(
            engine,
            [TenantSpec("a", PIPELINE), TenantSpec("b", PIPELINE)],
            window=WindowConfig(max_clouds=3),
        ) as server:
            results = list(server.serve(iter(pairs)))
        assert len(results) == 5
        self.assert_tenant_parity(clouds, results)


class TestSessionIsolation:
    def test_dedup_is_per_tenant(self):
        """The same cloud sent by two tenants is computed for each —
        sessions never observe each other's results — while a repeat
        within one tenant replays from its own dedup window."""
        shared = make_cloud(50, seed=42)
        engine = BatchExecutor("kdtree", block_size=16)
        server = MultiTenantServer(engine, ["a", "b"])
        server.submit("a", shared, arrived=0.0)
        server.submit("b", shared, arrived=0.0)
        server.submit("a", shared, arrived=0.0)  # repeat, same tenant
        results = {(r.tenant, r.seq): r for r in drain_all(server)}
        assert not results[("a", 0)].result.reused
        assert not results[("b", 0)].result.reused  # no cross-tenant replay
        assert results[("a", 1)].result.reused  # within-tenant replay
        assert np.array_equal(
            results[("a", 0)].result.sampled, results[("b", 0)].result.sampled
        )

    def test_replay_across_rounds_from_session_window(self):
        cloud = make_cloud(60, seed=43)
        other = make_cloud(70, seed=44)
        engine = BatchExecutor("kdtree", block_size=16)
        server = MultiTenantServer(engine, ["a"])
        server.submit("a", cloud, arrived=0.0)
        first = drain_all(server)
        server.submit("a", other, arrived=1.0)
        server.submit("a", cloud, arrived=1.0)  # repeat in a later round
        second = drain_all(server, now=1.0)
        assert not first[0].result.reused
        assert [r.result.reused for r in second] == [False, True]
        assert server.session("a").telemetry.reused_clouds == 1

    def test_share_results_opt_in_replays_across_tenants(self):
        """With share_results on, bit-identical content computed for one
        tenant replays for another (hot assets are hot for everyone) —
        and the replay is still index-correct for the receiving tenant."""
        shared = make_cloud(50, seed=47)
        engine = BatchExecutor("kdtree", block_size=16)
        server = MultiTenantServer(engine, ["a", "b"], share_results=True)
        server.submit("a", shared, arrived=0.0)
        drain_all(server)
        server.submit("b", shared, arrived=1.0)
        (b_result,) = drain_all(server, now=1.0)
        assert b_result.tenant == "b" and b_result.seq == 0
        assert b_result.result.reused
        assert server.session("b").telemetry.reused_clouds == 1
        ref = serial_reference([shared], TenantSpec("x").pipeline)[0]
        assert np.array_equal(ref[0], b_result.result.sampled)
        assert np.array_equal(ref[3], b_result.result.interpolated)

    def test_tenant_reuse_window_override(self):
        engine = BatchExecutor("kdtree", block_size=16)
        server = MultiTenantServer(
            engine, [TenantSpec("tiny", reuse_window=1)]
        )
        a, b = make_cloud(40, seed=45), make_cloud(44, seed=46)
        for cloud in (a, b, a):  # a evicted by b under reuse_window=1
            server.submit("tiny", cloud, arrived=0.0)
            drain_all(server)
        assert server.session("tiny").telemetry.reused_clouds == 0


class TestOrdering:
    def test_submission_order_survives_fair_scheduling(self):
        """Tiny windows + deep unequal backlogs: every tenant still sees
        strictly increasing seq numbers on its own stream."""
        engine = BatchExecutor(
            "kdtree", block_size=16, reuse_results=False
        )
        server = MultiTenantServer(
            engine, ["x", "y", "z"], window=WindowConfig(max_clouds=2),
            quantum_points=64,
        )
        rng = np.random.default_rng(9)
        for i in range(12):
            server.submit("x", rng.normal(size=(30 + i, 3)), arrived=float(i))
            if i % 3 == 0:
                server.submit("y", rng.normal(size=(80 + i, 3)), arrived=float(i))
            if i % 5 == 0:
                server.submit("z", rng.normal(size=(20 + i, 3)), arrived=float(i))
        seen = {"x": -1, "y": -1, "z": -1}
        emissions = []
        while server.backlog:
            emissions.extend(server.drain(now=20.0))
        for served in emissions:
            assert served.seq == seen[served.tenant] + 1
            seen[served.tenant] = served.seq
        assert seen == {"x": 11, "y": 3, "z": 2}


class TestFairnessScenario:
    """The ISSUE's deterministic scenario: bursty + trickle tenant on a
    synthetic clock — the trickle tenant's p95 queueing latency stays
    bounded (and far below the bursty tenant's self-inflicted backlog)."""

    def run_scenario(self, quantum, rounds=30, burst=6):
        engine = BatchExecutor(
            "kdtree", block_size=16, reuse_results=False
        )
        server = MultiTenantServer(
            engine, ["bursty", "trickle"],
            window=WindowConfig(max_clouds=4, max_wait=0.01),
            quantum_points=quantum,
        )
        rng = np.random.default_rng(11)
        for r in range(rounds):
            now = float(r)
            for _ in range(burst):
                server.submit(
                    "bursty", rng.normal(size=(40, 3)), arrived=now
                )
            server.submit("trickle", rng.normal(size=(36, 3)), arrived=now)
            server.drain(now=now + 0.5)  # one window per time unit
        # flush the leftover backlog
        final = float(rounds)
        while server.backlog:
            server.drain(now=final)
            final += 1.0
        return server

    def test_trickle_p95_bounded_under_burst(self):
        server = self.run_scenario(quantum=2048)
        trickle_p95 = server.session("trickle").telemetry.percentiles()[1]
        bursty_p95 = server.session("bursty").telemetry.percentiles()[1]
        # The trickle tenant is served in its arrival round: queueing
        # latency 0.5 time units, never inflated by the other tenant's
        # backlog...
        assert trickle_p95 <= 1.5
        # ...while the bursty tenant queues behind its own excess
        # arrivals (6 per round into a fair share of ~3).
        assert bursty_p95 > 5 * trickle_p95

    def test_both_tenants_keep_emitting(self):
        server = self.run_scenario(quantum=2048, rounds=20)
        assert server.session("trickle").telemetry.clouds == 20
        assert server.session("bursty").telemetry.clouds == 120


class TestStreamingCloseRule:
    """``serve()`` closes the shared window at the budget, at ``max_wait``
    or when the source goes quiet — the single-stream rule, per tenant."""

    CLOUDS = {
        "a": [make_cloud(n, seed=3600 + n) for n in (40, 52, 64, 44, 58, 66)],
        "b": [make_cloud(n, seed=3700 + n) for n in (42, 56, 60, 46, 50, 62)],
    }

    def serve(self, *, max_clouds, max_wait, gap=0.0, **kwargs):
        """Interleave both tenants' clouds ``gap`` seconds apart; returns
        ``(merged report, elapsed seconds)`` after checking parity."""

        def source():
            for pair in zip(*self.CLOUDS.values()):
                for name, cloud in zip(self.CLOUDS, pair):
                    yield name, cloud
                    time.sleep(gap)

        engine = BatchExecutor("kdtree", block_size=16)
        with MultiTenantServer(
            engine,
            [TenantSpec(name, PIPELINE) for name in self.CLOUDS],
            window=WindowConfig(max_clouds=max_clouds, max_wait=max_wait),
            **kwargs,
        ) as server:
            started = time.perf_counter()
            results = list(server.serve(source()))
            elapsed = time.perf_counter() - started
            assert server.backlog == 0
            reports = server.reports(elapsed)
        TestCrossTenantParity().assert_tenant_parity(self.CLOUDS, results)
        return reports, elapsed

    def test_slow_source_closes_idle(self):
        reports, elapsed = self.serve(max_clouds=16, max_wait=5.0, gap=0.04)
        for report in reports.values():
            assert report.windows >= 2
            assert report.idle_windows == report.windows
            assert report.timeout_windows == 0
        # 0.48 s of source gaps; waiting out one window would take 5 s.
        assert elapsed < 2.5

    def test_max_wait_still_caps_the_window(self, monkeypatch):
        monkeypatch.setattr(inbox, "IDLE_GRACE", 1.0)
        reports, _ = self.serve(max_clouds=16, max_wait=0.02, gap=0.04)
        assert sum(r.timeout_windows for r in reports.values()) >= 1

    def test_fast_source_fills_the_budget(self):
        reports, _ = self.serve(max_clouds=4, max_wait=5.0)
        for report in reports.values():
            # 12 requests, 4 a round, 2 of each tenant in every round.
            assert report.windows == 3
            assert report.mean_occupancy == 0.5
            assert report.timeout_windows == report.idle_windows == 0

    def test_backlog_carries_over_without_waiting(self):
        """A quantum below every cloud's cost admits about one cloud per
        tenant per round, so each window leaves a backlog behind: the
        next one must start from it (no blocking for a first arrival,
        none at all once the source has ended) and drain it to the end."""
        reports, elapsed = self.serve(
            max_clouds=4, max_wait=5.0, quantum_points=30.0
        )
        for report in reports.values():
            assert report.clouds == 6
            assert report.windows > 3  # fewer than the budget per round
            assert report.timeout_windows == 0
        assert elapsed < 2.5
