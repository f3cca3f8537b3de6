"""Tests for the streaming-frames delta protocol: frame alignment,
rebuild-certificate soundness, updater reconstruction, and the partition
cache's reuse/patch/rebuild decisions.

The load-bearing guarantee is *soundness*: whenever the cache serves a
near-miss without a cold build, the served structure is either proven
bit-identical to a from-scratch rebuild (certificate reuse) or is the
deterministic product of the incremental updater — a valid partition of
exactly the new frame's points, validated before it leaves the cache.
Anything the protocol cannot prove falls back to a full rebuild, never
to a wrong structure.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import dispatch
from repro.core.config import FractalConfig
from repro.core.delta import (
    FrameDelta,
    PatchPolicy,
    attach_certificate,
    certificate_of,
    updater_from_certificate,
)
from repro.core.ragged import ragged_of
from repro.core.update import FractalUpdater
from repro.partition import get_partitioner
from repro.runtime import PartitionCache

STRATEGIES = ("fractal", "kdtree", "octree", "uniform")


def _cloud(n, seed):
    return np.random.default_rng(seed).normal(size=(n, 3))


def _jitter(coords, radius, seed):
    """Displace every point uniformly inside a ball of ``radius``."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=coords.shape)
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = radius * rng.random((len(coords), 1)) ** (1.0 / 3.0)
    return coords + dirs / norms * radii


def _assert_structures_equal(a, b):
    assert a.num_points == b.num_points
    assert a.num_blocks == b.num_blocks
    assert a.strategy == b.strategy
    for ba, bb in zip(a.blocks, b.blocks):
        assert np.array_equal(ba.indices, bb.indices)
    for sa, sb in zip(a.search_spaces, b.search_spaces):
        assert np.array_equal(sa, sb)


class TestFrameDelta:
    def test_pure_jitter(self):
        old = _cloud(50, 0)
        new = _jitter(old, 0.01, 1)
        delta = FrameDelta.between(old, new, motion_threshold=0.05)
        assert delta.pure_jitter
        assert delta.retained == 50
        assert delta.n_inserted == delta.n_deleted == 0
        assert 0.0 < delta.max_motion <= 0.01
        assert delta.churn == 0.0

    def test_tail_churn_is_trimmed_not_motion(self):
        old = _cloud(60, 0)
        new = _jitter(old, 0.001, 1)
        new[-8:] = _cloud(8, 2) + 50.0  # fresh returns, far from old tail
        delta = FrameDelta.between(old, new, motion_threshold=0.05)
        assert delta.retained == 52
        assert delta.n_deleted == 8 and delta.n_inserted == 8
        assert delta.max_motion <= 0.001  # churn rows excluded from motion
        assert delta.churn == pytest.approx(16 / 60)

    def test_unequal_sizes(self):
        old = _cloud(40, 0)
        new = np.concatenate([_jitter(old, 0.001, 1), _cloud(6, 2)])
        delta = FrameDelta.between(old, new, motion_threshold=0.05)
        assert (delta.retained, delta.n_inserted, delta.n_deleted) == (40, 6, 0)
        shrunk = FrameDelta.between(old, old[:30].copy(), 0.05)
        assert (shrunk.retained, shrunk.n_inserted, shrunk.n_deleted) == (30, 0, 10)

    def test_mid_frame_teleport_forces_rebuild_signal(self):
        old = _cloud(60, 0)
        new = old.copy()
        new[10] += 5.0  # teleport followed by retained rows: a real move
        delta = FrameDelta.between(old, new, motion_threshold=0.05)
        assert delta.retained == 60
        assert delta.max_motion > 0.05

    def test_exact_threshold_is_not_trimmed(self):
        old = _cloud(20, 0)
        old[-1] = 0.0  # pin so the displacement is exactly the literal
        new = old.copy()
        new[-1, 0] = 0.05  # displacement exactly == threshold
        delta = FrameDelta.between(old, new, motion_threshold=0.05)
        assert delta.retained == 20
        assert delta.max_motion == 0.05


class TestPatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="motion_threshold"):
            PatchPolicy(motion_threshold=-1.0)
        with pytest.raises(ValueError, match="max_churn"):
            PatchPolicy(max_churn=1.5)
        with pytest.raises(ValueError, match="candidates"):
            PatchPolicy(candidates=0)


class TestCertificates:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_attached_at_build_time(self, strategy):
        partitioner = get_partitioner(strategy, max_points_per_block=64)
        structure = partitioner(_cloud(300, 0))
        cert = certificate_of(structure)
        assert cert is not None
        assert cert.strategy == strategy

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_verifies_unchanged_coords(self, strategy):
        partitioner = get_partitioner(strategy, max_points_per_block=64)
        coords = _cloud(300, 3)
        structure = partitioner(coords)
        assert certificate_of(structure).verify(structure, coords.copy())

    @settings(max_examples=60, deadline=None)
    @given(
        strategy=st.sampled_from(STRATEGIES),
        n=st.integers(10, 500),
        seed=st.integers(0, 10_000),
        scale=st.sampled_from((1e-9, 1e-6, 1e-3, 1e-2, 1e-1)),
    )
    def test_soundness_verified_implies_rebuild_identity(
        self, strategy, n, seed, scale
    ):
        """The one property everything rests on: verify() == True must
        imply a from-scratch rebuild reproduces the structure bit for
        bit, at every jitter scale (False is always allowed)."""
        partitioner = get_partitioner(strategy, max_points_per_block=64)
        old = _cloud(n, seed)
        structure = partitioner(old)
        new = _jitter(old, scale, seed + 1)
        if certificate_of(structure).verify(structure, new):
            _assert_structures_equal(structure, partitioner(new))

    def test_crossed_split_plane_fails(self):
        partitioner = get_partitioner("kdtree", max_points_per_block=64)
        coords = _cloud(200, 5)
        structure = partitioner(coords)
        cert = certificate_of(structure)
        moved = coords.copy()
        # Teleport the x-minimum to the x-maximum: every x-split that
        # separated it is now crossed.
        moved[int(np.argmin(coords[:, 0]))] = coords[
            int(np.argmax(coords[:, 0]))
        ]
        assert not cert.verify(structure, moved)

    def test_attach_roundtrip(self):
        partitioner = get_partitioner("uniform", max_points_per_block=64)
        structure = partitioner(_cloud(50, 0))
        marker = object()
        attach_certificate(structure, marker)
        assert certificate_of(structure) is marker


class TestUpdaterReconstruction:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_reconstructed_updater_matches_fresh(self, seed):
        config = FractalConfig(threshold=64)
        partitioner = get_partitioner("fractal", max_points_per_block=64)
        coords = _cloud(500, seed)
        structure = partitioner(coords)
        rebuilt = updater_from_certificate(
            certificate_of(structure), structure, coords
        )
        fresh = FractalUpdater(coords, config)

        rng = np.random.default_rng(seed + 100)
        ops = [
            ("insert", _cloud(20, seed + 1) * 0.5),
            ("remove", rng.choice(500, size=15, replace=False).astype(np.int64)),
            ("move", rng.choice(np.arange(500, 520), size=10, replace=False)),
        ]
        for kind, arg in ops:
            if kind == "insert":
                assert np.array_equal(rebuilt.insert(arg), fresh.insert(arg))
            elif kind == "remove":
                rebuilt.remove(arg)
                fresh.remove(arg)
            else:
                targets = _cloud(len(arg), seed + 2) * 0.3
                rebuilt.move(arg, targets)
                fresh.move(arg, targets)
        s_a, live_a = rebuilt.structure()
        s_b, live_b = fresh.structure()
        _assert_structures_equal(s_a, s_b)
        assert np.array_equal(live_a, live_b)
        assert np.array_equal(rebuilt.coords(), fresh.coords())


class _StubPatcher:
    """A corrupted patcher: accepts every op, changes nothing."""

    def __init__(self, structure, coords, n):
        self._structure = structure
        self._coords = coords
        self._n = n

    def remove(self, ids):
        pass

    def move(self, ids, new_coords):
        pass

    def insert(self, coords):
        return np.arange(len(coords), dtype=np.int64)

    def structure(self):
        return self._structure, np.arange(self._n, dtype=np.int64)

    def coords(self):
        return self._coords


class TestCacheDeltaProtocol:
    def test_jitter_reuses_certified_structure(self):
        partitioner = get_partitioner("kdtree", max_points_per_block=64)
        cache = PartitionCache(partitioner, policy=PatchPolicy())
        old = _cloud(400, 0)
        s0, outcome0 = cache.acquire(old)
        new = _jitter(old, 1e-6, 1)
        s1, outcome1 = cache.acquire(new)
        assert (outcome0, outcome1) == ("cold", "reused")
        assert s1 is s0  # shared object, zero rebuild work
        _assert_structures_equal(s1, partitioner(new))  # and provably right
        assert cache.delta_reuses == 1 and cache.cold_builds == 1

    def test_warm_hit_still_warm(self):
        partitioner = get_partitioner("kdtree", max_points_per_block=64)
        cache = PartitionCache(partitioner, policy=PatchPolicy())
        coords = _cloud(100, 0)
        cache.acquire(coords)
        structure, outcome = cache.acquire(coords.copy())
        assert outcome == "warm"
        assert cache.hits == 1
        # The bool-returning compatibility surface agrees.
        _, was_cached = cache.get(coords)
        assert was_cached

    def test_churn_patches_fractal_incrementally(self):
        partitioner = get_partitioner("fractal", max_points_per_block=64)
        cache = PartitionCache(partitioner, policy=PatchPolicy())
        old = _cloud(500, 2)
        cache.acquire(old)
        new = _jitter(old, 1e-3, 3)
        new = np.concatenate([new[:-20], _cloud(20, 4) * 0.5])
        structure, outcome = cache.acquire(new)
        assert outcome == "patched"
        structure.validate()
        assert structure.num_points == len(new)

        # The patch is the deterministic product of the incremental
        # updater: replaying the same delta on a fresh updater built
        # from the original frame reproduces it bit for bit.
        reference = FractalUpdater(old, FractalConfig(threshold=64))
        reference.remove(np.arange(480, 500, dtype=np.int64))
        delta = FrameDelta.between(old, new, 0.1)
        reference.move(delta.moved, new[delta.moved])
        reference.insert(new[480:])
        ref_structure, _ = reference.structure()
        _assert_structures_equal(structure, ref_structure)
        assert cache.patches == 1

    def test_patched_structure_kernel_parity(self):
        partitioner = get_partitioner("fractal", max_points_per_block=64)
        cache = PartitionCache(partitioner, policy=PatchPolicy())
        old = _cloud(600, 5)
        cache.acquire(old)
        new = np.concatenate(
            [_jitter(old, 1e-3, 6)[:-30], _cloud(30, 7) * 0.5]
        )
        structure, outcome = cache.acquire(new)
        assert outcome == "patched"
        ragged_of(structure, new)  # build the CSR layout once
        outs = {
            kernel: dispatch.run_op(
                "fps", structure, new, 150, kernel=kernel
            )[0]
            for kernel in ("loop", "ragged")
        }
        assert np.array_equal(outs["loop"], outs["ragged"])

    def test_chained_patches(self):
        partitioner = get_partitioner("fractal", max_points_per_block=64)
        cache = PartitionCache(partitioner, policy=PatchPolicy())
        frame = _cloud(400, 8)
        cache.acquire(frame)
        outcomes = []
        rng = np.random.default_rng(9)
        for step in range(4):
            frame = np.concatenate(
                [_jitter(frame, 1e-3, 10 + step)[:-10],
                 rng.normal(size=(10, 3)) * 0.5]
            )
            structure, outcome = cache.acquire(frame)
            outcomes.append(outcome)
            structure.validate()
            assert structure.num_points == len(frame)
        assert all(o == "patched" for o in outcomes)

    def test_drift_threshold_boundary(self):
        policy = PatchPolicy(motion_threshold=0.05)
        partitioner = get_partitioner("fractal", max_points_per_block=64)

        # Exactly at the threshold: still qualifies for the delta path.
        cache = PartitionCache(partitioner, policy=policy)
        old = _cloud(300, 10)
        old[0] = 0.0  # pin so the displacement is exactly the literal
        cache.acquire(old)
        at = old.copy()
        at[0, 0] = 0.05
        _, outcome = cache.acquire(at)
        assert outcome in ("reused", "patched")

        # Just above (mid-frame, so it cannot be trimmed as churn): the
        # drift exceeds what the policy trusts — full rebuild.
        cache = PartitionCache(partitioner, policy=policy)
        cache.acquire(old)
        over = old.copy()
        over[0, 0] = 0.0501
        _, outcome = cache.acquire(over)
        assert outcome == "cold"
        assert cache.cold_builds == 2

    def test_excess_churn_rebuilds(self):
        policy = PatchPolicy(max_churn=0.1)
        partitioner = get_partitioner("fractal", max_points_per_block=64)
        cache = PartitionCache(partitioner, policy=policy)
        old = _cloud(200, 11)
        cache.acquire(old)
        new = np.concatenate([old[:-50], _cloud(50, 12)])  # 50% churn
        _, outcome = cache.acquire(new)
        assert outcome == "cold"

    def test_non_fractal_churn_rebuilds(self):
        # Only fractal structures have an incremental updater; churn on
        # kdtree must rebuild (jitter-only can still certificate-reuse).
        partitioner = get_partitioner("kdtree", max_points_per_block=64)
        cache = PartitionCache(partitioner, policy=PatchPolicy())
        old = _cloud(300, 13)
        cache.acquire(old)
        new = np.concatenate([old[:-10], _cloud(10, 14) + 30.0])
        _, outcome = cache.acquire(new)
        assert outcome == "cold"

    def test_corrupted_patch_falls_back_to_rebuild(self, monkeypatch):
        partitioner = get_partitioner("fractal", max_points_per_block=64)
        cache = PartitionCache(partitioner, policy=PatchPolicy())
        old = _cloud(300, 15)
        s0, _ = cache.acquire(old)

        monkeypatch.setattr(
            "repro.runtime.cache.updater_from_certificate",
            lambda cert, structure, coords: _StubPatcher(
                s0, old, len(old)
            ),
        )
        new = np.concatenate([_jitter(old, 1e-3, 16)[:-10], _cloud(10, 17)])
        structure, outcome = cache.acquire(new)
        # The stub's output fails the sanity gate (stale coordinates),
        # so the cache rebuilds instead of serving it.
        assert outcome == "cold"
        _assert_structures_equal(structure, partitioner(new))

    def test_no_policy_means_no_delta_path(self):
        partitioner = get_partitioner("kdtree", max_points_per_block=64)
        cache = PartitionCache(partitioner)
        old = _cloud(200, 18)
        cache.acquire(old)
        _, outcome = cache.acquire(_jitter(old, 1e-9, 19))
        assert outcome == "cold"
        assert cache.patches == 0 and cache.delta_reuses == 0

    def test_clear_resets_delta_counters(self):
        partitioner = get_partitioner("kdtree", max_points_per_block=64)
        cache = PartitionCache(partitioner, policy=PatchPolicy())
        old = _cloud(200, 20)
        cache.acquire(old)
        cache.acquire(_jitter(old, 1e-6, 21))
        assert cache.delta_reuses == 1
        cache.clear()
        assert cache.delta_reuses == 0 and cache.patches == 0
        assert cache.hits == 0 and cache.misses == 0

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(80, 400),
        seed=st.integers(0, 5_000),
        steps=st.integers(1, 4),
        churn=st.integers(0, 12),
        scale=st.sampled_from((1e-6, 1e-4, 1e-3)),
    )
    def test_frame_sequences_always_serve_valid_structures(
        self, n, seed, steps, churn, scale
    ):
        """Whatever mix of jitter/insert/delete arrives, every served
        structure is a validated partition of exactly the new frame, and
        cold + reused + patched accounts for every miss."""
        partitioner = get_partitioner("fractal", max_points_per_block=64)
        cache = PartitionCache(partitioner, policy=PatchPolicy())
        rng = np.random.default_rng(seed)
        frame = _cloud(n, seed)
        cache.acquire(frame)
        for step in range(steps):
            frame = _jitter(frame, scale, seed + step + 1)
            k = min(churn, len(frame) - 1)
            if k:
                frame = np.concatenate(
                    [frame[:-k], rng.normal(size=(k, 3))]
                )
            structure, outcome = cache.acquire(frame)
            assert outcome in ("warm", "reused", "patched", "cold")
            structure.validate()
            assert structure.num_points == len(frame)
        assert cache.misses == cache.cold_builds + cache.patches + cache.delta_reuses
