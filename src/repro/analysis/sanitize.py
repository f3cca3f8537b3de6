"""Runtime resource sanitizer: a pytest plugin enforcing clean teardown.

Loaded for the whole suite via ``-p repro.analysis.sanitize`` (see
``pytest.ini``).  Around every test it snapshots the process's
concurrency/resource surface and fails the test if anything new is
still alive once the test *and its fixtures* have torn down:

- **threads** — serve pullers, shard sender threads;
- **child processes** — engine shards;
- **/dev/shm segments** — shared-memory arenas that were never unlinked.

This promotes PR 7's ad-hoc "no leaked shm" assertions into a
harness-wide invariant: any test that acquires a resource must release
it, which is exactly the REP004 contract checked statically by
``repro lint``.  The static rule catches resources that provably never
escape; this plugin catches the laundered ones at runtime.

Objects dropped without ``close()`` may release their resources from a
GC finalizer, so the leak check runs ``gc.collect()`` inside its grace
loop before declaring a leak — tests are required to *release* resources, not
to micromanage collection.  Genuinely stuck threads, live children, and
still-linked segments survive the grace period and fail the test.

Opt-outs, sparingly: mark a test ``@pytest.mark.no_sanitize`` when it
deliberately leaks (e.g. to exercise this plugin itself).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import threading
import time

import pytest

from .. import obs

__all__ = [
    "GRACE_SECONDS",
    "extra_shm_segments",
    "extra_threads",
    "live_children",
    "shm_segments",
]

#: How long a test's stragglers get to finish dying before we call leak.
#: Puller/sender threads exit within one 50 ms poll of their stop event;
#: GC-driven finalizers need a collection pass plus a moment.
GRACE_SECONDS = 2.0

_SHM_DIR = "/dev/shm"
#: Segment name prefixes we account for: python's own (psm_ on POSIX,
#: wnsm_ historically) and this repo's named arenas (repro-).
_SHM_PREFIXES = ("psm_", "wnsm_", "repro-")


def shm_segments() -> set[str]:
    """Shared-memory segments currently linked on this host."""
    if not os.path.isdir(_SHM_DIR):
        return set()
    return {
        name for name in os.listdir(_SHM_DIR)
        if name.startswith(_SHM_PREFIXES)
    }


def _threads() -> set[threading.Thread]:
    return set(threading.enumerate())


def extra_threads(baseline: set[threading.Thread]) -> list[str]:
    """Names of live threads that did not exist at the baseline."""
    return sorted(
        t.name for t in _threads() - baseline if t.is_alive()
    )


def live_children(baseline: set[int]) -> list[str]:
    """Child processes alive now that were not alive at the baseline
    (calling ``active_children`` also reaps finished ones)."""
    return sorted(
        f"{p.name}(pid={p.pid})"
        for p in multiprocessing.active_children()
        if p.is_alive() and p.pid not in baseline
    )


def extra_shm_segments(baseline: set[str]) -> list[str]:
    return sorted(shm_segments() - baseline)


def _snapshot():
    return {
        "threads": _threads(),
        "children": {p.pid for p in multiprocessing.active_children()},
        "shm": shm_segments(),
    }


def _leaks(base) -> dict[str, list[str]]:
    report = {
        "threads": extra_threads(base["threads"]),
        "children": live_children(base["children"]),
        "shm": extra_shm_segments(base["shm"]),
    }
    return {kind: names for kind, names in report.items() if names}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "no_sanitize: skip the post-test thread/process/shm leak check "
        "(for tests that leak deliberately)",
    )


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_setup(item):
    # Snapshot before any fixture runs, so fixture-acquired resources
    # are accounted to the test that requested them.
    item.stash[_BASELINE_KEY] = _snapshot()
    return (yield)


_BASELINE_KEY = pytest.StashKey()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item, nextitem):
    # The wrapped (inner) impls run the actual fixture teardown; only
    # after they finish does the leak accounting make sense.
    result = yield
    baseline = item.stash.get(_BASELINE_KEY, None)
    if baseline is None or item.get_closest_marker("no_sanitize"):
        return result
    leaks = _leaks(baseline)
    deadline = obs.now() + GRACE_SECONDS
    while leaks and obs.now() < deadline:
        # Dropped-not-closed engines free their pools via GC finalizers;
        # stopping threads need a poll tick to notice their event.
        gc.collect()
        time.sleep(0.05)
        leaks = _leaks(baseline)
    if leaks:
        detail = "; ".join(
            f"{kind}: {', '.join(names)}" for kind, names in sorted(leaks.items())
        )
        pytest.fail(
            f"resource sanitizer: test left live resources behind — {detail}. "
            "Close/join what the test acquired (context managers preferred); "
            "mark @pytest.mark.no_sanitize only for deliberate leaks.",
            pytrace=False,
        )
    return result
