"""Run the ``bench_*.py`` regenerators with or without pytest-benchmark.

With the plugin installed its ``benchmark`` fixture times each call as
usual.  Without it, this file registers a plain ``benchmark`` fixture
that calls the function once and returns its result, so every bench
still regenerates its artifact and checks its asserts.
"""

import pytest


class _CallOnce:
    """The slice of pytest-benchmark's fixture the benches use."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        return fn(*args, **(kwargs or {}))


def pytest_configure(config):
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(_Fallback(), "benchmark-fallback")


class _Fallback:
    @pytest.fixture
    def benchmark(self):
        return _CallOnce()
