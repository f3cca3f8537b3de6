"""Spans recorded from outside the program, for the traced pass only.

The benchmark wraps the boundaries it can reach without editing
``src/``: bound methods of the server and engine instances it built, and
module attributes the program looks up at call time.  Each span keeps
its name, wall start/end, the CPU time of its own thread, its parent and
a request id.  Spans live in per-thread lists and are written out once,
when the pass ends.

A layer's time is its spans' *self* time on the thread-CPU clock:
duration minus the part covered by child spans.  The CPU clock is used
because the servers run a puller thread beside the serving thread — wall
durations of two runnable threads double-count under the GIL, and a
thread blocked on its queue or pipe (waiting for the source or a shard)
accrues no CPU time, so waiting drops out without wrapping the stdlib.
Summed over all spans the self times should equal the CPU time of the
process; :func:`summarize` reports that ratio as the coverage.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import ExitStack, contextmanager

__all__ = ["Recorder", "instrument", "instrument_threads", "self_times",
           "summarize"]

_NAME, _T0, _T1, _C0, _C1, _PARENT, _REQ, _NOTE = range(8)


class Recorder:
    """In-memory span store; one list and one open-span stack per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: dict[int, list] = {}

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self.threads[threading.get_ident()] = state[0]
        return state

    def begin(self, name: str, req=None) -> list:
        spans, stack = self._state()
        parent = stack[-1] if stack else -1
        stack.append(len(spans))
        span = [name, time.perf_counter(), 0.0, time.thread_time(), 0.0,
                parent, req, None]
        spans.append(span)
        return span

    def end(self, span: list, note: dict | None = None) -> None:
        """Close ``span``.  ``note`` holds what only the result told
        (counts, outcome); its ``name`` entry, if any, renames the span."""
        span[_C1] = time.thread_time()
        span[_T1] = time.perf_counter()
        if note:
            span[_NAME] = note.pop("name", span[_NAME])
            span[_NOTE] = note
        self._local.state[1].pop()

    def all_spans(self):
        """``(thread id, spans)`` per recording thread."""
        with self._lock:
            return list(self.threads.items())

    def write_chrome(self, path) -> int:
        """Write the spans in Chrome ``trace_event`` format; returns the
        number of events."""
        pid = os.getpid()
        events = []
        for tid, spans in self.all_spans():
            for span in spans:
                args = {"cpu_us": (span[_C1] - span[_C0]) * 1e6}
                if span[_REQ] is not None:
                    args["req"] = span[_REQ]
                if span[_NOTE]:
                    args.update(span[_NOTE])
                events.append({
                    "name": span[_NAME], "ph": "X", "pid": pid, "tid": tid,
                    "ts": span[_T0] * 1e6,
                    "dur": (span[_T1] - span[_T0]) * 1e6,
                    "args": args,
                })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events)


def self_times(spans: list) -> list[float]:
    """Self CPU seconds of each span of one thread: its CPU duration
    minus that of its direct children."""
    own = [span[_C1] - span[_C0] for span in spans]
    for span in spans:
        if span[_PARENT] >= 0:
            own[span[_PARENT]] -= span[_C1] - span[_C0]
    return own


def summarize(recorder: Recorder, process_cpu: float) -> dict:
    """Per span name: count, total and self CPU seconds and the sums of
    the spans' numeric notes; plus coverage (sum of self times over the
    CPU time the process spent)."""
    layers: dict[str, dict] = {}
    total = 0.0
    for _, spans in recorder.all_spans():
        for span, own in zip(spans, self_times(spans)):
            row = layers.setdefault(
                span[_NAME], {"spans": 0, "cpu_s": 0.0, "self_s": 0.0}
            )
            row["spans"] += 1
            row["cpu_s"] += span[_C1] - span[_C0]
            row["self_s"] += own
            total += own
            for key, value in (span[_NOTE] or {}).items():
                row[key] = row.get(key, 0) + value
    return {
        "layers": layers,
        "self_total_s": total,
        "process_cpu_s": process_cpu,
        "coverage": total / process_cpu if process_cpu > 0 else 0.0,
    }


# -- wrapping ----------------------------------------------------------------


def _replace(stack: ExitStack, owner, attr: str, make):
    """Swap ``owner.attr`` for ``make(original)`` until ``stack`` closes.

    A name the program no longer has is skipped: its time then stays
    with the enclosing span instead of breaking the benchmark.
    """
    original = getattr(owner, attr, None)
    if original is None:
        return
    own = vars(owner).get(attr, stack)  # `stack` = "not set on the owner"
    setattr(owner, attr, make(original))
    if own is stack:
        stack.callback(delattr, owner, attr)
    else:
        stack.callback(setattr, owner, attr, own)


def _call(recorder: Recorder, name, note=None, before=None):
    """Wrapper factory for plain calls.  ``name`` is a string or a
    function of the call's positional arguments; ``note(args, out)``
    returns a dict stored on the span (or ``None``); ``before(*args)``
    runs ahead of the span."""
    def make(original):
        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            span = recorder.begin(name if isinstance(name, str) else name(*args))
            out = None
            try:
                out = original(*args, **kwargs)
                return out
            finally:
                recorder.end(span, note(args, out) if note else None)
        return traced
    return make


def _generator(recorder: Recorder, name: str, req_of=None):
    """Wrapper factory for generator functions: one span per resumption,
    so time spent in the consumer between items is not charged."""
    def make(original):
        def traced(*args, **kwargs):
            return trace_iter(recorder, original(*args, **kwargs), name, req_of)
        return traced
    return make


def trace_iter(recorder: Recorder, iterable, name: str, req_of=None):
    """Iterate ``iterable`` with one ``name`` span around each ``next``;
    ``req_of(item)`` labels the span with the request it produced."""
    iterator = iter(iterable)
    while True:
        span = recorder.begin(name)
        try:
            item = next(iterator)
            if req_of is not None:
                span[_REQ] = req_of(item)
        except StopIteration:
            return
        finally:
            recorder.end(span)
        yield item


def _acquire_note(args, out):
    if out is None:
        return None
    return {"name": "cache.acquire." + out[1], "points": len(args[0])}


def _window_note(args, out):
    if out is None:
        return None
    plan = out[1]
    return {"clouds": len(args[0]), "buckets": plan.buckets,
            "fused": plan.fused_clouds, "singletons": plan.singleton_clouds}


@contextmanager
def instrument_threads(recorder: Recorder):
    """Charge the router's per-shard sender threads (pickling and pipe
    writes) to ``router.send``.  The router reads the thread target when
    it is built, so this must be entered before the server exists; the
    other wrappers go on afterwards, when the shard workers have already
    forked and stay untouched."""
    import repro.shard.router as router

    with ExitStack() as stack:
        _replace(stack, router, "_send_loop", _call(recorder, "router.send"))
        yield


@contextmanager
def instrument(recorder: Recorder, server, on_window=None):
    """Wrap every reachable layer boundary of ``server`` for one pass.

    ``on_window(items)`` is called at the start of each
    ``execute_window`` (the paced pass uses it to time pull → execute).
    """
    import repro.core.dispatch as dispatch
    import repro.geometry.ops as exact_ops
    import repro.infer as infer
    import repro.infer.fused as fused
    import repro.runtime.executor as executor

    with ExitStack() as stack:
        def patch(owner, attr, name, note=None, before=None):
            _replace(stack, owner, attr, _call(recorder, name, note, before))

        layer, req_of = {
            "WindowedServer": ("window", lambda r: f"t0:{r.index}"),
            "MultiTenantServer": ("tenancy", lambda r: f"{r.tenant}:{r.seq}"),
            "ShardRouter": ("router", lambda r: f"{r.stream}:{r.seq}"),
        }[type(server).__name__]
        _replace(stack, server, "serve",
                 _generator(recorder, layer + ".serve", req_of))
        patch(server, "drain", layer + ".drain")
        patch(server, "submit", layer + ".submit")
        _replace(stack, server, "pump", _generator(recorder, layer + ".pump"))

        engine = getattr(server, "engine", None)
        if engine is not None:
            patch(engine, "execute_window", "engine.window", _window_note,
                  before=None if on_window is None else
                  lambda items, pipeline: on_window(items))
            patch(engine.cache, "acquire", "cache.acquire", _acquire_note)
            patch(engine.cache, "acquire_ragged", "cache.ragged_layout")

        patch(dispatch, "run_op", lambda op, *rest: "op." + op)
        patch(dispatch, "run_build", "partition.run_build")
        for module in (executor, fused):
            patch(module, "fps_on_layout", "op.fps")
            patch(module, "ball_query_on_layout", "op.ball_query")
            patch(module, "knn_on_layout", "op.knn")
        patch(exact_ops, "gather_features", "op.gather")
        patch(infer, "run_fused", "model.fused")
        patch(infer, "run_model", "model.forward")
        yield
