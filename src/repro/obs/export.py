"""Trace exporters and the per-stage time summarizer.

Two on-disk forms of a drained span list:

- **Chrome ``trace_event`` JSON** (``.json``): complete-duration
  (``"ph": "X"``) events, microsecond timestamps rebased to the
  earliest span, loadable in Perfetto / ``chrome://tracing``.  Span
  lineage rides in ``args`` (``trace``/``span``/``parent`` ids) so the
  file round-trips through :func:`load_trace`.
- **JSONL span log** (``.jsonl``): one span dict per line, append-
  friendly and trivially greppable.

:func:`summarize` turns either file back into a per-stage breakdown:
each span is charged its *self time* (duration minus the sum of its
children's durations, clamped at zero), so the self times of one trace
tree sum to exactly the root span's duration and the stage total over
a file matches the traced wall time — the property ``repro trace
summarize`` asserts as its coverage check.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .trace import Span

__all__ = [
    "StageRow",
    "TraceSummary",
    "chrome_events",
    "load_trace",
    "stage_of",
    "summarize",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]


def stage_of(name: str) -> str:
    """Map a span name onto a reporting stage.

    Per-op spans keep their own row (``op.fps`` vs ``op.knn`` is the
    interesting split); build/patch/transport/queueing aggregate.  A
    request span's *self* time — pipe latency plus the worker's queue —
    is queueing by definition: nothing else was running on its behalf.
    """
    if name.startswith("op."):
        return name
    if name.startswith("model."):
        # Network-pipeline spans keep their own rows too: model.sa1 vs
        # model.fp1 is the split an inference trace is read for.
        return name
    if name == "partition.build":
        return "build"
    if name == "partition.patch":
        return "patch"
    if name == "shard.serialize" or name.startswith("transport."):
        return "transport"
    if name in ("serve.wait", "serve.request"):
        return "queueing"
    if name.startswith(("engine.", "serve.", "shard.")):
        return "engine"
    return "other"


# -- writers ----------------------------------------------------------------


def chrome_events(spans: Sequence[Span]) -> list[dict]:
    """Spans as Chrome ``trace_event`` dicts (ts/dur in microseconds)."""
    if not spans:
        return []
    epoch = min(s.start for s in spans)
    events: list[dict] = []
    for pid in sorted({s.pid for s in spans}):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro pid {pid}"},
            }
        )
    for s in spans:
        events.append(
            {
                "name": s.name,
                "cat": stage_of(s.name),
                "ph": "X",
                "ts": (s.start - epoch) * 1e6,
                "dur": s.duration * 1e6,
                "pid": s.pid,
                "tid": s.tid,
                "args": {
                    "trace": s.trace_id,
                    "span": s.span_id,
                    "parent": s.parent_id,
                    **s.attrs,
                },
            }
        )
    return events


def write_chrome_trace(spans: Sequence[Span], path: str) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"traceEvents": chrome_events(spans), "displayTimeUnit": "ms"},
            fh,
        )
        fh.write("\n")
    return len(spans)

def write_jsonl(spans: Sequence[Span], path: str) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(
                json.dumps(
                    {
                        "name": s.name,
                        "trace": s.trace_id,
                        "span": s.span_id,
                        "parent": s.parent_id,
                        "start": s.start,
                        "end": s.end,
                        "pid": s.pid,
                        "tid": s.tid,
                        "attrs": s.attrs,
                    }
                )
            )
            fh.write("\n")
    return len(spans)


def write_trace(spans: Sequence[Span], path: str) -> int:
    """Write spans in the format implied by the file extension."""
    if path.endswith(".jsonl"):
        return write_jsonl(spans, path)
    return write_chrome_trace(spans, path)


# -- loader -----------------------------------------------------------------


def load_trace(path: str) -> list[Span]:
    """Read spans back from either exporter's output."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if not stripped:
        return []
    # Both formats start with "{": a Chrome file is one JSON document
    # with a traceEvents key, a span log is one document per line.
    try:
        doc = json.loads(stripped)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "traceEvents" in doc:
        return _from_chrome(doc)
    spans = []
    for line in stripped.splitlines():
        line = line.strip()
        if not line:
            continue
        d = json.loads(line)
        spans.append(
            Span(
                d["name"], d["trace"], d["span"], d["parent"],
                d["start"], d["end"], d["pid"], d["tid"], d.get("attrs", {}),
            )
        )
    return spans


def _from_chrome(doc: dict) -> list[Span]:
    spans = []
    for event in doc.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        trace_id = args.pop("trace", 0)
        span_id = args.pop("span", 0)
        parent_id = args.pop("parent", 0)
        start = event["ts"] / 1e6
        spans.append(
            Span(
                event["name"], trace_id, span_id, parent_id,
                start, start + event["dur"] / 1e6,
                event.get("pid", 0), event.get("tid", 0), args,
            )
        )
    return spans


# -- summarizer -------------------------------------------------------------


@dataclass(frozen=True)
class StageRow:
    stage: str
    spans: int
    seconds: float
    share: float  # of the stage total


@dataclass(frozen=True)
class TraceSummary:
    rows: tuple[StageRow, ...]
    stage_seconds: float  # sum of per-span self times
    wall_seconds: float  # sum of root-span durations
    traces: int

    @property
    def coverage(self) -> float:
        """Stage total as a fraction of traced wall time (≈1.0)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.stage_seconds / self.wall_seconds


def summarize(spans: Iterable[Span]) -> TraceSummary:
    """Per-stage self-time breakdown of a span set.

    Spans whose parent is absent from the set count as roots (their
    whole subtree's time re-aggregates under them, so totals stay
    consistent even for partially sampled files).
    """
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}
    child_seconds: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent_id and s.parent_id in by_id:
            child_seconds[s.parent_id] += s.duration
    stage_seconds: dict[str, float] = defaultdict(float)
    stage_spans: dict[str, int] = defaultdict(int)
    wall = 0.0
    traces = 0
    for s in spans:
        self_seconds = max(0.0, s.duration - child_seconds.get(s.span_id, 0.0))
        stage = stage_of(s.name)
        stage_seconds[stage] += self_seconds
        stage_spans[stage] += 1
        if not (s.parent_id and s.parent_id in by_id):
            wall += s.duration
            traces += 1
    total = sum(stage_seconds.values())
    rows = tuple(
        StageRow(
            stage,
            stage_spans[stage],
            seconds,
            seconds / total if total > 0.0 else 0.0,
        )
        for stage, seconds in sorted(
            stage_seconds.items(), key=lambda kv: kv[1], reverse=True
        )
    )
    return TraceSummary(rows, total, wall, traces)
