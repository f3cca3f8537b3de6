"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures: it computes
the series with the library, prints it (visible with ``pytest -s``), and
writes it to ``benchmarks/results/<name>.txt`` so the artefacts survive
the run.  The paper's numbers they are read against live in
``repro.analysis.validation.HEADLINE_CLAIMS``.
"""

from __future__ import annotations

import os
import time

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def best_time(fn, *, repeats: int = 3):
    """Run ``fn`` ``repeats`` times; return ``(best_seconds, last_result)``.

    Best-of-N is the standard defence against one-off scheduler noise when
    two implementations are compared on wall time; the result is returned
    so callers can assert on correctness as well as speed.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def emit(name: str, text: str) -> str:
    """Print a result block and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path
