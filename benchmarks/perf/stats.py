"""Order statistics shared by the harness, the self-tests and compare.py.

Every reported timing is a median with its quartiles; a tail percentile
is only reported when at least :data:`TAIL_MIN_BEYOND` samples lie
beyond it (:func:`require_tail`; choosing-metrics guide, section 1).  Quartiles use
``statistics.quantiles(values, n=4)`` so the spread printed here is the
same number the acceptance driver computes.
"""

from __future__ import annotations

import math
import statistics

__all__ = [
    "TAIL_MIN_BEYOND",
    "percentile",
    "quartiles",
    "require_tail",
    "summary",
]

#: Samples that must lie beyond a tail percentile for it to be reported.
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated ``p``-th percentile (``0 <= p <= 100``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def require_tail(samples: int, p: float) -> None:
    """Refuse the ``p``-th percentile of ``samples`` values when fewer
    than :data:`TAIL_MIN_BEYOND` of them lie beyond it."""
    beyond = samples * (100.0 - p) / 100.0
    if beyond < TAIL_MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {samples} samples leaves {beyond:.1f} beyond it; "
            f"need >= {TAIL_MIN_BEYOND} (serve more requests or lower the "
            "percentile)"
        )


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values) -> dict:
    """Median, quartiles, spread and sample count of one metric's runs."""
    q1, q2, q3 = quartiles(values)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else 0.0,
        "n": len(values),
    }
