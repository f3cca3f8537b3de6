"""Fused-bucket planning: bin packing for the whole-cloud fusion scheduler.

One fused kernel invocation amortises its fixed costs over every cloud in
its bucket, so the scheduling question is a bin-packing problem: pack
clouds into as few, as full buckets as possible without violating the two
fusion feasibility constraints —

- ``max_points``: a bucket's total point count bounds the flat arrays one
  fused invocation materialises;
- ``max_spread``: the largest/smallest cloud-size ratio inside a bucket
  bounds how unlike the per-stage work shapes may get.

PR 3 shipped a greedy first-fit pass in ascending size order
(:func:`first_fit_buckets`, kept as the baseline); its failure mode is
closing a bucket as soon as one cloud does not fit, stranding clouds that
a later bucket could have hosted as buckets of one.
:func:`plan_buckets` replaces it with classic **best-fit-decreasing**:
clouds are placed largest-first, each into the feasible open bucket it
fills tightest, so large clouds anchor buckets early and small clouds
fill the gaps instead of being stranded behind a budget boundary.

Both planners are pure functions of the member list and the caps —
deterministic, no RNG, no clock — and bucket composition never affects
results (fusion is bit-identical to running every cloud alone), only
throughput.  Buckets come back in submission order (ordered by their
first member, members in input order) so schedules read naturally and
old greedy-era expectations keep holding where the plans agree.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

__all__ = [
    "WindowPlan",
    "cloud_points",
    "first_fit_buckets",
    "plan_buckets",
    "singleton_count",
]


def cloud_points(member) -> int:
    """Default size measure: ``len(member[1])`` — the executor's member
    tuples are ``(index, coords, features)``."""
    return len(member[1])


def singleton_count(buckets: Sequence[Sequence]) -> int:
    """Number of one-cloud buckets in a plan (clouds fused with nothing)."""
    return sum(1 for bucket in buckets if len(bucket) == 1)


@dataclass(frozen=True)
class WindowPlan:
    """Plan counters for one executed window (telemetry food).

    ``fused_clouds`` ran inside a multi-cloud fused bucket;
    ``singleton_clouds`` ran in buckets of one (the same fused body, with
    nothing to fuse with); ``buckets`` counts the multi-cloud fused
    invocations.  ``singleton_indices`` names the buckets-of-one clouds
    by their window item index so multi-tenant telemetry can attribute
    the split per tenant.
    """

    buckets: int = 0
    fused_clouds: int = 0
    singleton_clouds: int = 0
    singleton_indices: tuple[int, ...] = ()

    def __add__(self, other: "WindowPlan") -> "WindowPlan":
        """Aggregate the plans of one window's execution groups (a
        multi-tenant window runs one fused execution per pipeline)."""
        if not isinstance(other, WindowPlan):
            return NotImplemented
        return WindowPlan(
            buckets=self.buckets + other.buckets,
            fused_clouds=self.fused_clouds + other.fused_clouds,
            singleton_clouds=self.singleton_clouds + other.singleton_clouds,
            singleton_indices=self.singleton_indices + other.singleton_indices,
        )


def _order_plan(buckets: list[list[tuple[int, object]]]) -> list[list]:
    """Strip positions; members in input order, buckets by first member."""
    ordered = []
    for bucket in buckets:
        bucket.sort(key=lambda entry: entry[0])
        ordered.append(bucket)
    ordered.sort(key=lambda bucket: bucket[0][0])
    return [[member for _, member in bucket] for bucket in ordered]


def first_fit_buckets(
    members: Sequence,
    *,
    max_points: int | None = None,
    max_spread: float | None = None,
    size: Callable[[object], int] = cloud_points,
) -> list[list]:
    """The PR-3 greedy baseline: first-fit in ascending size order.

    Members are packed smallest-first (input position breaks ties); the
    open bucket closes as soon as admitting the next member would push
    its total past ``max_points`` or its size ratio past ``max_spread``.
    Kept as the comparison baseline for :func:`plan_buckets` — the
    best-fit plan must never strand more singletons than this one.
    """
    entries = sorted(
        enumerate(members), key=lambda entry: (size(entry[1]), entry[0])
    )
    buckets: list[list] = []
    current: list = []
    smallest = total = 0
    for pos, member in entries:
        n = size(member)
        over_budget = max_points is not None and total + n > max_points
        over_spread = max_spread is not None and n > smallest * max_spread
        if current and (over_budget or over_spread):
            buckets.append(current)
            current, total = [], 0
        if not current:
            smallest = n
        current.append((pos, member))
        total += n
    if current:
        buckets.append(current)
    return _order_plan(buckets)


def _best_fit_decreasing(
    entries: list[tuple[int, object, int]],
    max_points: int | None,
    max_spread: float | None,
) -> list[list[tuple[int, object]]]:
    """Best-fit-decreasing core: returns position-decorated buckets."""
    # Largest first; input position breaks ties so the plan is a pure
    # function of the member list.
    entries = sorted(entries, key=lambda entry: (-entry[2], entry[0]))
    bins: list[dict] = []
    for pos, member, n in entries:
        best = None
        for bin_ in bins:
            # Decreasing order makes the new member the bucket minimum,
            # so the spread check only needs the bucket maximum.
            if max_points is not None and bin_["total"] + n > max_points:
                continue
            if max_spread is not None and bin_["largest"] > n * max_spread:
                continue
            if best is None or bin_["total"] > best["total"]:
                best = bin_
        if best is None:
            bins.append({"total": n, "largest": n, "items": [(pos, member)]})
        else:
            best["total"] += n
            best["items"].append((pos, member))
    return [bin_["items"] for bin_ in bins]


def plan_buckets(
    members: Sequence,
    *,
    max_points: int | None = None,
    max_spread: float | None = None,
    size: Callable[[object], int] = cloud_points,
) -> list[list]:
    """Pack ``members`` into fused buckets by best-fit-decreasing.

    Every member lands in exactly one bucket.  A bucket with two or more
    members always respects both caps; a member that alone exceeds
    ``max_points`` still gets a bucket of its own (it must run somewhere,
    and a bucket of one handles any size).  The best-fit plan is
    compared against :func:`first_fit_buckets` and the one stranding
    fewer singletons wins (ties prefer best-fit, which packs tighter) —
    so the planner is never worse than the greedy pass it replaced, by
    construction.
    """
    if not members:
        return []
    entries = [(pos, member, size(member)) for pos, member in enumerate(members)]
    if any(n <= 0 for _, _, n in entries):
        raise ValueError("every member must have a positive size")
    best_fit = _order_plan(_best_fit_decreasing(entries, max_points, max_spread))
    greedy = first_fit_buckets(
        members, max_points=max_points, max_spread=max_spread, size=size
    )
    if singleton_count(greedy) < singleton_count(best_fit):
        return greedy
    return best_fit
