"""Compare two BENCH documents: ``compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two same-commit
sets), ``B`` the candidate.  One row per workload and end-to-end metric:
both medians with their quartiles, the ratio ``B / A`` with its base,
and a verdict —

- ``regressed``: B's median is worse than A's by more than the metric's
  bound;
- ``unresolved``: not regressed, but the quartile spread of either side
  exceeds the bound and the two sets of runs overlap, so "no change"
  cannot be claimed;
- ``ok`` otherwise.

Exits 1 on any regression or any rise in the share of failed requests.
"""

from __future__ import annotations

import json
import sys

import stats

__all__ = ["compare", "main", "verdict"]


def verdict(base: list[float], cand: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, worsening)`` of one metric; ``worsening`` is the share
    of the base median by which the candidate median is worse."""
    a, b = stats.summary(base), stats.summary(cand)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / a["median"]
    if worse > bound:
        return "regressed", worse
    apart = max(cand) < min(base) or min(cand) > max(base)
    if max(a["spread"], b["spread"]) > bound and not apart:
        return "unresolved", worse
    return "ok", worse


def _values(entry: dict, metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in entry["runs"]]


def _failed_share(entry: dict) -> float:
    attempted = sum(run["attempted"] for run in entry["runs"])
    return sum(run["failed"] for run in entry["runs"]) / attempted


def compare(base: dict, cand: dict) -> tuple[list[dict], bool]:
    """Rows for every workload x metric both documents hold, and whether
    the comparison passes.  Units, directions and bounds are the base's."""
    rows = []
    passed = True
    for name, a_entry in base["workloads"].items():
        b_entry = cand["workloads"].get(name)
        if b_entry is None:
            continue
        for metric, (unit, better, bound) in base["end_to_end"].items():
            a_vals, b_vals = _values(a_entry, metric), _values(b_entry, metric)
            status, worse = verdict(a_vals, b_vals, better, bound)
            a, b = stats.summary(a_vals), stats.summary(b_vals)
            rows.append({
                "workload": name, "metric": metric, "unit": unit,
                "base": a, "cand": b, "ratio": b["median"] / a["median"],
                "bound": bound, "worse": worse, "verdict": status,
            })
            passed &= status != "regressed"
        a_failed, b_failed = _failed_share(a_entry), _failed_share(b_entry)
        status = "regressed" if b_failed > a_failed else "ok"
        rows.append({
            "workload": name, "metric": "failed_share", "unit": "fraction",
            "base": {"median": a_failed}, "cand": {"median": b_failed},
            "bound": 0.0, "verdict": status,
        })
        passed &= status == "ok"
    return rows, passed


def _cell(side: dict) -> str:
    if "q1" not in side:
        return f"{side['median']:.4g}"
    return f"{side['median']:.4g} [{side['q1']:.4g}, {side['q3']:.4g}]"


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':14} {'metric':20} {'A median [q1, q3]':30} "
             f"{'B median [q1, q3]':30} {'B/A':>24}  verdict"]
    for row in rows:
        ratio = (
            f"{row['ratio']:.3f}x of {row['base']['median']:.4g} {row['unit']}"
            if "ratio" in row else ""
        )
        lines.append(
            f"{row['workload']:14} {row['metric']:20} {_cell(row['base']):30} "
            f"{_cell(row['cand']):30} {ratio:>24}  {row['verdict']}"
            + (f" (bound {row['bound']:.0%})" if row["verdict"] != "ok" else "")
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(args[0]) as fh:
        base = json.load(fh)
    with open(args[1]) as fh:
        cand = json.load(fh)
    rows, passed = compare(base, cand)
    print(render(rows))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
