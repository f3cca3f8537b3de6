"""The serving benchmark: one command, every metric by name.

    python3 benchmarks/perf/run.py --workload roi_window --seed 1 \\
        --seconds 20 --trace 0

runs one workload and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without ``--workload`` it runs all four (``--repeat N`` times each, on
seeds ``seed .. seed+N-1``) and writes ``out/BENCH_<git-sha>.json``.

A run generates its inputs from ``--seed``, wire-encodes them once, then
serves them in :data:`workloads.ROUNDS` rounds.  Each round is a fresh
child process that warms up, runs one firehose pass and one paced pass
(see ``harness.py``) and reports; every value printed is the median over
the rounds.  See ``README.md`` for the method and the metric tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the servers decide how cores are used, and shard
# workers inherit this.  Must be set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    # Measure this checkout's program or nothing: never a copy of
    # `repro` that happens to be importable from elsewhere.
    sys.exit(f"run.py: no program to measure at {SRC / 'repro'}")
sys.path.insert(0, str(SRC))

import harness  # noqa: E402
import metrics  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402

OUT = HERE / "out"

#: Share of the firehose stream served (from another seed) as warm-up.
WARM_SHARE = 0.05


#: How long a pass process's descendants get to end by themselves once
#: it has exited, before they are killed.
REAP_GRACE_S = 10.0


def adopt_orphans() -> None:
    """Make this process the parent of every orphaned descendant.

    A pass process starts helpers that outlive it by a moment (shard
    workers, and the ``multiprocessing`` resource tracker, which only
    ends when its parent's pipe closes).  As a "child subreaper" this
    process inherits them instead of pid 1, so :func:`_reap` can wait
    for each one: a run ends with no process left behind, zombies
    included.
    """
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _reap(group: int) -> None:
    """Wait until every child of this process has ended; kill what is
    left of process group ``group`` after :data:`REAP_GRACE_S`."""
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child left
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass
            deadline = float("inf")
        time.sleep(0.005)


def _child(config: dict) -> dict:
    """Run one pass process (or the probes) in a process group of its
    own, wait for it and everything it started, and return what it
    printed."""
    config["spawned_at"] = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(config)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            # Interrupted: end the whole group.  The resource tracker
            # ignores SIGTERM and unlinks the arenas the others leave.
            try:
                os.killpg(proc.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        _reap(proc.pid)
    if proc.returncode != 0:
        raise RuntimeError(
            f"pass process exited {proc.returncode}:\n{err[-2000:]}"
        )
    return json.loads(out.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the contract result plus detail."""
    workload = wl.WORKLOADS[name]
    firehose, paced = wl.pass_sizes(workload, seconds)
    warm = max(workload.window[0], int(firehose * WARM_SHARE))
    tmp = OUT / f"tmp_{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        started = time.perf_counter()
        wires = {}
        for kind, count, stream_seed in (
            ("firehose", firehose, 3 * seed),
            ("paced", paced, 3 * seed + 1),
            ("warm", warm, 3 * seed + 2),
        ):
            wires[kind] = str(tmp / f"{kind}.npy")
            wl.write_wire(workload, count, stream_seed, wires[kind])
        generate_s = time.perf_counter() - started

        def spec(mode, index=0, **extra):
            # Each round draws its own arrival schedule and parity
            # sample; the streams are the same in every round.
            return dict(mode=mode, wire=wires[mode],
                        count=firehose if mode == "firehose" else paced,
                        seed=seed * wl.ROUNDS + index, **extra)

        base = dict(workload=name, warm=wires["warm"])
        if not trace:
            rounds = [
                _child({**base, "passes": [
                    spec("firehose", index, parity=index == 0),
                    spec("paced", index, parity=index == 0),
                ]})
                for index in range(wl.ROUNDS)
            ]
            result = metrics.end_to_end(workload, rounds, generate_s)
        else:
            OUT.mkdir(exist_ok=True)
            # Plain and traced firehose passes alternate (A B B A) so
            # drift does not read as tracing overhead.
            passes = [
                spec("firehose"),
                spec("firehose", instrument="bench",
                     trace_path=str(OUT / f"trace_{name}.json")),
                spec("firehose", instrument="bench"),
                spec("firehose"),
                spec("paced", instrument="bench",
                     trace_path=str(OUT / f"trace_{name}_paced.json")),
            ]
            if name == "roi_window":  # most spans per second: price obs here
                passes.append(spec("firehose", instrument="obs"))
            children = [_child({**base, "passes": [one]}) for one in passes]
            # The probes run in a child too (the arena probe starts a
            # resource tracker that only a parent can wait for).
            probed = _child({**base, "probe": wires["firehose"]})
            result = metrics.per_layer(workload, children, probed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result.update(workload=name, seed=seed, seconds=seconds, trace=int(trace))
    return result


def fingerprint() -> dict:
    """Where these numbers were measured."""
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "cpus": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def git_sha() -> str:
    done = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=HERE, capture_output=True, text=True, check=False,
    )
    return done.stdout.strip() if done.returncode == 0 else "nogit"


def run_all(seed: int, seconds: float, trace: bool, repeat: int) -> dict:
    """Every workload ``repeat`` times (plus one traced run each with
    ``trace``), summarised per workload and metric."""
    document = {
        "fingerprint": fingerprint(),
        "seconds": seconds,
        "rounds": wl.ROUNDS,
        "end_to_end": metrics.END_TO_END,
        "workloads": {},
    }
    for name, workload in wl.WORKLOADS.items():
        runs = [
            run_workload(name, seed + index, seconds, False)
            for index in range(repeat)
        ]
        entry = {
            "definition": wl.describe(workload),
            "pass_sizes": wl.pass_sizes(workload, seconds),
            "runs": runs,
            "end_to_end": {
                metric: {
                    **stats.summary([r["metrics"][metric]["value"] for r in runs]),
                    "unit": runs[0]["metrics"][metric]["unit"],
                }
                for metric in runs[0]["metrics"]
            },
        }
        if trace:
            entry["traced"] = run_workload(name, seed, seconds, True)
        document["workloads"][name] = entry
        print(f"{name}: " + ", ".join(
            f"{metric} {row['median']:.4g} {row['unit']} "
            f"(spread {row['spread']:.1%})"
            for metric, row in entry["end_to_end"].items()
        ), file=sys.stderr)
    return document


def contract_line(result: dict) -> str:
    return json.dumps({
        key: result[key] for key in ("correct", "attempted", "failed", "metrics")
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of one run, over all rounds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: runs per workload")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return harness.child_main(json.loads(args.child))
    adopt_orphans()
    # SIGTERM unwinds like an exception, so passes are reaped on it too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result["detail"]))
        print(contract_line(result))
        return 0 if result["correct"] else 1
    document = run_all(args.seed, args.seconds, bool(args.trace), args.repeat)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{document['fingerprint']['git_sha']}.json"
    path.write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(document))
    print(f"wrote {path}", file=sys.stderr)
    correct = all(
        run["correct"]
        for entry in document["workloads"].values()
        for run in entry["runs"] + [entry.get("traced", {"correct": True})]
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
