"""Seeded serving-shaped load generation + a streamable cloud wire format.

Serving traffic is nothing like a tidy benchmark batch: cloud sizes are
ragged, popular frames repeat exactly (stalled sensors, retried
requests, hot assets), and arrivals come in bursts rather than a steady
drip.  :func:`generate` produces exactly that shape from one seed, so
every serve benchmark, test, and CI smoke run sees the same stream.

Three traffic profiles stress different scheduler surfaces:

- ``uniform`` — sizes uniform in ``[min_points, max_points]`` (the PR-4
  shape);
- ``diurnal`` — the size band and the burst pacing drift sinusoidally
  over the stream (period ``drift_period`` clouds, amplitude
  ``drift_amplitude``), the daily rhythm a window must ride without a
  human retuning ``W``/``T``;
- ``adversarial`` — sizes crafted to defeat bin packing: "giants" just
  over half the fusion budget (no two share a bucket under
  ``max_points ≈ adversary_points``) interleaved with "dwarfs" whose
  size ratio to the giants exceeds ``adversary_spread`` (no bucket can
  legally hold both) — best-fit-decreasing strands nearly everything in
  buckets of one, the worst case the planner must absorb;
- ``frames`` — one simulated sensor: each frame is the previous frame
  with every point nudged inside a ball of radius ``frame_motion``
  (bounded per-point displacement) and a ``frame_churn`` fraction of
  the tail replaced by fresh returns — every new frame misses the
  partition cache, so the stream measures the cold path;
- ``hotset`` — asset-serving traffic: a fixed catalog of ``hot_assets``
  distinct clouds supplies a ``hot_rate`` fraction of requests (exact
  repeats, recency-free — every asset stays warm forever), the rest are
  one-off cold clouds.  When the catalog is bigger than one server's
  dedup window but smaller than a shard fleet's aggregate capacity,
  this is the workload where content-affine sharding wins;
- ``inference`` — model-serving traffic: uniform ragged sizes, but a
  ``corrupt_rate`` fraction of the fresh clouds passes through a
  randomly drawn corruption of :mod:`repro.datasets.corruptions`
  (jitter, dropout, occlusion, outliers — the robustness sweep a
  deployed perception model actually sees), each seeded from the stream
  position so the traffic stays deterministic.  The shape to pair with
  ``repro serve --model``.

Multi-tenant traffic comes from :func:`tenant_specs` (one seeded
rate/size mix per tenant) merged by :func:`generate_tenants` into a
single deterministic ``(tenant, cloud)`` arrival order.

The wire format is a plain concatenation of ``.npy`` records — one per
cloud — so ``repro loadgen | repro serve`` works over a pipe with no
framing protocol of its own: :func:`write_stream` emits records,
:func:`read_stream` consumes them incrementally (bounded memory, works
on non-seekable pipes) until EOF.  The multi-tenant variant interleaves
a zero-dimensional unicode record (the tenant tag) before each cloud:
:func:`write_tenant_stream` / :func:`read_tenant_stream`, the transport
of ``repro loadgen --tenants N | repro serve --tenants N``.
"""

from __future__ import annotations

import ast
import dataclasses
import heapq
import math
import time
from collections import deque
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..datasets import corrupt, corruption_names, load_cloud

__all__ = [
    "LoadSpec",
    "generate",
    "generate_tenants",
    "read_stream",
    "read_tenant_stream",
    "tenant_specs",
    "write_stream",
    "write_tenant_stream",
]

_MAGIC = b"\x93NUMPY"

_PROFILES = (
    "uniform", "diurnal", "adversarial", "frames", "hotset", "inference"
)


@dataclass(frozen=True)
class LoadSpec:
    """One seeded serving workload.

    Attributes:
        clouds: total frames to emit.
        min_points / max_points: cloud sizes are drawn from this
            (inclusive) range — the ragged-size dimension of the traffic.
        dup_rate: probability a frame is an exact repeat of a recent
            distinct frame (the dedup-able fraction of the stream).
        dup_window: repeats are drawn from the last this-many distinct
            frames (popularity is recency-biased in serving traffic).
        burst: frames per arrival burst; with ``interval > 0`` the
            generator sleeps between bursts to model paced sensors.
        interval: seconds between bursts (``0`` = firehose, no sleeping —
            what tests and CI use).
        dataset: synthetic dataset shapes are drawn from
            (:mod:`repro.datasets` names; ``lidar`` and ``s3dis`` require
            ``min_points >= 64``).
        seed: the one knob that fixes the whole stream.
        profile: ``uniform`` | ``diurnal`` | ``adversarial`` (see module
            docstring).
        drift_period: diurnal cycle length in clouds.
        drift_amplitude: diurnal swing as a fraction of the half-range
            (sizes) and of ``interval`` (pacing), in ``[0, 1]``.
        adversary_points: the fusion point budget the adversarial
            profile defeats (``None`` = ``max_points``).
        adversary_spread: the planner spread cap the giant/dwarf ratio
            must exceed.
        frame_motion: ``frames`` profile — per-frame displacement bound;
            every retained point moves uniformly inside a ball of this
            radius, so ``max_motion <= frame_motion`` holds exactly.
        frame_churn: ``frames`` profile — fraction of the cloud's tail
            replaced by fresh sensor returns each frame, in ``[0, 1)``.
        hot_assets: ``hotset`` profile — size of the fixed asset
            catalog; repeats of one asset are the same array object, so
            content hashes match exactly.
        hot_rate: ``hotset`` profile — probability a request draws from
            the catalog (uniformly) instead of being a one-off cloud.
        corrupt_rate: ``inference`` profile — probability a fresh cloud
            is corrupted before emission (kind drawn uniformly from the
            corruption registry).
        corrupt_severity: ``inference`` profile — severities are drawn
            from ``1..corrupt_severity`` (the registry's 1-5 scale).
    """

    clouds: int = 64
    min_points: int = 64
    max_points: int = 256
    dup_rate: float = 0.2
    dup_window: int = 8
    burst: int = 1
    interval: float = 0.0
    dataset: str = "modelnet40"
    seed: int = 0
    profile: str = "uniform"
    drift_period: int = 64
    drift_amplitude: float = 0.5
    adversary_points: int | None = None
    adversary_spread: float = 4.0
    frame_motion: float = 0.02
    frame_churn: float = 0.1
    hot_assets: int = 16
    hot_rate: float = 0.8
    corrupt_rate: float = 0.25
    corrupt_severity: int = 3

    def __post_init__(self):
        if self.clouds < 1:
            raise ValueError(f"clouds must be >= 1, got {self.clouds}")
        if not 1 <= self.min_points <= self.max_points:
            raise ValueError(
                f"need 1 <= min_points <= max_points, got "
                f"{self.min_points}..{self.max_points}"
            )
        if not 0.0 <= self.dup_rate <= 1.0:
            raise ValueError(f"dup_rate must be in [0, 1], got {self.dup_rate}")
        if self.dup_window < 1:
            raise ValueError(f"dup_window must be >= 1, got {self.dup_window}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.interval < 0:
            raise ValueError(f"interval must be >= 0, got {self.interval}")
        if self.profile not in _PROFILES:
            raise ValueError(
                f"profile must be one of {_PROFILES}, got {self.profile!r}"
            )
        if self.drift_period < 2:
            raise ValueError(
                f"drift_period must be >= 2, got {self.drift_period}"
            )
        if not 0.0 <= self.drift_amplitude <= 1.0:
            raise ValueError(
                f"drift_amplitude must be in [0, 1], got {self.drift_amplitude}"
            )
        if self.adversary_points is not None and self.adversary_points < 2:
            raise ValueError(
                f"adversary_points must be >= 2 or None, got "
                f"{self.adversary_points}"
            )
        if self.adversary_spread <= 1.0:
            raise ValueError(
                f"adversary_spread must be > 1, got {self.adversary_spread}"
            )
        if self.frame_motion < 0:
            raise ValueError(
                f"frame_motion must be >= 0, got {self.frame_motion}"
            )
        if not 0.0 <= self.frame_churn < 1.0:
            raise ValueError(
                f"frame_churn must be in [0, 1), got {self.frame_churn}"
            )
        if self.hot_assets < 1:
            raise ValueError(
                f"hot_assets must be >= 1, got {self.hot_assets}"
            )
        if not 0.0 <= self.hot_rate <= 1.0:
            raise ValueError(
                f"hot_rate must be in [0, 1], got {self.hot_rate}"
            )
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise ValueError(
                f"corrupt_rate must be in [0, 1], got {self.corrupt_rate}"
            )
        if not 1 <= self.corrupt_severity <= 5:
            raise ValueError(
                f"corrupt_severity must be in 1..5, got {self.corrupt_severity}"
            )


def _draw_size(spec: LoadSpec, rng: np.random.Generator, emitted: int) -> int:
    """Cloud size for the ``emitted``-th frame under the spec's profile."""
    if spec.profile == "diurnal":
        # The size band slides sinusoidally inside [min, max]: band
        # half-width (1-A)·half, band centre mid ± A·half — the extremes
        # always stay inside the configured range.
        phase = math.sin(2.0 * math.pi * emitted / spec.drift_period)
        mid = (spec.min_points + spec.max_points) / 2.0
        half = (spec.max_points - spec.min_points) / 2.0
        center = mid + spec.drift_amplitude * half * phase
        swing = (1.0 - spec.drift_amplitude) * half
        lo = int(round(center - swing))
        hi = int(round(center + swing))
    elif spec.profile == "adversarial":
        cap = spec.adversary_points or spec.max_points
        if emitted % 4 == 3:
            # Dwarf: too small to share a bucket with a giant under any
            # spread cap <= adversary_spread.
            giant_lo = cap // 2 + 1
            target = int(giant_lo / (spec.adversary_spread * 2.0))
            lo = hi = max(spec.min_points, min(target, spec.max_points))
        else:
            # Giant: just over half the budget, so no two giants fit one
            # bucket under max_points == cap.
            lo = cap // 2 + 1
            hi = max(lo, min(spec.max_points, int(cap * 0.95)))
    else:
        lo, hi = spec.min_points, spec.max_points
    lo = max(spec.min_points, min(lo, spec.max_points))
    hi = max(lo, min(hi, spec.max_points))
    return int(rng.integers(lo, hi + 1))


def _burst_gap(spec: LoadSpec, burst_index: int, base: float) -> float:
    """Seconds between burst ``burst_index - 1`` and ``burst_index``."""
    if spec.profile == "diurnal" and spec.drift_amplitude > 0:
        phase = math.sin(
            2.0 * math.pi * burst_index * spec.burst / spec.drift_period
        )
        return max(base * (1.0 + spec.drift_amplitude * phase), 0.0)
    return base


def _advance_frame(
    cloud: np.ndarray, spec: LoadSpec, rng: np.random.Generator
) -> np.ndarray:
    """One step of the ``frames`` sensor: bounded jitter + tail churn.

    Retained points keep their row order; each moves uniformly
    inside a ball of radius ``frame_motion``, and the trailing
    ``frame_churn`` fraction is replaced by fresh uniform returns drawn
    in the cloud's bounding box.
    """
    n = len(cloud)
    out = cloud.copy()
    if spec.frame_motion > 0:
        dirs = rng.normal(size=(n, 3))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        radii = spec.frame_motion * rng.random((n, 1)) ** (1.0 / 3.0)
        out += dirs / norms * radii
    k = min(int(round(spec.frame_churn * n)), n - 1)
    if k > 0:
        lo, hi = out.min(axis=0), out.max(axis=0)
        span = np.where(hi - lo > 0, hi - lo, 1.0)
        fresh = lo + rng.random((k, 3)) * span
        out = np.concatenate([out[:-k], fresh])
    return np.ascontiguousarray(out)


def _hot_asset(
    spec: LoadSpec, catalog: dict[int, np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """One catalog draw of the ``hotset`` profile, built lazily.

    Asset ``i`` is a pure function of ``(spec.seed, i)`` — its size and
    content never depend on when the stream first requests it — and
    repeats return the cached array object itself, so content hashes
    (and the engine's dedup) match exactly.
    """
    idx = int(rng.integers(spec.hot_assets))
    cloud = catalog.get(idx)
    if cloud is None:
        size_rng = np.random.default_rng((spec.seed, 7_919, idx))
        n = int(size_rng.integers(spec.min_points, spec.max_points + 1))
        cloud = load_cloud(
            spec.dataset, n, seed=spec.seed * 104_729 + idx
        ).coords.astype(np.float64)
        catalog[idx] = cloud
    return cloud


def _frames(spec: LoadSpec) -> Iterator[np.ndarray]:
    """The spec's cloud sequence, deterministic, without pacing."""
    rng = np.random.default_rng(spec.seed)
    recent: deque[np.ndarray] = deque(maxlen=spec.dup_window)
    current: np.ndarray | None = None  # the `frames` sensor state
    catalog: dict[int, np.ndarray] = {}  # the `hotset` asset store
    for emitted in range(spec.clouds):
        if recent and rng.random() < spec.dup_rate:
            cloud = recent[int(rng.integers(len(recent)))]
        elif spec.profile == "hotset" and rng.random() < spec.hot_rate:
            cloud = _hot_asset(spec, catalog, rng)
        elif spec.profile == "frames" and current is not None:
            current = _advance_frame(current, spec, rng)
            cloud = current
            recent.append(cloud)
        else:
            n = _draw_size(spec, rng, emitted)
            loaded = load_cloud(spec.dataset, n, seed=spec.seed * 100_003 + emitted)
            if (
                spec.profile == "inference"
                and rng.random() < spec.corrupt_rate
            ):
                kinds = corruption_names()
                loaded = corrupt(
                    loaded,
                    kinds[int(rng.integers(len(kinds)))],
                    severity=int(rng.integers(1, spec.corrupt_severity + 1)),
                    seed=spec.seed * 9_973 + emitted,
                )
            cloud = loaded.coords.astype(np.float64)
            if spec.profile == "frames":
                current = cloud
            recent.append(cloud)
        yield cloud


def generate(spec: LoadSpec) -> Iterator[np.ndarray]:
    """Yield ``spec.clouds`` float64 ``(n, 3)`` clouds, deterministically.

    Duplicate frames are yielded as the *same array object* as their
    original, so their content hashes — and therefore the engine's
    dedup behaviour — match exactly.  With ``interval > 0`` the
    generator sleeps between bursts (diurnal profiles modulate the gap);
    the cloud contents never depend on the clock.
    """
    for emitted, cloud in enumerate(_frames(spec)):
        if spec.interval > 0 and emitted and emitted % spec.burst == 0:
            time.sleep(_burst_gap(spec, emitted // spec.burst, spec.interval))
        yield cloud


# -- multi-tenant traffic ----------------------------------------------------


def tenant_specs(
    count: int, base: LoadSpec | None = None, *, seed: int | None = None
) -> dict[str, LoadSpec]:
    """``count`` seeded per-tenant variations of one base spec.

    Tenant ``t<i>`` gets its own derived seed, a size band scaled across
    ``0.75×``–``1.25×`` of the base range, and a burst depth cycling
    1×/2×/3× the base — so a mix of tenants exercises ragged sizes,
    unequal rates, and unequal burstiness without hand-writing N specs.
    Deterministic: same ``(count, base, seed)`` → same mix.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    base = base or LoadSpec()
    seed = base.seed if seed is None else seed
    specs: dict[str, LoadSpec] = {}
    for i in range(count):
        scale = 1.0 if count == 1 else 0.75 + 0.5 * i / (count - 1)
        lo = max(1, int(round(base.min_points * scale)))
        hi = max(lo, int(round(base.max_points * scale)))
        specs[f"t{i}"] = dataclasses.replace(
            base,
            min_points=lo,
            max_points=hi,
            burst=base.burst * (1 + i % 3),
            seed=seed * 1_000_003 + i,
        )
    return specs


def generate_tenants(
    specs: Mapping[str, LoadSpec], *, pace: bool = False
) -> Iterator[tuple[str, np.ndarray]]:
    """Merge per-tenant streams into one ``(tenant, cloud)`` arrival order.

    Each tenant's stream keeps its own seed, profile, and burst
    structure; arrivals interleave on a synthetic per-tenant timeline
    (burst index × interval, with ``interval == 0`` treated as one time
    unit per burst so firehose tenants interleave round-robin).  The
    merge is a pure function of the specs — deterministic for tests,
    benchmarks, and CI.  With ``pace=True`` the generator sleeps to
    replay the merged timeline in real time (only meaningful when the
    specs set ``interval``).
    """
    if not specs:
        raise ValueError("need at least one tenant spec")

    def timeline(pos: int, name: str, spec: LoadSpec):
        t = 0.0
        base = spec.interval if spec.interval > 0 else 1.0
        for j, cloud in enumerate(_frames(spec)):
            if j and j % spec.burst == 0:
                t += _burst_gap(spec, j // spec.burst, base)
            yield (t, pos, j, name, cloud)

    streams = [
        timeline(pos, name, spec)
        for pos, (name, spec) in enumerate(specs.items())
    ]
    start = obs.now()
    for t, _, _, name, cloud in heapq.merge(
        *streams, key=lambda entry: entry[:3]
    ):
        if pace:
            delay = start + t - obs.now()
            if delay > 0:
                time.sleep(delay)
        yield name, cloud


# -- wire format -------------------------------------------------------------


def _write_record(fh, arr: np.ndarray) -> None:
    """One ``.npy`` record, written pipe-safely.

    Header and payload written by hand: numpy's ``write_array`` calls
    ``ndarray.tofile`` on real file objects, which needs a seekable
    stream and dies on the pipes this format exists for.
    """
    np.lib.format.write_array_header_1_0(
        fh, np.lib.format.header_data_from_array_1_0(arr)
    )
    fh.write(arr.tobytes())


def write_stream(fh, clouds: Iterable[np.ndarray]) -> int:
    """Write clouds to ``fh`` as concatenated ``.npy`` records; returns
    the record count.  The inverse of :func:`read_stream`."""
    count = 0
    for cloud in clouds:
        _write_record(fh, np.ascontiguousarray(np.asarray(cloud, np.float64)))
        count += 1
    fh.flush()
    return count


def write_tenant_stream(fh, pairs: Iterable[tuple[str, np.ndarray]]) -> int:
    """Write a ``(tenant, cloud)`` stream as tag + cloud record pairs.

    The tag is a zero-dimensional unicode ``.npy`` record immediately
    preceding its cloud; :func:`read_tenant_stream` reassembles the
    pairs.  Returns the cloud count."""
    count = 0
    for tenant, cloud in pairs:
        _write_record(fh, np.array(str(tenant)))
        _write_record(fh, np.ascontiguousarray(np.asarray(cloud, np.float64)))
        count += 1
    fh.flush()
    return count


def _read_exact(fh, count: int) -> bytes:
    """Read exactly ``count`` bytes (pipes may return short reads)."""
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = fh.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_stream(fh) -> Iterator[np.ndarray]:
    """Yield arrays from a concatenated ``.npy`` stream until EOF.

    Parses record headers by hand instead of looping :func:`numpy.load`
    so it works on non-seekable pipes (``repro loadgen | repro serve``)
    and never buffers more than one record.  A stream that ends mid-
    record raises ``ValueError`` — serving silently on truncated input
    would hide producer crashes.
    """
    while True:
        preamble = _read_exact(fh, len(_MAGIC) + 2)
        if not preamble:
            return
        if len(preamble) < len(_MAGIC) + 2 or preamble[: len(_MAGIC)] != _MAGIC:
            raise ValueError("input is not a concatenated .npy cloud stream")
        major = preamble[len(_MAGIC)]
        header_len_size = 2 if major == 1 else 4
        header_len_bytes = _read_exact(fh, header_len_size)
        if len(header_len_bytes) < header_len_size:
            raise ValueError("truncated .npy record header length")
        header_len = int.from_bytes(header_len_bytes, "little")
        header_bytes = _read_exact(fh, header_len)
        if len(header_bytes) < header_len:
            raise ValueError("truncated .npy record header")
        header = ast.literal_eval(header_bytes.decode("latin1"))
        dtype = np.dtype(header["descr"])
        if dtype.hasobject:
            raise ValueError("object-dtype records are not allowed on the wire")
        shape = tuple(header["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        data = _read_exact(fh, count * dtype.itemsize)
        if len(data) != count * dtype.itemsize:
            raise ValueError("truncated .npy record payload")
        arr = np.frombuffer(data, dtype=dtype)
        if header.get("fortran_order"):
            arr = arr.reshape(shape[::-1]).T
        else:
            arr = arr.reshape(shape)
        # frombuffer views are read-only; downstream partitioners expect
        # ordinary writable arrays.
        yield arr.copy()


def read_tenant_stream(fh) -> Iterator[tuple[str, np.ndarray]]:
    """Yield ``(tenant, cloud)`` pairs from a tagged (or plain) stream.

    A unicode record tags the cloud record that follows it; untagged
    cloud records — i.e. plain :func:`write_stream` output — fall to the
    default tenant ``"t0"``, so a single-tenant producer can feed a
    multi-tenant server unchanged.  A trailing tag with no cloud raises
    ``ValueError`` (truncated producer).
    """
    tag: str | None = None
    for arr in read_stream(fh):
        if arr.dtype.kind == "U":
            if tag is not None:
                raise ValueError("tenant tag not followed by a cloud record")
            tag = str(arr[()]) if arr.ndim == 0 else str(arr.flat[0])
            continue
        yield (tag if tag is not None else "t0", arr)
        tag = None
    if tag is not None:
        raise ValueError("tenant tag at end of stream with no cloud record")
