"""Headline-claim validation: the paper's numbers as machine-checkable bands.

Encodes the reproduction targets (the paper's reported ratios) as
:class:`HeadlineClaim` records with acceptance bands, and
:func:`validate_headlines` measures them all with the simulator.  The
bands are deliberately wide (shape-level reproduction, see DESIGN.md §1):
a claim passes when the measured ratio lands within ``band`` multiplicative
factors of the paper's value, or beats it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..hw import AcceleratorSim, GPUModel, SOTA_CONFIGS
from ..networks import get_workload

__all__ = ["HeadlineClaim", "HEADLINE_CLAIMS", "validate_headlines"]


@dataclass(frozen=True)
class HeadlineClaim:
    """One quantitative claim from the paper.

    Attributes:
        name: short identifier.
        paper_value: the number the paper reports.
        band: acceptance factor — measured must lie within
            ``[paper/band, paper*band]`` (or exceed paper for
            higher-is-better claims when ``one_sided``).
        measure: zero-arg callable returning the measured value.
        one_sided: accept anything >= paper/band (the claim is a floor).
    """

    name: str
    paper_value: float
    band: float
    measure: Callable[[], float]
    one_sided: bool = False

    def check(self) -> tuple[float, bool]:
        value = self.measure()
        if self.one_sided:
            ok = value >= self.paper_value / self.band
        else:
            ok = self.paper_value / self.band <= value <= self.paper_value * self.band
        return value, ok


def _speedup(config_name: str, workload: str, n: int) -> float:
    spec = get_workload(workload)
    gpu = GPUModel().run(spec, n)
    acc = AcceleratorSim(SOTA_CONFIGS[config_name]).run(spec, n)
    return gpu.latency_s / acc.latency_s


def _accel_ratio(a: str, b: str, workload: str, n: int) -> float:
    spec = get_workload(workload)
    ra = AcceleratorSim(SOTA_CONFIGS[a]).run(spec, n)
    rb = AcceleratorSim(SOTA_CONFIGS[b]).run(spec, n)
    return ra.latency_s / rb.latency_s


def _energy_saving(workload: str, n: int) -> float:
    spec = get_workload(workload)
    gpu = GPUModel().run(spec, n)
    acc = AcceleratorSim(SOTA_CONFIGS["FractalCloud"]).run(spec, n)
    return gpu.energy_j / acc.energy_j


HEADLINE_CLAIMS: tuple[HeadlineClaim, ...] = (
    HeadlineClaim(
        name="speedup_vs_gpu_289k",
        paper_value=40.0, band=3.0,
        measure=lambda: _speedup("FractalCloud", "PNXt(s)", 289_000),
        one_sided=True,
    ),
    HeadlineClaim(
        name="pointacc_below_gpu_289k",
        paper_value=0.4, band=2.5,
        measure=lambda: _speedup("PointAcc", "PNXt(s)", 289_000),
    ),
    HeadlineClaim(
        name="crescent_near_gpu_289k",
        paper_value=0.8, band=2.5,
        measure=lambda: _speedup("Crescent", "PNXt(s)", 289_000),
    ),
    HeadlineClaim(
        name="fract_vs_pointacc_289k",
        paper_value=100.0, band=3.0,
        measure=lambda: _accel_ratio("PointAcc", "FractalCloud", "PNXt(s)", 289_000),
        one_sided=True,
    ),
    HeadlineClaim(
        name="crescent_within_2x_at_1k",
        paper_value=1.2, band=1.8,
        measure=lambda: _accel_ratio("Crescent", "FractalCloud", "PN++(c)", 1024),
    ),
    HeadlineClaim(
        name="energy_saving_vs_gpu_289k",
        paper_value=1920.0, band=3.0,
        measure=lambda: _energy_saving("PNXt(s)", 289_000),
        one_sided=True,
    ),
)


def validate_headlines() -> list[tuple[str, float, float, bool]]:
    """Measure every claim; returns (name, paper, measured, ok) rows."""
    rows = []
    for claim in HEADLINE_CLAIMS:
        value, ok = claim.check()
        rows.append((claim.name, claim.paper_value, value, ok))
    return rows
