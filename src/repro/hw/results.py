"""Result records produced by the accelerator and GPU simulators."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PhaseStats", "RunResult", "TraceEvent", "POINT_OP_PHASES"]

#: Phases the paper groups as "Point Ops" in its breakdowns (Fig. 15).
POINT_OP_PHASES = ("partition", "sample", "neighbor", "interpolate", "gather")


@dataclass
class PhaseStats:
    """Latency/energy accounting for one execution phase."""

    seconds: float = 0.0
    compute_j: float = 0.0
    sram_j: float = 0.0
    dram_j: float = 0.0
    dram_bytes: float = 0.0
    sram_bytes: float = 0.0

    @property
    def energy_j(self) -> float:
        return self.compute_j + self.sram_j + self.dram_j

    def add(self, other: "PhaseStats") -> None:
        self.seconds += other.seconds
        self.compute_j += other.compute_j
        self.sram_j += other.sram_j
        self.dram_j += other.dram_j
        self.dram_bytes += other.dram_bytes
        self.sram_bytes += other.sram_bytes


@dataclass(frozen=True)
class TraceEvent:
    """One operation in the simulated execution timeline."""

    stage_index: int
    stage_kind: str
    phase: str
    start_s: float
    seconds: float
    compute_cycles: float
    dram_bytes: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.seconds


@dataclass
class RunResult:
    """One simulated inference on one platform.

    Attributes:
        platform: config or GPU name.
        workload: Table I key.
        num_points: input scale.
        phases: per-phase statistics.
        static_j: leakage energy charged over the whole run.
        trace: per-operation timeline (populated when the simulator runs
            with ``trace=True``); events are sequential, so each event's
            ``start_s`` is the sum of all earlier durations.
    """

    platform: str
    workload: str
    num_points: int
    phases: dict[str, PhaseStats] = field(default_factory=dict)
    static_j: float = 0.0
    trace: list[TraceEvent] = field(default_factory=list)

    def timeline(self) -> str:
        """Human-readable execution timeline (trace mode only)."""
        if not self.trace:
            return "(no trace recorded — run with trace=True)"
        lines = [f"timeline — {self.platform} / {self.workload} @ {self.num_points}"]
        for ev in self.trace:
            lines.append(
                f"  [{ev.start_s * 1e3:9.4f} ms] stage {ev.stage_index:2d} "
                f"{ev.stage_kind:6s} {ev.phase:11s} "
                f"{ev.seconds * 1e3:9.4f} ms  dram {ev.dram_bytes / 1e6:8.2f} MB"
            )
        return "\n".join(lines)

    def phase(self, name: str) -> PhaseStats:
        if name not in self.phases:
            self.phases[name] = PhaseStats()
        return self.phases[name]

    @property
    def latency_s(self) -> float:
        return sum(p.seconds for p in self.phases.values())

    @property
    def energy_j(self) -> float:
        return sum(p.energy_j for p in self.phases.values()) + self.static_j

    @property
    def dram_bytes(self) -> float:
        return sum(p.dram_bytes for p in self.phases.values())

    @property
    def point_op_seconds(self) -> float:
        return sum(
            p.seconds for name, p in self.phases.items() if name in POINT_OP_PHASES
        )

    @property
    def mlp_seconds(self) -> float:
        return self.phases.get("mlp", PhaseStats()).seconds

    @property
    def other_seconds(self) -> float:
        return self.latency_s - self.point_op_seconds - self.mlp_seconds

    def energy_breakdown(self) -> dict[str, float]:
        """Joules by component: compute / SRAM / DRAM / static."""
        return {
            "compute": sum(p.compute_j for p in self.phases.values()),
            "sram": sum(p.sram_j for p in self.phases.values()),
            "dram": sum(p.dram_j for p in self.phases.values()),
            "static": self.static_j,
        }
