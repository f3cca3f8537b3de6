"""Row-buffer-level DRAM state machine (DRAMsim3-style detail).

The aggregate :class:`~repro.hw.dram.DRAMModel` prices traffic with two
fixed efficiencies (streamed vs random).  This module justifies those
numbers from first principles: a small DDR4 state machine with banks,
open rows, and tCAS/tRCD/tRP timing replays an address trace and reports
the achieved bandwidth and row-hit rate.  ``tests/test_dramsim.py``
checks that the aggregate efficiencies fall inside the bands this model
produces for streamed and random traces — the calibration story for the
simulator's DRAM constants.

Timing parameters follow DDR4-2133 (CL-RCD-RP 15-15-15 at 1066 MHz I/O,
64-byte bursts over a 64-bit channel).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DDR4Timing", "DRAMSimLite", "TraceResult"]


@dataclass(frozen=True)
class DDR4Timing:
    """DDR4-2133 timing in memory-clock cycles (1066 MHz)."""

    tCAS: int = 15  # column access (row already open)
    tRCD: int = 15  # row activate before column access
    tRP: int = 15   # precharge before a new activate
    tFAW: int = 26  # four-activate window (activate-rate limit)
    burst_cycles: int = 4   # BL8 on a DDR interface
    clock_hz: float = 1_066e6
    bytes_per_burst: int = 64

    @property
    def peak_gbps(self) -> float:
        return self.bytes_per_burst / self.burst_cycles * self.clock_hz / 1e9


@dataclass
class TraceResult:
    """Outcome of replaying one address trace."""

    cycles: float
    bytes_moved: float
    row_hits: int
    row_misses: int
    timing: DDR4Timing

    @property
    def hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    @property
    def achieved_gbps(self) -> float:
        seconds = self.cycles / self.timing.clock_hz
        return self.bytes_moved / seconds / 1e9 if seconds else 0.0

    @property
    def efficiency(self) -> float:
        """Fraction of peak bandwidth achieved."""
        return self.achieved_gbps / self.timing.peak_gbps


@dataclass
class DRAMSimLite:
    """A bank-state DDR4 channel replaying 64-byte-burst address traces.

    Attributes:
        timing: DDR4 timing bundle.
        num_banks: banks per channel (16 for DDR4 x64 with bank groups
            flattened).
        row_bytes: bytes per row (2 KB typical).
    """

    timing: DDR4Timing = field(default_factory=DDR4Timing)
    num_banks: int = 16
    row_bytes: int = 2048

    def replay(self, addresses: np.ndarray) -> TraceResult:
        """Replay a sequence of byte addresses (one burst each).

        Consecutive bursts to the same open row pipeline at the burst
        rate; a row change pays precharge + activate + CAS.  Banks hold
        independent open rows.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        t = self.timing
        open_rows = np.full(self.num_banks, -1, dtype=np.int64)
        cycles = 0.0
        hits = misses = 0
        rows = addresses // self.row_bytes
        banks = rows % self.num_banks
        for row, bank in zip(rows, banks):
            if open_rows[bank] == row:
                hits += 1
                cycles += t.burst_cycles
            else:
                misses += 1
                penalty = t.tRP if open_rows[bank] != -1 else 0
                cycles += penalty + t.tRCD + t.tCAS + t.burst_cycles
                open_rows[bank] = row
        return TraceResult(
            cycles=cycles,
            bytes_moved=float(len(addresses)) * t.bytes_per_burst,
            row_hits=hits,
            row_misses=misses,
            timing=t,
        )

    def replay_bank_parallel(self, addresses: np.ndarray) -> TraceResult:
        """Replay with bank-level parallelism (out-of-order-ish controller).

        Activates to *different* banks overlap; the data bus serialises
        bursts; the four-activate window (tFAW) caps the activate rate.
        This is the upper bound a good controller reaches on random
        traffic — the serialised :meth:`replay` is the lower bound.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        t = self.timing
        open_rows = np.full(self.num_banks, -1, dtype=np.int64)
        bank_free = np.zeros(self.num_banks)
        recent_activates: list[float] = []  # times of the last 4 activates
        bus_free = 0.0
        hits = misses = 0
        rows = addresses // self.row_bytes
        banks = rows % self.num_banks
        for row, bank in zip(rows, banks):
            if open_rows[bank] == row:
                hits += 1
                data_start = max(bus_free, bank_free[bank])
            else:
                misses += 1
                activate_at = max(bank_free[bank], bus_free - t.tRCD)
                if len(recent_activates) == 4:
                    activate_at = max(activate_at, recent_activates[0] + t.tFAW)
                    recent_activates.pop(0)
                penalty = t.tRP if open_rows[bank] != -1 else 0
                activate_at += penalty
                recent_activates.append(activate_at)
                open_rows[bank] = row
                bank_free[bank] = activate_at + t.tRCD
                data_start = max(bus_free, bank_free[bank])
            bus_free = data_start + t.burst_cycles
            bank_free[bank] = max(bank_free[bank], data_start)
        return TraceResult(
            cycles=bus_free,
            bytes_moved=float(len(addresses)) * t.bytes_per_burst,
            row_hits=hits,
            row_misses=misses,
            timing=t,
        )

    def streamed_trace(self, nbytes: int) -> np.ndarray:
        """Sequential burst addresses covering ``nbytes``."""
        bursts = max(nbytes // self.timing.bytes_per_burst, 1)
        return np.arange(bursts, dtype=np.int64) * self.timing.bytes_per_burst

    def random_trace(self, nbytes: int, span_bytes: int, seed: int = 0) -> np.ndarray:
        """Uniformly random burst addresses within a ``span_bytes`` region."""
        bursts = max(nbytes // self.timing.bytes_per_burst, 1)
        rng = np.random.default_rng(seed)
        slots = max(span_bytes // self.timing.bytes_per_burst, 1)
        return rng.integers(0, slots, size=bursts) * self.timing.bytes_per_burst
