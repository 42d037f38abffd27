"""High Bandwidth Memory timing and energy model.

A Ramulator-class cycle-accurate DRAM model is replaced (see DESIGN.md) by a
channel/row-buffer model that captures the two effects the paper's results
depend on:

* **traffic volume** by region (Fig. 12) -- counted exactly,
* **effective bandwidth** as a function of spatial locality (Fig. 13) -- a
  run of contiguous bytes pays one activate/precharge per DRAM row it
  touches; short random runs therefore waste most of the channel's cycles,
  long streams approach peak bandwidth.

Row-miss penalties overlap across banks; ``bank_parallelism`` sets how many
misses are hidden concurrently, and is the single knob calibrated against
the paper's utilization numbers (Gunrock 31%, GraphDynS 56%).

Energy follows the paper's methodology: a flat 7 pJ/bit (O'Connor, Memory
Forum 2014).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List

import numpy as np

from ..obs import get_recorder
from .request import AccessPattern, Region

#: Fixed bucket edges for the run-length histogram (bytes per contiguous
#: run), 8 B .. 8 MiB in powers of two -- reproducible across runs.
_RUN_BYTES_EDGES = tuple(float(1 << k) for k in range(3, 24))

__all__ = ["HBMConfig", "ServiceResult", "HBMModel", "HBM1_512GBS", "HBM2_900GBS"]


@dataclasses.dataclass(frozen=True)
class HBMConfig:
    """Static parameters of an HBM part, normalized to accelerator cycles.

    Attributes:
        name: part name for reports.
        peak_bytes_per_cycle: aggregate peak bandwidth divided by the
            consumer's clock (512 GB/s at 1 GHz -> 512 B/cycle).
        num_channels: independent channels (HBM1: 8 per stack, 2 stacks).
        row_bytes: DRAM row (page) size per channel.
        row_miss_cycles: activate + precharge penalty in consumer cycles.
        bank_parallelism: average number of row misses whose latency
            overlaps (bank-level parallelism + request reordering).
        min_access_bytes: smallest burst; shorter requests are padded.
        energy_pj_per_bit: access energy (7 pJ/bit for HBM 1.0 per the paper).
        base_latency_cycles: idle-system latency of one access (used for
            latency-bound phases with few requests).
    """

    name: str
    peak_bytes_per_cycle: float
    num_channels: int = 16
    row_bytes: int = 2048
    row_miss_cycles: float = 22.0
    bank_parallelism: float = 8.0
    min_access_bytes: int = 32
    energy_pj_per_bit: float = 7.0
    base_latency_cycles: float = 100.0

    @property
    def channel_bytes_per_cycle(self) -> float:
        return self.peak_bytes_per_cycle / self.num_channels


#: The accelerator-side part of Table 3 (GraphDynS and Graphicionado).
HBM1_512GBS = HBMConfig(name="HBM1-512GB/s", peak_bytes_per_cycle=512.0)

#: The V100's memory system (900 GB/s HBM2), normalized to its 1.25 GHz clock.
HBM2_900GBS = HBMConfig(
    name="HBM2-900GB/s", peak_bytes_per_cycle=900.0 / 1.25, num_channels=32
)


@dataclasses.dataclass
class ServiceResult:
    """Timing outcome of servicing a batch of access patterns."""

    cycles: float
    total_bytes: int
    ideal_cycles: float
    bytes_by_region: Dict[Region, int]

    @property
    def bandwidth_utilization(self) -> float:
        """Achieved fraction of peak bandwidth (Fig. 13's metric)."""
        if self.cycles <= 0:
            return 0.0
        return min(1.0, self.ideal_cycles / self.cycles)


class HBMModel:
    """Stateful HBM instance accumulating traffic and energy."""

    def __init__(self, config: HBMConfig, owner: str = "") -> None:
        self.config = config
        #: Instrumentation label naming the system this memory belongs to
        #: (observability only -- never part of a config digest).
        self.owner = owner
        self.bytes_by_region: Dict[Region, int] = {r: 0 for r in Region}
        self.write_bytes = 0
        self.read_bytes = 0
        self.total_cycles = 0.0
        self.total_ideal_cycles = 0.0

    # ------------------------------------------------------------------
    # Pattern-level timing
    # ------------------------------------------------------------------
    def pattern_cycles(self, pattern: AccessPattern) -> float:
        """Service cycles for one pattern on an otherwise idle memory."""
        cfg = self.config
        if pattern.total_bytes == 0:
            return 0.0
        run = max(pattern.run_bytes, 1.0)
        # Pad short runs to the burst size: an 8-byte random read still
        # transfers a full 32-byte burst.
        padded_run = max(run, float(cfg.min_access_bytes))
        num_runs = max(1.0, pattern.total_bytes / run)
        padded_bytes = num_runs * padded_run

        transfer_cycles = padded_bytes / cfg.peak_bytes_per_cycle
        rows_per_run = max(1.0, padded_run / cfg.row_bytes)
        total_misses = num_runs * rows_per_run
        # Misses overlap across banks and channels.
        overlap = cfg.bank_parallelism * cfg.num_channels
        miss_cycles = total_misses * cfg.row_miss_cycles / overlap
        return transfer_cycles + miss_cycles

    def ideal_cycles(self, total_bytes: float) -> float:
        """Cycles at peak bandwidth (the Fig. 13 denominator)."""
        return total_bytes / self.config.peak_bytes_per_cycle

    def service(self, patterns: Iterable[AccessPattern]) -> ServiceResult:
        """Service patterns that share the memory system concurrently.

        Patterns within one call are assumed to interleave across channels,
        so their service times add (bandwidth is the shared resource).
        Accumulates global traffic/energy state.  A batch holds a handful
        of patterns (2-8 per call from the timing models), so each is
        priced by one :meth:`pattern_cycles` call, summed left to right.
        """
        patterns = list(patterns)
        cycles = 0.0
        total_bytes = 0
        by_region: Dict[Region, int] = {}
        for pattern in patterns:
            cycles += self.pattern_cycles(pattern)
            total_bytes += pattern.total_bytes
            by_region[pattern.region] = (
                by_region.get(pattern.region, 0) + pattern.total_bytes
            )
            self.bytes_by_region[pattern.region] += pattern.total_bytes
            if pattern.is_write:
                self.write_bytes += pattern.total_bytes
            else:
                self.read_bytes += pattern.total_bytes
        ideal = self.ideal_cycles(total_bytes)
        self.total_cycles += cycles
        self.total_ideal_cycles += ideal
        rec = get_recorder()
        if rec.enabled and patterns:
            self._record_service(rec, patterns, by_region)
        return ServiceResult(
            cycles=cycles,
            total_bytes=total_bytes,
            ideal_cycles=ideal,
            bytes_by_region=by_region,
        )

    def _record_service(
        self,
        rec,
        patterns: List[AccessPattern],
        by_region: Dict[Region, int],
    ) -> None:
        """Instrument one serviced batch (recorder enabled only).

        Row hits/misses follow the closed form of :meth:`pattern_cycles`:
        each run pays one activate per DRAM row it touches; the remaining
        bursts are row-buffer hits.  The sums stay numpy array reductions,
        whose rounding the exporter goldens pin.
        """
        cfg = self.config
        prefix = f"hbm.{self.owner}" if self.owner else "hbm"
        count = len(patterns)
        total_arr = np.fromiter(
            (p.total_bytes for p in patterns), dtype=np.float64, count=count
        )
        run_arr = np.fromiter(
            (p.run_bytes for p in patterns), dtype=np.float64, count=count
        )
        run = np.maximum(run_arr, 1.0)
        padded_run = np.maximum(run, float(cfg.min_access_bytes))
        num_runs = np.maximum(1.0, total_arr / run)
        rows_per_run = np.maximum(1.0, padded_run / cfg.row_bytes)
        row_misses = float((num_runs * rows_per_run).sum())
        bursts = float(
            (num_runs * padded_run).sum() / float(cfg.min_access_bytes)
        )
        rec.counter(f"{prefix}.requests").add(count)
        rec.counter(f"{prefix}.bytes").add(float(total_arr.sum()))
        rec.counter(f"{prefix}.row_misses").add(row_misses)
        rec.counter(f"{prefix}.row_hits").add(max(bursts - row_misses, 0.0))
        for region, nbytes in by_region.items():
            rec.counter(f"{prefix}.bytes.{region.value}").add(nbytes)
        rec.histogram(
            f"{prefix}.run_bytes", edges=_RUN_BYTES_EDGES
        ).observe_many(run_arr)
        rec.gauge(f"{prefix}.bandwidth_utilization").set(
            self.bandwidth_utilization
        )

    # ------------------------------------------------------------------
    # Whole-run accounting
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    @property
    def energy_pj(self) -> float:
        """Total access energy at ``energy_pj_per_bit``."""
        return self.total_bytes * 8 * self.config.energy_pj_per_bit

    @property
    def bandwidth_utilization(self) -> float:
        """Run-aggregate utilization (ideal cycles / modeled cycles)."""
        if self.total_cycles <= 0:
            return 0.0
        return min(1.0, self.total_ideal_cycles / self.total_cycles)

    def reset(self) -> None:
        self.bytes_by_region = {r: 0 for r in Region}
        self.write_bytes = 0
        self.read_bytes = 0
        self.total_cycles = 0.0
        self.total_ideal_cycles = 0.0
