"""Run-level performance accounting shared by all accelerator models."""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from ..memory.traffic import TrafficLedger
from ..obs import get_recorder

__all__ = ["CacheStats", "ChurnStats", "PhaseBreakdown", "RunReport"]


@dataclasses.dataclass
class CacheStats:
    """Counters exposed by ``RunService.stats``.

    The first block tracks the reuse tiers of the run service; the
    second tracks the resilience layer (``repro.harness.resilience``):
    how often cells had to be retried, timed out, or fell back to a
    less parallel executor, and how often persisting a result failed.
    """

    hits: int = 0  # served from the persistent cache
    misses: int = 0  # executed from scratch
    stores: int = 0  # written to the persistent cache
    memory_hits: int = 0  # served from the in-process memo

    store_failures: int = 0  # persistent-cache writes that failed for good
    retries: int = 0  # cell/store attempts repeated after a transient error
    timeouts: int = 0  # attempts abandoned at the per-cell deadline
    degradations: int = 0  # executor fallbacks (process -> thread -> serial)

    @property
    def requests(self) -> int:
        return self.hits + self.misses + self.memory_hits

    @property
    def hit_rate(self) -> float:
        """Persistent-cache hit fraction over cold (non-memo) requests."""
        cold = self.hits + self.misses
        if cold == 0:
            return 0.0
        return self.hits / cold

    @property
    def recoveries(self) -> int:
        """Total corrective actions taken by the resilience layer."""
        return self.retries + self.timeouts + self.degradations


@dataclasses.dataclass
class ChurnStats:
    """Counters for an evolving-graph (churn) session.

    Tracks how often incremental recomputation actually took the
    frontier-delta path versus falling back to the reference full rerun,
    and how much work each path performed — the quantities
    ``benchmarks/bench_dynamic.py`` and ``repro churn`` report.
    """

    batches_applied: int = 0  # EdgeBatch.apply calls
    edges_inserted: int = 0
    edges_deleted: int = 0
    delta_runs: int = 0  # incremental steps that used frontier deltas
    full_runs: int = 0  # incremental steps that fell back to full rerun
    delta_iterations: int = 0  # engine iterations spent in delta runs
    full_iterations: int = 0  # engine iterations spent in full reruns
    delta_edges_processed: int = 0
    full_edges_processed: int = 0

    @property
    def steps(self) -> int:
        return self.delta_runs + self.full_runs

    @property
    def delta_fraction(self) -> float:
        """Share of recomputation steps that avoided a full rerun."""
        if self.steps == 0:
            return 0.0
        return self.delta_runs / self.steps

    def record(self, outcome) -> None:
        """Fold one :class:`repro.vcpm.incremental.IncrementalOutcome` in."""
        path, result = ("delta" if outcome.used_delta else "full"), outcome.result
        self._count(f"{path}_runs")
        self._count(f"{path}_iterations", result.num_iterations)
        self._count(f"{path}_edges_processed", result.total_edges_processed)

    def record_batch(self, batch) -> None:
        """Fold one applied :class:`repro.graph.dynamic.EdgeBatch` in."""
        self._count("batches_applied")
        self._count("edges_inserted", batch.num_inserts)
        self._count("edges_deleted", batch.num_deletes)

    def _count(self, field: str, amount: int = 1) -> None:
        """Bump ``<field>`` and its ``churn.<field>`` counter: the one writer."""
        setattr(self, field, getattr(self, field) + amount)
        get_recorder().counter(f"churn.{field}").add(amount)


@dataclasses.dataclass
class PhaseBreakdown:
    """Cycle totals of one iteration, split by phase and bound."""

    iteration: int
    scatter_cycles: float
    apply_cycles: float
    scatter_compute_cycles: float = 0.0
    scatter_memory_cycles: float = 0.0
    scatter_update_cycles: float = 0.0
    scatter_stall_cycles: float = 0.0
    apply_compute_cycles: float = 0.0
    apply_memory_cycles: float = 0.0

    @property
    def total_cycles(self) -> float:
        return self.scatter_cycles + self.apply_cycles


@dataclasses.dataclass
class RunReport:
    """Complete modeled outcome of one (algorithm, graph, system) run.

    This is the record every figure/table regenerator consumes.
    """

    system: str
    algorithm: str
    graph_name: str
    cycles: float
    frequency_hz: float
    edges_processed: int
    vertices_processed: int
    iterations: int
    traffic: TrafficLedger
    #: Peak memory bandwidth in bytes per cycle of this system's clock.
    peak_bytes_per_cycle: float
    phases: List[PhaseBreakdown] = dataclasses.field(default_factory=list)
    scheduling_ops: int = 0
    update_operations: int = 0
    stall_cycles: float = 0.0
    storage_bytes: int = 0
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Modeled execution time."""
        if self.frequency_hz <= 0:
            return 0.0
        return self.cycles / self.frequency_hz

    @property
    def gteps(self) -> float:
        """Giga-traversed-edges per second (Fig. 7's metric)."""
        seconds = self.seconds
        if seconds <= 0:
            return 0.0
        return self.edges_processed / seconds / 1e9

    @property
    def total_traffic_bytes(self) -> int:
        return self.traffic.total

    @property
    def bandwidth_utilization(self) -> float:
        """Average bandwidth utilization over the whole run (Fig. 13).

        Bytes actually moved divided by what the memory system could have
        moved during the modeled execution time -- compute- or
        latency-bound stretches leave the channels idle and lower this.
        """
        if self.cycles <= 0 or self.peak_bytes_per_cycle <= 0:
            return 0.0
        return min(
            1.0, self.traffic.total / (self.cycles * self.peak_bytes_per_cycle)
        )

    def speedup_over(self, baseline: "RunReport") -> float:
        """Execution-time ratio baseline/self (>1 means self is faster)."""
        if self.seconds <= 0:
            return float("inf")
        return baseline.seconds / self.seconds

    def scatter_cycles_total(self) -> float:
        return sum(p.scatter_cycles for p in self.phases)

    def apply_cycles_total(self) -> float:
        return sum(p.apply_cycles for p in self.phases)
