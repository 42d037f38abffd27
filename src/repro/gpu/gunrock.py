"""Gunrock-on-V100 performance model.

Per-iteration structure of a push-based Gunrock primitive:

1. **advance** -- expand the frontier's edges; memory-bound: every
   destination-property access is a random sector, edge lists stream in
   frontier order;
2. **filter/compaction** -- Gunrock's online preprocessing: scan the
   frontier, partition by degree (TWC), compact the output frontier; costs
   both traffic and a kernel launch;
3. **apply-style update** -- property writes for updated vertices.

Compute time follows warp divergence (partially balanced by TWC); memory
time follows the HBM2 model; atomics add serialization on hot vertices.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core import frontier_stats
from ..graph.csr import CSRGraph
from ..memory.hbm import HBMModel
from ..memory.request import AccessPattern, Region
from ..memory.traffic import TrafficLedger
from ..metrics.counters import PhaseBreakdown, RunReport
from ..obs import get_recorder
from ..vcpm.engine import IterationData, VCPMResult, run_vcpm
from ..vcpm.spec import AlgorithmSpec
from .config import V100_GUNROCK, GPUConfig

__all__ = ["GunrockTimingModel", "Gunrock"]


class GunrockTimingModel:
    """Accumulates modeled GPU cycles for one run."""

    def __init__(
        self,
        graph: CSRGraph,
        spec: AlgorithmSpec,
        config: GPUConfig = V100_GUNROCK,
    ) -> None:
        self.graph = graph
        self.spec = spec
        self.config = config
        self.hbm = HBMModel(config.hbm, owner="Gunrock")
        self.traffic = TrafficLedger()
        self.phases: List[PhaseBreakdown] = []
        self.total_cycles = 0.0
        self.edges_processed = 0
        self.vertices_processed = 0
        self.stall_cycles = 0.0
        self.warp_excess_work = 0

    def _is_idempotent(self) -> bool:
        """BFS/CC-style primitives: monotonic min over unweighted edges.

        Gunrock implements these with idempotent status updates rather than
        atomic read-modify-writes.
        """
        from ..vcpm.spec import ReduceOp

        return (
            self.spec.reduce_op is ReduceOp.MIN
            and not self.spec.uses_weights
        )

    def _is_pull_based(self) -> bool:
        """Accumulating primitives (PR) run pull-based without atomics."""
        from ..vcpm.spec import ReduceOp

        return self.spec.reduce_op is ReduceOp.SUM

    def on_iteration(self, data: IterationData) -> None:
        cfg = self.config
        num_edges = data.num_edges
        # Gunrock's online filtering prunes redundant label-propagation
        # work (the reason the paper's CC speedups over Gunrock are lowest).
        if self.spec.name == "CC":
            num_edges = int(num_edges * cfg.cc_filter_work_factor)

        # ------------------------- compute -------------------------
        frontier = data.frontier
        warp = frontier.memo(frontier_stats.warp_divergence, cfg.warp_size)
        self.warp_excess_work += warp.excess_work
        # TWC recovers most of the divergence; the residue still serializes.
        effective_work = (
            warp.total_work
            + cfg.residual_divergence * warp.excess_work
        )
        compute_cycles = effective_work / cfg.peak_edges_per_cycle

        # ------------------------- memory --------------------------
        patterns: List[AccessPattern] = []
        num_active = data.num_active
        if num_active:
            # Frontier read + offset gather (random sectors).
            patterns.append(
                AccessPattern(
                    Region.ACTIVE_VERTEX,
                    total_bytes=num_active * 4,
                    run_bytes=float(max(num_active * 4, 1)),
                )
            )
            patterns.append(
                AccessPattern(
                    Region.OFFSET,
                    total_bytes=num_active * cfg.sector_bytes,
                    run_bytes=float(cfg.sector_bytes),
                )
            )
        if num_edges:
            edge_bytes = 8 if self.spec.uses_weights else 4
            mean_list = frontier.memo(frontier_stats.mean_nonzero_degree)
            # Edge lists stream per frontier vertex.
            patterns.append(
                AccessPattern(
                    Region.EDGE,
                    total_bytes=num_edges * edge_bytes,
                    run_bytes=mean_list * edge_bytes,
                )
            )
            # Destination-property gathers/atomics: one sector per edge
            # miss.  BFS/CC-style idempotent primitives touch a compact
            # status array instead of a full property sector.
            hit_rate = (
                cfg.pull_l2_hit_rate
                if self._is_pull_based()
                else cfg.l2_hit_rate
            )
            miss = 1.0 - hit_rate
            idempotent = self._is_idempotent()
            gather_bytes = (
                cfg.idempotent_gather_bytes if idempotent else cfg.sector_bytes
            )
            patterns.append(
                AccessPattern(
                    Region.TEMP_PROP,
                    total_bytes=int(num_edges * gather_bytes * miss),
                    run_bytes=float(gather_bytes),
                )
            )
            patterns.append(
                AccessPattern(
                    Region.TEMP_PROP,
                    total_bytes=int(
                        num_edges
                        * gather_bytes
                        * miss
                        * cfg.dirty_writeback_fraction
                    ),
                    run_bytes=float(gather_bytes),
                    is_write=True,
                )
            )
            # Online preprocessing (TWC partitioning + compaction scans).
            patterns.append(
                AccessPattern(
                    Region.METADATA,
                    total_bytes=(
                        num_active * cfg.preprocess_bytes_per_vertex
                        + num_edges * cfg.preprocess_bytes_per_edge
                    ),
                    run_bytes=256.0,
                )
            )
        # Apply-side property update: touched vertices, sector-granular.
        if data.num_modified:
            patterns.append(
                AccessPattern(
                    Region.VERTEX_PROP,
                    total_bytes=data.num_modified * cfg.sector_bytes,
                    run_bytes=float(cfg.sector_bytes),
                    is_write=True,
                )
            )
        if data.num_activated:
            patterns.append(
                AccessPattern(
                    Region.ACTIVE_VERTEX,
                    total_bytes=data.num_activated * 4,
                    run_bytes=float(max(data.num_activated, 1)) * 4.0,
                    is_write=True,
                )
            )
        service = self.hbm.service(patterns)
        self.traffic.add_all(patterns)

        # ------------------------- atomics -------------------------
        if self._is_idempotent() or self._is_pull_based():
            atomic_cycles = 0.0  # no read-modify-write contention
        else:
            conflicts = frontier.memo(
                frontier_stats.grouped_duplicate_count, cfg.atomic_window
            )
            atomic_cycles = conflicts * cfg.atomic_stall_cycles
        self.stall_cycles += atomic_cycles

        overhead = cfg.kernels_per_iteration * cfg.kernel_overhead_cycles
        total = (
            max(compute_cycles, service.cycles) + atomic_cycles + overhead
        )
        rec = get_recorder()
        if rec.enabled:
            # The whole Gunrock iteration reports as one scatter phase
            # (apply cost is folded in), so "scatter" covers `total`.
            t0 = rec.clock.now
            advance_cycles = max(compute_cycles, service.cycles)
            rec.complete_span(
                "scatter",
                begin=t0,
                duration=total,
                track="Gunrock",
                iteration=data.iteration,
                edges=num_edges,
            )
            rec.complete_span(
                "advance.compute",
                begin=t0,
                duration=compute_cycles,
                track="Gunrock.compute",
            )
            rec.complete_span(
                "advance.memory",
                begin=t0,
                duration=service.cycles,
                track="Gunrock.memory",
            )
            if atomic_cycles:
                rec.complete_span(
                    "atomics",
                    begin=t0 + advance_cycles,
                    duration=atomic_cycles,
                    track="Gunrock",
                )
            rec.complete_span(
                "kernel_overhead",
                begin=t0 + total - overhead,
                duration=overhead,
                track="Gunrock",
            )
            rec.counter("gunrock.edges").add(num_edges)
            rec.counter("gunrock.stall_cycles").add(atomic_cycles)
        rec.clock.advance(total)
        self.phases.append(
            PhaseBreakdown(
                iteration=data.iteration,
                scatter_cycles=total,
                apply_cycles=0.0,
                scatter_compute_cycles=compute_cycles,
                scatter_memory_cycles=service.cycles,
                scatter_stall_cycles=atomic_cycles,
            )
        )
        self.total_cycles += total
        self.edges_processed += num_edges
        self.vertices_processed += data.num_modified

    def report(self) -> RunReport:
        edge_bytes = 8 if self.spec.uses_weights else 4
        storage = self.graph.storage_bytes(
            edge_bytes=edge_bytes,
            include_source_ids=False,
            metadata_factor=self.config.metadata_storage_factor,
        )
        return RunReport(
            system="Gunrock",
            algorithm=self.spec.name,
            graph_name=self.graph.name,
            cycles=self.total_cycles,
            frequency_hz=self.config.frequency_hz,
            edges_processed=self.edges_processed,
            vertices_processed=self.vertices_processed,
            iterations=len(self.phases),
            traffic=self.traffic,
            peak_bytes_per_cycle=self.config.hbm.peak_bytes_per_cycle,
            phases=self.phases,
            stall_cycles=self.stall_cycles,
            storage_bytes=storage,
            extra={"warp_excess_work": float(self.warp_excess_work)},
        )


class Gunrock:
    """The GPU baseline of Table 3."""

    def __init__(self, config: GPUConfig = V100_GUNROCK) -> None:
        self.config = config

    def run(
        self,
        graph: CSRGraph,
        spec: AlgorithmSpec,
        source: Optional[int] = 0,
        max_iterations: Optional[int] = None,
    ) -> Tuple[VCPMResult, RunReport]:
        """Execute ``spec`` on ``graph`` under the GPU timing model."""
        timing = GunrockTimingModel(graph, spec, self.config)
        result = run_vcpm(
            graph,
            spec,
            source=source,
            max_iterations=max_iterations,
            observers=[timing],
        )
        return result, timing.report()
