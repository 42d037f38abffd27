"""Per-iteration timing model of the Graphicionado baseline.

Same observer interface as :class:`~repro.graphdyns.timing.
GraphDynSTimingModel`, so one functional run can drive both models on
identical data-dependent behaviour.  The structural differences:

* **dispatch**: whole edge lists hash to streams by source vertex id -- no
  splitting, no balancing; the busiest stream bounds compute throughput;
* **atomics**: RAW conflicts within the in-flight window stall the
  pipelines instead of being forwarded;
* **prefetch**: per-vertex edge fetches with ``src_vid`` records and a
  sentinel read (no coalescing, 1.65x edge bytes); the offset array lives
  in the second half of the 64 MB eDRAM so it costs no off-chip traffic;
* **apply**: every vertex is read, applied, and written every iteration;
  activations store ``(vid, prop)`` records one at a time.
"""

from __future__ import annotations

import dataclasses
from typing import List

from ..core import frontier_stats
from ..graph.csr import CSRGraph
from ..graph.slicing import plan_slices
from ..memory.crossbar import Crossbar
from ..memory.hbm import HBMModel
from ..memory.request import AccessPattern, Region
from ..memory.traffic import TrafficLedger
from ..metrics.counters import PhaseBreakdown, RunReport
from ..obs import get_recorder
from ..vcpm.engine import IterationData
from ..vcpm.spec import AlgorithmSpec
from .config import GRAPHICIONADO_CONFIG, GraphicionadoConfig

__all__ = ["GraphicionadoTimingModel"]


class GraphicionadoTimingModel:
    """Accumulates modeled cycles for one run on the baseline accelerator."""

    def __init__(
        self,
        graph: CSRGraph,
        spec: AlgorithmSpec,
        config: GraphicionadoConfig = GRAPHICIONADO_CONFIG,
    ) -> None:
        self.graph = graph
        self.spec = spec
        self.config = config
        self.hbm = HBMModel(config.hbm, owner="Graphicionado")
        self.traffic = TrafficLedger()
        # Destination-side: one reduce engine per stream, hash by dst.
        self.crossbar = Crossbar(config.num_streams, config.num_streams)
        self.slice_plan = plan_slices(
            graph.num_vertices, config.vb_capacity_bytes, tprop_bytes=4
        )
        self.phases: List[PhaseBreakdown] = []
        self.total_cycles = 0.0
        self.edges_processed = 0
        self.vertices_processed = 0
        self.scheduling_ops = 0
        self.update_operations = 0
        self.stall_cycles = 0.0

    def on_iteration(self, data: IterationData) -> None:
        rec = get_recorder()
        with rec.span(
            "graphicionado.iteration",
            track="Graphicionado",
            iteration=data.iteration,
        ):
            scatter = self._scatter_cycles(data)
            if rec.enabled:
                t0 = rec.clock.now
                rec.complete_span(
                    "scatter",
                    begin=t0,
                    duration=scatter.scatter_cycles,
                    track="Graphicionado",
                    edges=data.num_edges,
                )
                rec.complete_span(
                    "scatter.dispatch",
                    begin=t0,
                    duration=scatter.scatter_compute_cycles,
                    track="Graphicionado.compute",
                )
                rec.complete_span(
                    "scatter.prefetch",
                    begin=t0,
                    duration=scatter.scatter_memory_cycles,
                    track="Graphicionado.memory",
                )
                rec.complete_span(
                    "scatter.reduce",
                    begin=t0,
                    duration=scatter.scatter_update_cycles,
                    track="Graphicionado.update",
                )
            rec.clock.advance(scatter.scatter_cycles)
            apply_cycles = self._apply_cycles(data)
            if rec.enabled:
                rec.complete_span(
                    "apply",
                    begin=rec.clock.now,
                    duration=apply_cycles,
                    track="Graphicionado",
                )
                rec.counter("graphicionado.edges").add(data.num_edges)
                rec.counter("graphicionado.stall_cycles").add(
                    scatter.scatter_stall_cycles
                )
            rec.clock.advance(apply_cycles)
        phase = dataclasses.replace(scatter, apply_cycles=apply_cycles)
        self.phases.append(phase)
        self.total_cycles += phase.total_cycles
        self.edges_processed += data.num_edges

    # ------------------------------------------------------------------
    def _scatter_cycles(self, data: IterationData) -> PhaseBreakdown:
        cfg = self.config
        if data.num_edges == 0:
            return PhaseBreakdown(
                iteration=data.iteration, scatter_cycles=0.0, apply_cycles=0.0
            )

        # Hash-based source-side distribution: the busiest stream bounds
        # throughput (each stream retires one edge per cycle).
        frontier = data.frontier
        outcome = frontier.memo(frontier_stats.hash_dispatch, cfg.num_streams)
        # Every edge is a front-end scheduling decision.
        self.scheduling_ops += outcome.scheduling_ops
        compute_cycles = float(outcome.max_load)

        # Destination-side reduce engines, hash by dst, with stall-on-
        # conflict atomicity.
        xbar = self.crossbar.route_batch(
            data.dst_loads(self.crossbar.num_outputs)
        )
        conflicts = frontier.memo(
            frontier_stats.grouped_duplicate_count, cfg.conflict_window
        )
        stall = conflicts * cfg.conflict_stall_cycles
        update_cycles = float(xbar.cycles) + stall
        self.stall_cycles += stall

        plan = frontier.memo(
            frontier_stats.plan_baseline_fetch, self.spec.uses_weights
        )
        patterns = list(plan.patterns)
        num_slices = self.slice_plan.num_slices
        if num_slices > 1:
            patterns = [
                dataclasses.replace(
                    p, total_bytes=p.total_bytes * num_slices
                )
                if p.region is Region.ACTIVE_VERTEX
                else p
                for p in patterns
            ]
        service = self.hbm.service(patterns)
        self.traffic.add_all(patterns)

        startup = cfg.hbm.base_latency_cycles * num_slices
        # Graphicionado serializes the random access to each edge list's
        # start: no exact indication, so prefetch begins only after the
        # active vertex id arrives (extra latency per iteration).
        startup += cfg.hbm.base_latency_cycles
        total = max(compute_cycles, update_cycles, service.cycles) + startup
        return PhaseBreakdown(
            iteration=data.iteration,
            scatter_cycles=total,
            apply_cycles=0.0,
            scatter_compute_cycles=compute_cycles,
            scatter_memory_cycles=service.cycles,
            scatter_update_cycles=update_cycles,
            scatter_stall_cycles=stall,
        )

    # ------------------------------------------------------------------
    def _apply_cycles(self, data: IterationData) -> float:
        cfg = self.config
        num_vertices = data.num_vertices
        if num_vertices == 0:
            return 0.0
        # Full-vertex Apply: every property is checked every iteration.
        scheduled = num_vertices
        self.update_operations += scheduled
        self.vertices_processed += scheduled

        compute_cycles = scheduled / cfg.num_streams
        prop_bytes = 8 if self.spec.uses_degree_cprop else 4
        patterns = [
            AccessPattern(
                Region.VERTEX_PROP,
                total_bytes=scheduled * prop_bytes,
                run_bytes=float(scheduled * prop_bytes),
            ),
            AccessPattern(
                Region.VERTEX_PROP,
                total_bytes=scheduled * 4,
                run_bytes=float(scheduled) * 4.0,
                is_write=True,
            ),
        ]
        if data.num_activated:
            # Uncoalesced (vid, prop) stores as the branch fires.
            patterns.append(
                AccessPattern(
                    Region.ACTIVE_VERTEX,
                    total_bytes=data.num_activated * cfg.active_record_bytes,
                    run_bytes=float(cfg.active_record_bytes),
                    is_write=True,
                )
            )
        service = self.hbm.service(patterns)
        self.traffic.add_all(patterns)
        return (
            max(compute_cycles, service.cycles)
            + cfg.hbm.base_latency_cycles / 2.0
        )

    # ------------------------------------------------------------------
    def report(self) -> RunReport:
        edge_bytes = (
            self.config.edge_bytes_weighted
            if self.spec.uses_weights
            else self.config.edge_bytes_unweighted
        )
        storage = self.graph.storage_bytes(
            edge_bytes=edge_bytes - 4, include_source_ids=True
        )
        return RunReport(
            system="Graphicionado",
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
            scheduling_ops=self.scheduling_ops,
            update_operations=self.update_operations,
            stall_cycles=self.stall_cycles,
            storage_bytes=storage,
        )
