"""Per-iteration timing model of the GraphDynS accelerator.

Subscribes to the functional engine (:class:`~repro.vcpm.engine.
IterationObserver`) and converts each iteration's structural data into
cycles, following the hardware-platform stages of Fig. 3:

**Scatter phase** -- three concurrent sub-datapaths; the phase takes as long
as the slowest (they are pipelined against each other), plus the pipeline
fill latency of the first prefetch:

* *workload management*: Dispatcher balance determines the busiest PE; the
  S2V unit's lane packing sets edges/cycle per PE;
* *data access*: the Prefetcher's access patterns through the HBM model;
* *data update*: the crossbar serializes same-UE results; the Reduce
  Pipeline adds zero stalls (or conflict stalls with AO disabled).

**Apply phase** -- the Ready-to-Update Bitmap selects work (all vertices
with US disabled); vertex data streams from HBM; activations coalesce into
bursts.

The model is deliberately *structural*: every quantity (per-PE loads,
crossbar collisions, RAW hazards, coalesced run lengths, bitmap blocks)
comes from the actual data-dependent behaviour of the run, not from fitted
curves.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from ..core import frontier_stats
from ..core.coalesce import coalesced_store_bursts
from ..core.update_bitmap import ReadyToUpdateBitmap
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
from .config import DEFAULT_CONFIG, GraphDynSConfig

__all__ = ["GraphDynSTimingModel"]

#: Extra cycles a RAW conflict costs a stall-on-conflict reducer (pipeline
#: depth minus one).
_RAW_STALL_CYCLES = 2.0

#: In-flight window for conflict detection without the zero-stall pipeline
#: (ops collide only inside one UE's short pipeline).
_RAW_CONFLICT_WINDOW = 8

#: DRAM fetch granularity for non-exact prefetching: without edgeCnt the
#: prefetcher rounds every edge list up to whole sectors.
_SECTOR_BYTES = 32


class GraphDynSTimingModel:
    """Accumulates modeled cycles for one (graph, algorithm) run."""

    def __init__(
        self,
        graph: CSRGraph,
        spec: AlgorithmSpec,
        config: GraphDynSConfig = DEFAULT_CONFIG,
    ) -> None:
        self.graph = graph
        self.spec = spec
        self.config = config
        self.hbm = HBMModel(config.hbm, owner="GraphDynS")
        self.traffic = TrafficLedger()
        self.crossbar = Crossbar(config.num_ues, config.total_lanes)
        self.slice_plan = plan_slices(
            graph.num_vertices, config.vb_total_bytes, tprop_bytes=4
        )
        self.phases: List[PhaseBreakdown] = []
        self.total_cycles = 0.0
        self.edges_processed = 0
        self.vertices_processed = 0
        self.scheduling_ops = 0
        self.update_operations = 0
        self.stall_cycles = 0.0

    # ------------------------------------------------------------------
    # Per-iteration hook
    # ------------------------------------------------------------------
    def on_iteration(self, data: IterationData) -> None:
        rec = get_recorder()
        with rec.span(
            "graphdyns.iteration", track="GraphDynS", iteration=data.iteration
        ):
            sched_before = self.scheduling_ops
            updates_before = self.update_operations
            scatter = self._scatter_cycles(data)
            if rec.enabled:
                # The three scatter sub-datapaths run concurrently
                # (the phase is their max), so they live on their own
                # tracks and overlap the covering "scatter" span.
                t0 = rec.clock.now
                rec.complete_span(
                    "scatter",
                    begin=t0,
                    duration=scatter.scatter_cycles,
                    track="GraphDynS",
                    edges=data.num_edges,
                )
                rec.complete_span(
                    "scatter.dispatch",
                    begin=t0,
                    duration=scatter.scatter_compute_cycles,
                    track="GraphDynS.compute",
                )
                rec.complete_span(
                    "scatter.prefetch",
                    begin=t0,
                    duration=scatter.scatter_memory_cycles,
                    track="GraphDynS.memory",
                )
                rec.complete_span(
                    "scatter.reduce",
                    begin=t0,
                    duration=scatter.scatter_update_cycles,
                    track="GraphDynS.update",
                )
                if scatter.scatter_stall_cycles:
                    rec.complete_span(
                        "scatter.raw_stall",
                        begin=t0
                        + scatter.scatter_update_cycles
                        - scatter.scatter_stall_cycles,
                        duration=scatter.scatter_stall_cycles,
                        track="GraphDynS.update",
                    )
            rec.clock.advance(scatter.scatter_cycles)
            apply_cycles = self._apply_cycles(data)
            if rec.enabled:
                rec.complete_span(
                    "apply",
                    begin=rec.clock.now,
                    duration=apply_cycles,
                    track="GraphDynS",
                    updates=self.update_operations - updates_before,
                )
                rec.counter("graphdyns.edges").add(data.num_edges)
                rec.counter("graphdyns.scheduling_ops").add(
                    self.scheduling_ops - sched_before
                )
                rec.counter("graphdyns.update_operations").add(
                    self.update_operations - updates_before
                )
                rec.counter("graphdyns.stall_cycles").add(
                    scatter.scatter_stall_cycles
                )
                rec.histogram("graphdyns.active_degree").observe_many(
                    data.active_degrees
                )
            rec.clock.advance(apply_cycles)
        phase = dataclasses.replace(scatter, apply_cycles=apply_cycles)
        self.phases.append(phase)
        self.total_cycles += phase.total_cycles
        self.edges_processed += data.num_edges

    # ------------------------------------------------------------------
    # Scatter phase
    # ------------------------------------------------------------------
    def _scatter_cycles(self, data: IterationData) -> PhaseBreakdown:
        cfg = self.config
        num_slices = self.slice_plan.num_slices

        if data.num_edges == 0:
            return PhaseBreakdown(
                iteration=data.iteration, scatter_cycles=0.0, apply_cycles=0.0
            )

        frontier = data.frontier
        # --- Workload management sub-datapath ---
        if cfg.enable_workload_balance:
            outcome = frontier.memo(
                frontier_stats.balanced_dispatch, cfg.num_pes, cfg.e_threshold
            )
            # Sub-lists are bounded by eListSize for the S2V queues.
            list_bound = cfg.e_list_size
        else:
            outcome = frontier.memo(frontier_stats.hash_dispatch, cfg.num_pes)
            list_bound = None
        self.scheduling_ops += outcome.scheduling_ops
        vec = frontier.memo(
            frontier_stats.vectorize_workloads, list_bound, cfg.n_simt
        )
        lane_eff = max(vec.lane_efficiency, 1e-3)
        compute_cycles = outcome.max_load / (cfg.n_simt * lane_eff)

        # --- Data update sub-datapath (crossbar + Reduce Pipeline) ---
        xbar = self.crossbar.route_batch(
            data.dst_loads(self.crossbar.num_outputs)
        )
        update_cycles = float(xbar.cycles)
        stall = 0.0
        if not cfg.enable_atomic_optimization:
            conflicts = frontier.memo(
                frontier_stats.grouped_duplicate_count, _RAW_CONFLICT_WINDOW
            )
            stall = conflicts * _RAW_STALL_CYCLES
        update_cycles += stall
        self.stall_cycles += stall

        # --- Data access sub-datapath (Prefetcher + HBM) ---
        patterns = self._scatter_patterns(data, num_slices)
        service = self.hbm.service(patterns)
        self.traffic.add_all(patterns)
        memory_cycles = service.cycles

        startup = cfg.hbm.base_latency_cycles * num_slices
        if not cfg.enable_exact_prefetch:
            # Edge prefetch cannot start until the offset round-trip
            # completes (the serialization exact prefetching removes).
            startup += cfg.hbm.base_latency_cycles
        total = max(compute_cycles, update_cycles, memory_cycles) + startup
        return PhaseBreakdown(
            iteration=data.iteration,
            scatter_cycles=total,
            apply_cycles=0.0,
            scatter_compute_cycles=compute_cycles,
            scatter_memory_cycles=memory_cycles,
            scatter_update_cycles=update_cycles,
            scatter_stall_cycles=stall,
        )

    def _scatter_patterns(
        self, data: IterationData, num_slices: int
    ) -> List[AccessPattern]:
        cfg = self.config
        weighted = self.spec.uses_weights
        if cfg.enable_exact_prefetch:
            plan = data.frontier.memo(
                frontier_stats.plan_exact_prefetch, weighted
            )
            patterns = list(plan.patterns)
        else:
            # Without the exact indication the Prefetcher must chase the
            # offset array (one random sector per active vertex) and fetch
            # each edge list separately at sector granularity -- small
            # lists waste most of each fetch ("wasting up to half of the
            # bandwidth", Section 5.2.1).
            edge_bytes = 8 if weighted else 4
            num_active = data.num_active
            # Consecutive active ids keep some physical adjacency, so the
            # row buffer still merges part of the fragmentation; the waste
            # that remains is the sector padding itself.
            id_breaks = (
                1 + int(np.count_nonzero(np.diff(data.active_ids) > 1))
                if num_active > 1
                else max(num_active, 1)
            )
            patterns = [
                AccessPattern(
                    Region.ACTIVE_VERTEX,
                    total_bytes=num_active * 8,
                    run_bytes=float(max(num_active * 8, 1)),
                ),
                AccessPattern(
                    Region.OFFSET,
                    total_bytes=num_active * 8,
                    run_bytes=float(max(num_active * 8 / id_breaks, 8.0)),
                ),
            ]
            if data.num_edges:
                list_bytes = np.multiply(
                    data.active_degrees, edge_bytes, dtype=np.int64
                )
                padded = (
                    -(-list_bytes // _SECTOR_BYTES)
                ) * _SECTOR_BYTES
                nonzero = padded[data.active_degrees > 0]
                total_padded = int(nonzero.sum())
                mean_run = (
                    float(total_padded / id_breaks)
                    if id_breaks
                    else float(_SECTOR_BYTES)
                )
                patterns.append(
                    AccessPattern(
                        Region.EDGE,
                        total_bytes=total_padded,
                        run_bytes=max(mean_run, float(_SECTOR_BYTES)),
                    )
                )
        if num_slices > 1:
            # Every slice re-reads the active vertex data (Section 7.2) and
            # sees shorter contiguous edge runs.
            scaled: List[AccessPattern] = []
            for pattern in patterns:
                if pattern.region is Region.ACTIVE_VERTEX:
                    scaled.append(
                        dataclasses.replace(
                            pattern,
                            total_bytes=pattern.total_bytes * num_slices,
                        )
                    )
                elif pattern.region is Region.EDGE:
                    scaled.append(
                        dataclasses.replace(
                            pattern,
                            run_bytes=max(
                                pattern.run_bytes / num_slices, 8.0
                            ),
                        )
                    )
                else:
                    scaled.append(pattern)
            patterns = scaled
        return patterns

    # ------------------------------------------------------------------
    # Apply phase
    # ------------------------------------------------------------------
    def _apply_cycles(self, data: IterationData) -> float:
        cfg = self.config
        num_vertices = data.num_vertices
        if num_vertices == 0:
            return 0.0

        if cfg.enable_update_scheduling:
            scheduled = ReadyToUpdateBitmap.scheduled_count(
                data.modified_ids, num_vertices, cfg.bitmap_block_size
            )
            run_bytes = float(cfg.bitmap_block_size) * 4.0
        else:
            scheduled = num_vertices
            run_bytes = float(num_vertices) * 4.0
        self.update_operations += scheduled
        self.vertices_processed += scheduled
        if scheduled == 0:
            return 0.0

        compute_cycles = scheduled / cfg.total_lanes

        prop_bytes = 8 if self.spec.uses_degree_cprop else 4
        patterns = [
            # Vertex property (+ degree for PR) reads, block-granular runs.
            AccessPattern(
                Region.VERTEX_PROP,
                total_bytes=scheduled * prop_bytes,
                run_bytes=run_bytes * prop_bytes / 4.0,
            ),
            # Offset array read for edgeCnt of activations (Algorithm 2).
            AccessPattern(
                Region.OFFSET, total_bytes=scheduled * 4, run_bytes=run_bytes
            ),
            # Updated properties written back together (conditional store).
            AccessPattern(
                Region.VERTEX_PROP,
                total_bytes=scheduled * 4,
                run_bytes=run_bytes,
                is_write=True,
            ),
        ]
        if data.num_activated:
            bursts, mean_burst = coalesced_store_bursts(
                data.num_activated,
                cfg.num_ues,
                cfg.au_queue_entries,
                cfg.active_record_bytes,
            )
            patterns.append(
                AccessPattern(
                    Region.ACTIVE_VERTEX,
                    total_bytes=data.num_activated * cfg.active_record_bytes,
                    run_bytes=max(mean_burst, float(cfg.active_record_bytes)),
                    is_write=True,
                )
            )
        service = self.hbm.service(patterns)
        self.traffic.add_all(patterns)
        return max(compute_cycles, service.cycles) + cfg.hbm.base_latency_cycles / 2.0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> RunReport:
        """Run-level summary consumed by the figure regenerators."""
        edge_bytes = 8 if self.spec.uses_weights else 4
        storage = self.graph.storage_bytes(
            edge_bytes=edge_bytes, include_source_ids=False
        )
        return RunReport(
            system="GraphDynS",
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
