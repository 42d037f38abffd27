"""Per-iteration timing model of the DCA decentralized accelerator.

Same observer interface as the GraphDynS/Graphicionado/Gunrock models,
so one functional run drives all four on identical data-dependent
behaviour.  The structural differences from GraphDynS (its direct
ancestor):

* **decentralized dispatch** — each lane pulls balanced work itself;
  scheduling cost is one decision per active vertex, not a per-edge
  central front-end;
* **ownership routing instead of a crossbar** — every destination
  vertex belongs to exactly one lane (``dst % num_lanes``); the update
  bound is the *busiest owner lane*, plus a fixed router hop, with no
  128-radix arbitration;
* **conflict-free reduces** — same-destination results meet inside one
  lane's reduce unit, which forwards operands back-to-back, so RAW
  conflicts never stall (GraphDynS needs its zero-stall pipeline trick;
  DCA gets the property by construction);
* **banked Apply** — the ready-to-update bitmap and apply units are
  banked per lane; the phase is bounded by the busiest bank, not the
  aggregate lane count.
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
from ..memory.hbm import HBMModel
from ..memory.request import AccessPattern, Region
from ..memory.traffic import TrafficLedger
from ..metrics.counters import PhaseBreakdown, RunReport
from ..obs import get_recorder
from ..vcpm.engine import IterationData
from ..vcpm.spec import AlgorithmSpec
from .config import DCA_CONFIG, DCAConfig

__all__ = ["DCATimingModel"]


class DCATimingModel:
    """Accumulates modeled cycles for one (graph, algorithm) run on DCA."""

    def __init__(
        self,
        graph: CSRGraph,
        spec: AlgorithmSpec,
        config: DCAConfig = DCA_CONFIG,
    ) -> None:
        self.graph = graph
        self.spec = spec
        self.config = config
        self.hbm = HBMModel(config.hbm, owner="DCA")
        self.traffic = TrafficLedger()
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
            "dca.iteration", track="DCA", iteration=data.iteration
        ):
            updates_before = self.update_operations
            scatter = self._scatter_cycles(data)
            if rec.enabled:
                t0 = rec.clock.now
                rec.complete_span(
                    "scatter",
                    begin=t0,
                    duration=scatter.scatter_cycles,
                    track="DCA",
                    edges=data.num_edges,
                )
                rec.complete_span(
                    "scatter.dispatch",
                    begin=t0,
                    duration=scatter.scatter_compute_cycles,
                    track="DCA.compute",
                )
                rec.complete_span(
                    "scatter.prefetch",
                    begin=t0,
                    duration=scatter.scatter_memory_cycles,
                    track="DCA.memory",
                )
                rec.complete_span(
                    "scatter.reduce",
                    begin=t0,
                    duration=scatter.scatter_update_cycles,
                    track="DCA.update",
                )
            rec.clock.advance(scatter.scatter_cycles)
            apply_cycles = self._apply_cycles(data)
            if rec.enabled:
                rec.complete_span(
                    "apply",
                    begin=rec.clock.now,
                    duration=apply_cycles,
                    track="DCA",
                    updates=self.update_operations - updates_before,
                )
                rec.counter("dca.edges").add(data.num_edges)
                rec.counter("dca.update_operations").add(
                    self.update_operations - updates_before
                )
                rec.histogram("dca.lane_load").observe(
                    self._owner_imbalance(data)
                )
            rec.clock.advance(apply_cycles)
        phase = dataclasses.replace(scatter, apply_cycles=apply_cycles)
        self.phases.append(phase)
        self.total_cycles += phase.total_cycles
        self.edges_processed += data.num_edges

    # ------------------------------------------------------------------
    def _owner_imbalance(self, data: IterationData) -> float:
        if data.num_edges == 0:
            return 0.0
        loads = data.dst_loads(self.config.num_lanes)
        return float(loads.max() / max(loads.mean(), 1e-9))

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

        # --- Decentralized work distribution ---
        # Lanes pull balanced chunks themselves; the only front-end cost
        # is one decision per active vertex (vs GraphDynS's per-split
        # central Dispatcher ops).
        frontier = data.frontier
        outcome = frontier.memo(
            frontier_stats.balanced_dispatch, cfg.num_lanes, cfg.e_threshold
        )
        self.scheduling_ops += data.num_active
        vec = frontier.memo(
            frontier_stats.vectorize_workloads, cfg.e_list_size, cfg.n_simt
        )
        lane_eff = max(vec.lane_efficiency, 1e-3)
        compute_cycles = outcome.max_load / (cfg.n_simt * lane_eff)

        # --- Ownership-routed update (no crossbar) ---
        # Each destination has exactly one owner lane; the busiest owner
        # bounds the update sub-datapath.  In-lane operand forwarding
        # makes same-destination reduces conflict-free, so there is no
        # stall term at all.
        loads = data.dst_loads(cfg.num_lanes)
        update_cycles = float(loads.max()) + cfg.router_hop_cycles

        # --- Data access (exact prefetch, shared HBM) ---
        plan = frontier.memo(
            frontier_stats.plan_exact_prefetch, self.spec.uses_weights
        )
        patterns = list(plan.patterns)
        if num_slices > 1:
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
        service = self.hbm.service(patterns)
        self.traffic.add_all(patterns)

        startup = cfg.hbm.base_latency_cycles * num_slices
        total = max(compute_cycles, update_cycles, service.cycles) + startup
        return PhaseBreakdown(
            iteration=data.iteration,
            scatter_cycles=total,
            apply_cycles=0.0,
            scatter_compute_cycles=compute_cycles,
            scatter_memory_cycles=service.cycles,
            scatter_update_cycles=update_cycles,
            scatter_stall_cycles=0.0,
        )

    # ------------------------------------------------------------------
    # Apply phase
    # ------------------------------------------------------------------
    def _apply_cycles(self, data: IterationData) -> float:
        cfg = self.config
        num_vertices = data.num_vertices
        if num_vertices == 0:
            return 0.0

        scheduled = ReadyToUpdateBitmap.scheduled_count(
            data.modified_ids, num_vertices, cfg.bitmap_block_size
        )
        self.update_operations += scheduled
        self.vertices_processed += scheduled
        if scheduled == 0:
            return 0.0

        # Banked Apply: modified vertices land on their owner lanes; the
        # busiest bank bounds the phase.  Bitmap blocks interleave over
        # lanes, so bank load is the scheduled count of the worst lane.
        if data.num_modified:
            bank_loads = np.bincount(
                data.modified_ids % cfg.num_lanes, minlength=cfg.num_lanes
            )
            # Each bank applies n_simt vertices per cycle.
            busiest = float(bank_loads.max()) * (
                scheduled / max(data.num_modified, 1)
            )
            compute_cycles = busiest / cfg.n_simt
        else:
            compute_cycles = scheduled / cfg.total_lanes

        run_bytes = float(cfg.bitmap_block_size) * 4.0
        prop_bytes = 8 if self.spec.uses_degree_cprop else 4
        patterns = [
            AccessPattern(
                Region.VERTEX_PROP,
                total_bytes=scheduled * prop_bytes,
                run_bytes=run_bytes * prop_bytes / 4.0,
            ),
            AccessPattern(
                Region.OFFSET, total_bytes=scheduled * 4, run_bytes=run_bytes
            ),
            AccessPattern(
                Region.VERTEX_PROP,
                total_bytes=scheduled * 4,
                run_bytes=run_bytes,
                is_write=True,
            ),
        ]
        if data.num_activated:
            # Per-lane activation queues coalesce stores exactly like
            # GraphDynS's AU queues, just banked by owner lane.
            bursts, mean_burst = coalesced_store_bursts(
                data.num_activated,
                cfg.num_lanes,
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
        return (
            max(compute_cycles, service.cycles)
            + cfg.hbm.base_latency_cycles / 2.0
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> RunReport:
        """Run-level summary in the shared cross-backend schema."""
        edge_bytes = 8 if self.spec.uses_weights else 4
        storage = self.graph.storage_bytes(
            edge_bytes=edge_bytes, include_source_ids=False
        )
        return RunReport(
            system="DCA",
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
