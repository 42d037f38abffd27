"""Component-level Graphicionado stream model.

A functional, stream-by-stream replay of the Graphicionado design as the
GraphDynS paper describes it:

* **source-oriented streams** walk each active vertex's edge list
  *sequentially*, reading ``src_vid``-tagged edge records and detecting the
  end of the list by a tag mismatch (one sentinel read per vertex);
* edges hash to streams by **source vertex id** (no splitting);
* **destination-oriented reduce engines** (hash by destination) perform
  the Reduce with stall-on-conflict atomicity;
* the **Apply unit** walks *every* vertex each iteration and emits
  ``(vid, prop)`` activation records one at a time.

Integration tests assert this path computes exactly what the vectorized
engine computes, and that its counted inefficiencies (sentinel reads,
per-edge scheduling, full-vertex apply) match the closed forms the timing
model charges.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.reduce_pipeline import StallingReducePipeline
from ..graph.csr import CSRGraph
from ..vcpm.spec import AlgorithmSpec
from .config import GRAPHICIONADO_CONFIG, GraphicionadoConfig

__all__ = ["StreamRunResult", "GraphicionadoStreams"]


@dataclasses.dataclass
class StreamRunResult:
    """Outcome of a component-level Graphicionado run."""

    properties: np.ndarray
    num_iterations: int
    converged: bool
    edge_records_read: int   # includes sentinel reads
    edges_processed: int
    scheduling_ops: int
    apply_operations: int
    atomic_stall_cycles: int

    @property
    def sentinel_reads(self) -> int:
        """Wasted edge-record fetches (the src_vid end-of-list probes)."""
        return self.edge_records_read - self.edges_processed


class GraphicionadoStreams:
    """The baseline pipeline, stream by stream.

    Each reduce engine replays its ops through
    :class:`StallingReducePipeline`, op by op.
    """

    def __init__(
        self,
        spec: AlgorithmSpec,
        config: GraphicionadoConfig = GRAPHICIONADO_CONFIG,
    ) -> None:
        self.spec = spec
        self.config = config

    # ------------------------------------------------------------------
    def _walk_edge_list(
        self, graph: CSRGraph, vertex: int
    ) -> Tuple[List[int], int]:
        """Sequentially read edge records until the src tag mismatches.

        Returns the edge indices of ``vertex`` and the number of records
        *fetched* (edges + the sentinel probe, unless the array ends).
        """
        start = int(graph.offsets[vertex])
        stop = int(graph.offsets[vertex + 1])
        indices = list(range(start, stop))
        fetched = len(indices)
        if stop < graph.num_edges:
            fetched += 1  # the mismatching record that ends the walk
        return indices, fetched

    # ------------------------------------------------------------------
    def run(
        self,
        graph: CSRGraph,
        source: Optional[int] = 0,
        max_iterations: Optional[int] = None,
    ) -> StreamRunResult:
        """Execute the algorithm through the stream pipeline."""
        spec = self.spec
        cfg = self.config
        num_vertices = graph.num_vertices
        if max_iterations is None:
            max_iterations = spec.default_max_iterations
        if not spec.needs_source:
            source = None

        prop = spec.initial_prop(num_vertices, source)
        deg = graph.out_degree().astype(np.float64)
        c_prop = deg if spec.uses_degree_cprop else np.zeros(num_vertices)
        if spec.uses_degree_cprop and num_vertices:
            prop = prop / np.maximum(c_prop, 1.0)
        t_prop: Dict[int, float] = {}

        if spec.all_vertices_active_initially:
            active = list(range(num_vertices))
        elif source is not None and num_vertices:
            active = [source]
        else:
            active = []

        edge_records_read = 0
        edges_processed = 0
        scheduling_ops = 0
        apply_operations = 0
        stall_cycles = 0
        converged = False
        iterations = 0

        for _ in range(max_iterations):
            if not active:
                converged = True
                break

            # --- Scatter: per-stream sequential edge walks ---
            per_engine_ops: List[List[Tuple[int, float]]] = [
                [] for _ in range(cfg.num_streams)
            ]
            for vertex in active:
                indices, fetched = self._walk_edge_list(graph, vertex)
                edge_records_read += fetched
                for edge_index in indices:
                    dst = int(graph.edges[edge_index])
                    value = spec.process_edge_scalar(
                        float(prop[vertex]), float(graph.weights[edge_index])
                    )
                    # Destination-hash to a reduce engine; every edge is a
                    # front-end scheduling decision.
                    per_engine_ops[dst % cfg.num_streams].append((dst, value))
                    scheduling_ops += 1
                    edges_processed += 1

            # --- Reduce engines: stall-on-conflict pipelines ---
            for ops in per_engine_ops:
                if not ops:
                    continue
                seeded = {
                    addr: t_prop.get(addr, spec.reduce_op.identity)
                    for addr, _ in ops
                }
                outcome = StallingReducePipeline(spec.reduce_op).run(ops, seeded)
                stall_cycles += outcome.stall_cycles
                t_prop.update(outcome.vb)

            # --- Apply: every vertex, every iteration ---
            old_prop = prop.copy()
            next_active: List[int] = []
            identity = spec.reduce_op.identity
            for vid in range(num_vertices):
                apply_operations += 1
                result = spec.apply_scalar(
                    float(prop[vid]),
                    t_prop.get(vid, identity),
                    float(c_prop[vid]),
                )
                if prop[vid] != result:
                    prop[vid] = result
                    next_active.append(vid)
            iterations += 1

            if spec.resets_tprop_each_iteration:
                t_prop = {}
                if float(np.abs(prop - old_prop).sum()) < 1e-7:
                    converged = True
                    break
                active = list(range(num_vertices))
            else:
                active = next_active
                if not active:
                    converged = True
                    break

        return StreamRunResult(
            properties=prop,
            num_iterations=iterations,
            converged=converged,
            edge_records_read=edge_records_read,
            edges_processed=edges_processed,
            scheduling_ops=scheduling_ops,
            apply_operations=apply_operations,
            atomic_stall_cycles=stall_cycles,
        )
