"""The optimized Dispatching/Processing programming model (Algorithm 2).

GraphDynS's software half: each phase is decoupled into a *Dispatching* stage
and a *Processing* stage, and the Apply phase additionally reads the offset
array sequentially so that each activated vertex carries its ``offset`` and
``edgeCnt`` into the next iteration's Scatter phase.  The result is that:

* workload size is known before dispatch (-> workload-balanced dispatch),
* edge prefetch addresses are known exactly (-> exact prefetching),
* edge records no longer need a ``src_vid`` field (-> less traffic/storage).

This module is a faithful executable rendering of Algorithm 2 (scalar but
numpy-assisted).  It must compute exactly what :func:`repro.vcpm.engine.
run_vcpm` computes -- the integration tests assert bit-identical properties
-- while exposing the dispatch-level artifacts (:class:`ActiveVertex`
records and vertex-list workloads) consumed by the hardware model.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from ..graph.csr import CSRGraph
from .spec import AlgorithmSpec

__all__ = [
    "ActiveVertex",
    "VertexListWorkload",
    "OptimizedRunResult",
    "dispatch_scatter",
    "dispatch_apply",
    "run_optimized",
]


@dataclasses.dataclass(frozen=True)
class ActiveVertex:
    """Active vertex data as defined in Section 4.1.1.

    ``(v.prop, offset, edgeCnt)`` replaces the bare vertex id of classic
    PB-VCPM.  Note the deliberate absence of the vertex id itself: the paper
    stresses that ``u.vid`` is no longer stored or streamed.
    """

    prop: float
    offset: int
    edge_cnt: int


@dataclasses.dataclass(frozen=True)
class VertexListWorkload:
    """Apply-phase workload: a contiguous vertex id interval.

    Mirrors Algorithm 2's ``dispatch(vListStartID, vListSize)``.
    """

    start_id: int
    size: int


def dispatch_scatter(
    prop: np.ndarray, offsets: np.ndarray, active_ids: np.ndarray
) -> List[ActiveVertex]:
    """Dispatching stage of the Scatter phase (Algorithm 2 lines 1-3)."""
    return [
        ActiveVertex(
            prop=float(prop[u]),
            offset=int(offsets[u]),
            edge_cnt=int(offsets[u + 1] - offsets[u]),
        )
        for u in active_ids
    ]


def dispatch_apply(
    num_vertices: int, v_list_size: int
) -> List[VertexListWorkload]:
    """Dispatching stage of the Apply phase (Algorithm 2 lines 8-10)."""
    if v_list_size < 1:
        raise ValueError("v_list_size must be >= 1")
    return [
        VertexListWorkload(start_id=start, size=min(v_list_size, num_vertices - start))
        for start in range(0, num_vertices, v_list_size)
    ]


@dataclasses.dataclass
class OptimizedRunResult:
    """Result of an Algorithm 2 run, plus dispatch-stage statistics."""

    properties: np.ndarray
    num_iterations: int
    converged: bool
    scatter_dispatches: int
    apply_dispatches: int
    edges_processed: int


def run_optimized(
    graph: CSRGraph,
    spec: AlgorithmSpec,
    source: Optional[int] = 0,
    max_iterations: Optional[int] = None,
    v_list_size: int = 8,
    pr_tolerance: float = 1e-7,
) -> OptimizedRunResult:
    """Execute Algorithm 2 end to end.

    The processing stages loop over dispatched records exactly as the
    pseudocode does; :func:`repro.vcpm.engine.run_vcpm` is the fast
    rendering of the same computation.
    """
    num_vertices = graph.num_vertices
    if max_iterations is None:
        max_iterations = spec.default_max_iterations
    if not spec.needs_source:
        source = None

    prop = spec.initial_prop(num_vertices, source)
    t_prop = spec.initial_tprop(num_vertices)
    deg = graph.out_degree().astype(np.float64)
    c_prop = deg if spec.uses_degree_cprop else np.zeros(num_vertices)
    if spec.uses_degree_cprop and num_vertices:
        prop = prop / np.maximum(c_prop, 1.0)

    if spec.all_vertices_active_initially:
        active_ids = np.arange(num_vertices, dtype=np.int64)
    elif source is not None and num_vertices:
        active_ids = np.asarray([source], dtype=np.int64)
    else:
        active_ids = np.zeros(0, dtype=np.int64)

    scatter_dispatches = 0
    apply_dispatches = 0
    edges_processed = 0
    converged = False
    completed_iterations = 0

    for _ in range(max_iterations):
        if active_ids.size == 0:
            converged = True
            break

        # --- Scatter: dispatching stage ---
        records = dispatch_scatter(prop, graph.offsets, active_ids)
        scatter_dispatches += len(records)

        # --- Scatter: processing stage (lines 4-7) ---
        for record in records:
            lo, hi = record.offset, record.offset + record.edge_cnt
            for idx in range(lo, hi):
                v = int(graph.edges[idx])
                res = spec.process_edge_scalar(
                    record.prop, float(graph.weights[idx])
                )
                t_prop[v] = spec.reduce_op.scalar(t_prop[v], res)
                edges_processed += 1

        # --- Apply: dispatching stage ---
        workloads = dispatch_apply(num_vertices, v_list_size)
        apply_dispatches += len(workloads)

        # --- Apply: processing stage (lines 11-18) ---
        old_prop = prop.copy()
        next_active: List[int] = []
        for workload in workloads:
            for vid in range(workload.start_id, workload.start_id + workload.size):
                apply_res = spec.apply_scalar(prop[vid], t_prop[vid], c_prop[vid])
                if prop[vid] != apply_res:
                    prop[vid] = apply_res
                    # Activation carries (prop, offset, edgeCnt); the ids
                    # here stand in for those records.
                    next_active.append(vid)

        completed_iterations += 1
        if spec.resets_tprop_each_iteration:
            t_prop = spec.initial_tprop(num_vertices)
            delta = float(np.abs(prop - old_prop).sum())
            if delta < pr_tolerance:
                converged = True
                break
            active_ids = np.arange(num_vertices, dtype=np.int64)
        else:
            active_ids = np.asarray(next_active, dtype=np.int64)
            if active_ids.size == 0:
                converged = True
                break

    return OptimizedRunResult(
        properties=prop,
        num_iterations=completed_iterations,
        converged=converged,
        scatter_dispatches=scatter_dispatches,
        apply_dispatches=apply_dispatches,
        edges_processed=edges_processed,
    )
