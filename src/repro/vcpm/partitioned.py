"""Sharded VCPM execution: independent per-shard Scatter, merge at Apply.

The out-of-core execution tier.  A :class:`~repro.graph.slicing.PartitionPlan`
splits the destination space into contiguous shards; every iteration each
shard runs the Scatter phase *independently* over its own temporary-property
segment (optionally VB-sliced within the shard, Section 4.2.1), and the
disjoint segments are merged back before a single global Apply phase.

Why this is safe (the byte-identical invariant): shards partition the
destination space, so each shard owns a disjoint segment of ``t_prop``.
Within a shard the edge stream keeps its traversal order, so the
per-destination reduction order is exactly what the unsharded engine
produces — bitwise-identical temporary properties (including non-associative
float accumulation for PR), hence bitwise-identical Apply outputs, frontiers,
and traces.

Shards run one after another in the calling process, as the Vertex-Buffer
slices of Section 4.2.1 do on one chip.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.slicing import (
    PartitionPlan,
    Shard,
    SlicePlan,
    plan_partitions,
)
from ..obs import get_recorder
from .engine import (
    Frontier,
    IterationData,
    IterationObserver,
    IterationTrace,
    VCPMResult,
    gather_edge_indices,
)
from .spec import AlgorithmSpec

__all__ = ["run_vcpm_partitioned"]


def _scatter_segment(
    spec: AlgorithmSpec,
    shard: Shard,
    vb_plan: Optional[SlicePlan],
    edge_dst: np.ndarray,
    edge_w: np.ndarray,
    u_prop: np.ndarray,
    segment: np.ndarray,
) -> np.ndarray:
    """Reduce the shard's edges into its (mutable) ``t_prop`` segment.

    ``edge_dst``/``edge_w``/``u_prop`` are the full active edge stream in
    traversal order; only edges landing in the shard are folded, one VB
    slice at a time when a shard-local plan is given.  Traversal order is
    preserved per destination, which is what makes the result bitwise
    equal to the unsharded reduction.
    """
    in_shard = (edge_dst >= shard.vertex_lo) & (edge_dst < shard.vertex_hi)
    if vb_plan is None:
        if np.any(in_shard):
            results = spec.process_edge(u_prop[in_shard], edge_w[in_shard])
            spec.reduce_op.ufunc.at(
                segment, edge_dst[in_shard] - shard.vertex_lo, results
            )
        return segment
    for slice_ in vb_plan:
        in_slice = in_shard & (edge_dst >= slice_.vertex_lo) & (
            edge_dst < slice_.vertex_hi
        )
        if not np.any(in_slice):
            continue
        results = spec.process_edge(u_prop[in_slice], edge_w[in_slice])
        spec.reduce_op.ufunc.at(
            segment, edge_dst[in_slice] - shard.vertex_lo, results
        )
    return segment


def run_vcpm_partitioned(
    graph: CSRGraph,
    spec: AlgorithmSpec,
    shards: int = 1,
    vb_capacity_bytes: Optional[int] = None,
    source: Optional[int] = 0,
    max_iterations: Optional[int] = None,
    observers: Sequence[IterationObserver] = (),
    pr_tolerance: float = 1e-7,
    tprop_bytes: int = 4,
) -> VCPMResult:
    """Execute ``spec`` with destination-sharded Scatter and merged Apply.

    Results are bitwise-identical to :func:`repro.vcpm.engine.run_vcpm`
    for every ``shards`` / ``vb_capacity_bytes`` / storage combination
    (see module docstring); observers receive the same full merged
    :class:`IterationData` the unsharded engine produces.

    Args:
        graph: input CSR graph (any storage backend).
        spec: algorithm definition.
        shards: destination-shard count (1 = unsharded).
        vb_capacity_bytes: optional Vertex Buffer capacity enabling
            Section 4.2.1 slicing *within* each shard.
        source / max_iterations / observers / pr_tolerance: as in
            :func:`repro.vcpm.engine.run_vcpm`.
        tprop_bytes: bytes per temporary property entry (slice width).
    """
    num_vertices = graph.num_vertices
    if max_iterations is None:
        max_iterations = spec.default_max_iterations
    if spec.needs_source:
        if source is None:
            raise ValueError(f"{spec.name} requires a source vertex")
        if not (0 <= source < max(num_vertices, 1)):
            raise ValueError(f"source {source} out of range")
    else:
        source = None

    plan: PartitionPlan = plan_partitions(num_vertices, shards)
    vb_plans: List[Optional[SlicePlan]] = [
        plan.vb_plan(shard, vb_capacity_bytes, tprop_bytes)
        if vb_capacity_bytes is not None
        else None
        for shard in plan
    ]

    prop = spec.initial_prop(num_vertices, source)
    t_prop = spec.initial_tprop(num_vertices)
    if spec.uses_degree_cprop:
        c_prop = graph.out_degree().astype(np.float64)
    else:
        c_prop = np.zeros(num_vertices, dtype=np.float64)

    if spec.all_vertices_active_initially:
        active = np.arange(num_vertices, dtype=np.int64)
    elif source is not None and num_vertices:
        active = np.asarray([source], dtype=np.int64)
    else:
        active = np.zeros(0, dtype=np.int64)

    if spec.uses_degree_cprop and num_vertices:
        prop = prop / np.maximum(c_prop, 1.0)

    traces: List[IterationTrace] = []
    converged = False
    rec = get_recorder()

    for iteration in range(max_iterations):
        if active.size == 0:
            converged = True
            break

        with rec.span(
            "vcpm.iteration",
            track="vcpm",
            algorithm=spec.name,
            iteration=iteration,
            active=int(active.size),
            shards=plan.num_shards,
        ) as iter_span:
            # --------------------- sharded Scatter phase ---------------------
            with rec.span("vcpm.scatter", track="vcpm", shards=plan.num_shards):
                edge_idx = gather_edge_indices(graph.offsets, active)
                edge_dst = graph.edges[edge_idx]
                edge_w = graph.weights[edge_idx].astype(np.float64)
                degrees = graph.offsets[active + 1] - graph.offsets[active]
                u_prop = np.repeat(prop[active], degrees)
                t_prop_before = t_prop.copy()

                for shard, vb_plan in zip(plan, vb_plans):
                    with rec.span(
                        "vcpm.shard_scatter",
                        track="vcpm",
                        shard=shard.index,
                        iteration=iteration,
                    ):
                        segment = _scatter_segment(
                            spec,
                            shard,
                            vb_plan,
                            edge_dst,
                            edge_w,
                            u_prop,
                            t_prop[shard.vertex_lo:shard.vertex_hi].copy(),
                        )
                        t_prop[shard.vertex_lo:shard.vertex_hi] = segment
                    if rec.enabled:
                        rec.counter("vcpm.shard.scatters").add()
                modified = np.flatnonzero(t_prop != t_prop_before)

            # --------------------- merged Apply phase ------------------------
            with rec.span("vcpm.apply", track="vcpm"):
                apply_res = spec.apply(prop, t_prop, c_prop)
                activated_mask = apply_res != prop
                activated = np.flatnonzero(activated_mask)
                old_prop = prop
                prop = np.where(activated_mask, apply_res, prop)

            data = IterationData(
                iteration=iteration,
                frontier=Frontier(
                    active_ids=active,
                    active_degrees=degrees,
                    active_offsets=graph.offsets[active],
                    edge_dst=edge_dst,
                    num_vertices=num_vertices,
                ),
                modified_ids=modified,
                activated_ids=activated,
            )
            with rec.span("vcpm.observe", track="vcpm"):
                for observer in observers:
                    observer.on_iteration(data)
            if rec.enabled:
                iter_span.annotate(
                    edges=int(edge_dst.size),
                    modified=int(modified.size),
                    activated=int(activated.size),
                )
                rec.counter("vcpm.iterations").add()
                rec.counter("vcpm.active_vertices").add(int(active.size))
                rec.counter("vcpm.edges").add(int(edge_dst.size))
                rec.counter("vcpm.modified").add(int(modified.size))
                rec.counter("vcpm.activated").add(int(activated.size))
                rec.histogram("vcpm.frontier_size").observe(int(active.size))
                rec.histogram("vcpm.active_degree").observe_many(degrees)
        traces.append(
            IterationTrace(
                iteration=iteration,
                num_active=int(active.size),
                num_edges=int(edge_dst.size),
                num_modified=int(modified.size),
                num_activated=int(activated.size),
            )
        )

        if spec.resets_tprop_each_iteration:
            t_prop = spec.initial_tprop(num_vertices)
            delta = float(np.abs(prop - old_prop).sum())
            if delta < pr_tolerance:
                converged = True
                break
            active = np.arange(num_vertices, dtype=np.int64)
        else:
            active = activated
            if active.size == 0:
                converged = True
                break

    return VCPMResult(
        algorithm=spec.name,
        graph_name=graph.name,
        properties=prop,
        iterations=traces,
        converged=converged,
        source=source,
    )
