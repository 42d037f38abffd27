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

Process fan-out plugs in through the ``shard_runner`` seam: the harness
service maps picklable :class:`ShardScatterTask` descriptors onto its process
executor, where each worker re-reads the graph (per Graphicionado's slicing,
which re-reads active vertex data per slice) and returns its segment.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.slicing import (
    PartitionPlan,
    Shard,
    SlicePlan,
    plan_partitions,
    plan_slices,
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

__all__ = [
    "ShardScatterTask",
    "ShardRunner",
    "run_vcpm_partitioned",
    "scatter_shard_task",
]


@dataclasses.dataclass
class ShardScatterTask:
    """Self-contained, picklable description of one shard's Scatter pass.

    Carries everything a worker process needs *except* the graph itself,
    which is referenced by ``graph_ref`` (dataset key + storage kind) and
    re-loaded worker-side through the process-wide dataset memo — shipping
    paper-scale CSR arrays through pickle would defeat out-of-core
    execution.

    Attributes:
        iteration: zero-based iteration index (for spans/debugging).
        shard_index: index of the shard within its plan.
        vertex_lo / vertex_hi: the shard's destination interval.
        algorithm: algorithm spec name (resolved via ``get_algorithm``).
        graph_ref: ``(dataset_key, storage_kind)`` for worker-side reload,
            or ``None`` when the runner executes in-process.
        active: active vertex ids this iteration.
        prop: full property array (read-only input to Scatter).
        t_prop_segment: copy of the shard's temporary-property segment;
            the reduction folds into this and returns it.
        vb_capacity_bytes: optional Vertex Buffer capacity for shard-local
            slicing; ``None`` disables VB slicing.
        tprop_bytes: bytes per temporary property entry.
    """

    iteration: int
    shard_index: int
    vertex_lo: int
    vertex_hi: int
    algorithm: str
    graph_ref: Optional[Tuple[str, str]]
    active: np.ndarray
    prop: np.ndarray
    t_prop_segment: np.ndarray
    vb_capacity_bytes: Optional[int] = None
    tprop_bytes: int = 4


#: Maps shard tasks to their reduced segments, in task order.
ShardRunner = Callable[[List[ShardScatterTask]], List[np.ndarray]]


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


def scatter_shard_task(task: ShardScatterTask, graph: CSRGraph) -> np.ndarray:
    """Execute one :class:`ShardScatterTask` against ``graph``.

    The worker-side entry point: re-gathers the active edge stream from
    the (typically mmap-backed) graph and reduces the shard's edges into
    the task's segment copy.  Pure — no shared mutable state.
    """
    from .algorithms import get_algorithm

    spec = get_algorithm(task.algorithm)
    shard = Shard(
        index=task.shard_index,
        vertex_lo=task.vertex_lo,
        vertex_hi=task.vertex_hi,
    )
    edge_idx = gather_edge_indices(graph.offsets, task.active)
    edge_dst = graph.edges[edge_idx]
    edge_w = graph.weights[edge_idx].astype(np.float64)
    degrees = graph.offsets[task.active + 1] - graph.offsets[task.active]
    u_prop = np.repeat(task.prop[task.active], degrees)
    vb_plan: Optional[SlicePlan] = None
    if task.vb_capacity_bytes is not None:
        vb_plan = plan_slices(
            shard.num_vertices,
            task.vb_capacity_bytes,
            tprop_bytes=task.tprop_bytes,
            origin=shard.vertex_lo,
        )
    return _scatter_segment(
        spec, shard, vb_plan, edge_dst, edge_w, u_prop, task.t_prop_segment
    )


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
    shard_runner: Optional[ShardRunner] = None,
    graph_ref: Optional[Tuple[str, str]] = None,
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
        shard_runner: optional executor seam mapping
            :class:`ShardScatterTask` lists to reduced segments (e.g. the
            harness's process fan-out); ``None`` runs shards in-process.
        graph_ref: ``(dataset_key, storage_kind)`` stamped on tasks so
            worker processes can re-load the graph; required when
            ``shard_runner`` crosses a process boundary.
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

                if shard_runner is None:
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
                else:
                    tasks = [
                        ShardScatterTask(
                            iteration=iteration,
                            shard_index=shard.index,
                            vertex_lo=shard.vertex_lo,
                            vertex_hi=shard.vertex_hi,
                            algorithm=spec.name,
                            graph_ref=graph_ref,
                            active=active,
                            prop=prop,
                            t_prop_segment=t_prop[
                                shard.vertex_lo:shard.vertex_hi
                            ].copy(),
                            vb_capacity_bytes=vb_capacity_bytes,
                            tprop_bytes=tprop_bytes,
                        )
                        for shard in plan
                    ]
                    segments = shard_runner(tasks)
                    for shard, segment in zip(plan, segments):
                        t_prop[shard.vertex_lo:shard.vertex_hi] = segment
                    if rec.enabled:
                        rec.counter("vcpm.shard.scatters").add(len(tasks))
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
