"""Sharded VCPM execution: per-shard Scatter, merge at Apply.

The out-of-core execution tier.  A :class:`~repro.graph.slicing.PartitionPlan`
splits the destination space into contiguous shards; every iteration each
shard reduces the edges landing in its own temporary-property segment
(VB slice by VB slice when a Vertex Buffer capacity is given, Section
4.2.1), and a single global Apply phase reads the merged ``t_prop``.

The iteration loop is :func:`repro.vcpm.engine.run_vcpm`'s own; only the
Reduce step differs.  Each frontier's edge stream is grouped by
(shard, VB slice) segment once, through :meth:`Frontier.memo` (so PR,
whose frontier lives the whole run, groups once per run): a per-vertex
segment table gives every edge its key by a gather, a stable sort of the
keys gives an ``order`` array, and the per-vertex destination histogram
gives the segment cut points.  Each segment is then one contiguous run
``order[cuts[k]:cuts[k + 1]]`` of the stream, which ``process_edge``
has already mapped to results once, so a shard costs O(its edges)
instead of a pass over the whole stream.  Both the sort and the fold go
block by block, so the grouping adds one edge-length array to the
iteration's streams: ``order``, 4 bytes per edge.

Why this is safe (the byte-identical invariant): shards partition the
destination space, so each shard owns a disjoint segment of ``t_prop``
and folds straight into it.  The stable sort keeps each destination's
edges in traversal order, so the per-destination reduction order is
exactly what the unsharded engine produces — bitwise-identical temporary
properties (including non-associative float accumulation for PR), hence
bitwise-identical Apply outputs, frontiers, and traces.

Shards run one after another in the calling process, as the Vertex-Buffer
slices of Section 4.2.1 do on one chip.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.slicing import PartitionPlan, plan_partitions
from ..obs import get_recorder
from .engine import (
    Fold,
    Frontier,
    IterationObserver,
    VCPMResult,
    _dst_histogram,
    _iterate,
    _read_only,
)
from .spec import AlgorithmSpec

__all__ = ["run_vcpm_partitioned"]


class _SegmentTable:
    """The (shard, VB slice) segment of every vertex of a partition plan.

    Segments are each shard's VB slices in order (the whole shard when
    unsliced), so they tile ``[0, num_vertices)`` in increasing vertex
    order.  Hashed by identity: it is the memo key of one run's grouping.
    """

    def __init__(
        self,
        plan: PartitionPlan,
        vb_capacity_bytes: Optional[int],
        tprop_bytes: int,
    ) -> None:
        starts: List[int] = []
        self.shard_segments: List[range] = []
        for shard in plan:
            first = len(starts)
            if vb_capacity_bytes is None:
                starts.append(shard.vertex_lo)
            else:
                vb_plan = plan.vb_plan(shard, vb_capacity_bytes, tprop_bytes)
                starts.extend(s.vertex_lo for s in vb_plan)
            self.shard_segments.append(range(first, len(starts)))
        self.num_segments = len(starts)
        #: Segment boundaries: segment ``k`` is ``[bounds[k], bounds[k+1])``.
        self.bounds = np.array(starts + [plan.num_vertices], dtype=np.int64)
        key_dtype = np.min_scalar_type(self.num_segments - 1)
        self.key_of = np.repeat(
            np.arange(self.num_segments, dtype=key_dtype), np.diff(self.bounds)
        )


#: Edges grouped per block: a block's keys and sort order are the
#: grouping's only transients, so ``order`` (4 bytes per edge) is its one
#: edge-length array.
_GROUP_BLOCK = 1 << 16


def _group_by_segment(
    frontier: Frontier, table: _SegmentTable
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """``(order, cuts)``: the frontier's edge positions grouped by segment.

    ``order[cuts[k]:cuts[k + 1]]`` are the positions in
    ``frontier.edge_dst`` of the edges landing in segment ``k``, in
    traversal order: each block of the stream is sorted stably by key and
    its runs are appended to their segments, which is the stable sort of
    the whole stream without its edge-length keys and ``intp`` order.
    """
    edge_dst = frontier.edge_dst
    ends = np.concatenate(([0], np.cumsum(frontier.memo(_dst_histogram))))
    cuts = ends[table.bounds].tolist()
    order = np.empty(
        edge_dst.size, dtype=np.int32 if edge_dst.size < 2**31 else np.int64
    )
    fill = cuts[:-1]  # next free position of each segment
    later_keys = np.arange(1, table.num_segments, dtype=table.key_of.dtype)
    for lo in range(0, edge_dst.size, _GROUP_BLOCK):
        keys = table.key_of[edge_dst[lo:lo + _GROUP_BLOCK]]
        local = np.argsort(keys, kind="stable")
        # Segment k's run of the sorted block is runs[k]:runs[k + 1],
        # searched in the key dtype (np.bincount would cast keys to intp).
        runs = [0, *np.searchsorted(keys[local], later_keys).tolist(), keys.size]
        local += lo
        for k in range(table.num_segments):
            run = local[runs[k]:runs[k + 1]]
            order[fill[k]:fill[k] + run.size] = run
            fill[k] += run.size
    return _read_only(order), tuple(cuts)


def _sharded_fold(
    spec: AlgorithmSpec, plan: PartitionPlan, table: _SegmentTable
) -> Fold:
    """Reduce shard by shard, VB slice by VB slice within each shard."""
    ufunc = spec.reduce_op.ufunc
    rec = get_recorder()

    def fold(frontier: Frontier, results, t_prop, iteration: int) -> None:
        edge_dst = frontier.edge_dst
        grouped = table.num_segments > 1
        if grouped:
            order, cuts = frontier.memo(_group_by_segment, table)
        for shard, segments in zip(plan, table.shard_segments):
            with rec.span(
                "vcpm.shard_scatter",
                track="vcpm",
                shard=shard.index,
                iteration=iteration,
            ):
                if grouped:
                    # Block by block: ufunc.at folds in order, so the
                    # blocks fold exactly as one call would.
                    for k in segments:
                        for lo in range(cuts[k], cuts[k + 1], _GROUP_BLOCK):
                            idx = order[lo:min(lo + _GROUP_BLOCK, cuts[k + 1])]
                            ufunc.at(
                                t_prop, edge_dst.take(idx), results.take(idx)
                            )
                else:
                    ufunc.at(t_prop, edge_dst, results)
            if rec.enabled:
                rec.counter("vcpm.shard.scatters").add()

    return fold


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
    plan = plan_partitions(graph.num_vertices, shards)
    table = _SegmentTable(plan, vb_capacity_bytes, tprop_bytes)
    return _iterate(
        graph,
        spec,
        _sharded_fold(spec, plan, table),
        source=source,
        max_iterations=max_iterations,
        observers=observers,
        pr_tolerance=pr_tolerance,
        shards=plan.num_shards,
    )
