"""Functionally-sliced VCPM execution (Section 4.2.1's slicing technique).

When the temporary vertex properties exceed the Vertex Buffer, the graph is
processed one *destination slice* at a time: each Scatter pass touches only
the edges whose destination falls in the resident interval, re-reading the
active vertex data once per slice.  The timing layer models the cost; this
module executes the technique *functionally* so the invariant -- slicing
never changes results -- is testable end to end.

This is a thin front over
:func:`repro.vcpm.partitioned.run_vcpm_partitioned`: VB slicing is the
``shards=1`` special case of the shard × slice composition (a single shard
covering ``[0, num_vertices)``, sliced by the VB plan).  It runs the same
iteration loop as :func:`repro.vcpm.engine.run_vcpm`; each frontier's edge
stream is grouped by slice once (a stable sort on a per-vertex slice key)
and every slice folds its contiguous run of that order, so results are
bitwise-identical to the unsliced engine.
"""

from __future__ import annotations

from typing import Optional

from ..graph.csr import CSRGraph
from .engine import VCPMResult
from .partitioned import run_vcpm_partitioned
from .spec import AlgorithmSpec

__all__ = ["run_vcpm_sliced"]


def run_vcpm_sliced(
    graph: CSRGraph,
    spec: AlgorithmSpec,
    vb_capacity_bytes: int,
    source: Optional[int] = 0,
    max_iterations: Optional[int] = None,
    pr_tolerance: float = 1e-7,
    tprop_bytes: int = 4,
) -> VCPMResult:
    """Execute ``spec`` slice by slice; results match the unsliced engine.

    Args:
        graph: input graph.
        vb_capacity_bytes: Vertex Buffer capacity determining the slice
            width (GraphDynS: 32 MB; pass something tiny to force slicing
            in tests).
        source, max_iterations, pr_tolerance: as in
            :func:`repro.vcpm.engine.run_vcpm`.
        tprop_bytes: bytes per temporary property entry.
    """
    return run_vcpm_partitioned(
        graph,
        spec,
        shards=1,
        vb_capacity_bytes=vb_capacity_bytes,
        source=source,
        max_iterations=max_iterations,
        pr_tolerance=pr_tolerance,
        tprop_bytes=tprop_bytes,
    )
