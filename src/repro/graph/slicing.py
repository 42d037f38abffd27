"""Graph slicing for graphs whose temporary properties exceed the Vertex Buffer.

Section 4.2.1 of the paper: "To process larger graphs (i.e., VB cannot hold
all temporary vertex property), the graph is sliced into several slices and a
single slice is processed at a time with the slicing technique proposed in
Graphicionado."

A slice covers a contiguous destination-vertex interval; during a sliced
iteration every slice re-reads the active vertex data, which is the source of
the gentle throughput decline in Fig. 14f.

Two layers of destination partitioning live here:

* :class:`SlicePlan` — the paper's VB-residency slicing: how one
  processing unit walks a vertex interval one VB-load at a time.
* :class:`PartitionPlan` — coarse destination-contiguous *shards* for
  out-of-core / parallel execution: each shard owns a disjoint interval
  of destinations (hence a disjoint segment of temporary properties) and
  can run Scatter independently.  A shard *composes with* VB slicing —
  :meth:`PartitionPlan.vb_plan` yields a shard-local ``SlicePlan`` whose
  slices tile that shard's interval — rather than replacing it.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List

import numpy as np

from .csr import CSRGraph

__all__ = [
    "Slice",
    "SlicePlan",
    "plan_slices",
    "Shard",
    "PartitionPlan",
    "plan_partitions",
]


@dataclasses.dataclass(frozen=True)
class Slice:
    """One destination-vertex interval ``[vertex_lo, vertex_hi)``."""

    index: int
    vertex_lo: int
    vertex_hi: int

    @property
    def num_vertices(self) -> int:
        return self.vertex_hi - self.vertex_lo

    def contains(self, vertex: int) -> bool:
        return self.vertex_lo <= vertex < self.vertex_hi


@dataclasses.dataclass(frozen=True)
class SlicePlan:
    """How a vertex interval is partitioned across VB residencies.

    ``origin`` is the first vertex id the plan covers — 0 for a whole
    graph, ``shard.vertex_lo`` for a shard-local plan produced by
    :meth:`PartitionPlan.vb_plan`.
    """

    slices: List[Slice]
    vb_capacity_vertices: int
    origin: int = 0

    @property
    def num_slices(self) -> int:
        return len(self.slices)

    @property
    def is_sliced(self) -> bool:
        return self.num_slices > 1

    def __iter__(self) -> Iterator[Slice]:
        return iter(self.slices)

    def slice_of(self, vertex: int) -> Slice:
        """The slice holding ``vertex``'s temporary property."""
        idx = (vertex - self.origin) // self.vb_capacity_vertices
        return self.slices[idx]


def plan_slices(
    num_vertices: int,
    vb_capacity_bytes: int,
    tprop_bytes: int = 4,
    origin: int = 0,
) -> SlicePlan:
    """Partition ``num_vertices`` vertices into VB-resident slices.

    Args:
        num_vertices: vertex count of the covered interval.
        vb_capacity_bytes: aggregate Vertex Buffer capacity (GraphDynS:
            128 UEs x 256 KB = 32 MB; Graphicionado: 64 MB).
        tprop_bytes: bytes per temporary property entry.
        origin: first vertex id of the covered interval (non-zero for
            shard-local plans).
    """
    if vb_capacity_bytes <= 0:
        raise ValueError("vb_capacity_bytes must be positive")
    capacity_vertices = max(1, vb_capacity_bytes // tprop_bytes)
    num_slices = max(1, -(-num_vertices // capacity_vertices))
    slices = [
        Slice(
            index=i,
            vertex_lo=origin + i * capacity_vertices,
            vertex_hi=origin + min((i + 1) * capacity_vertices, num_vertices),
        )
        for i in range(num_slices)
    ]
    return SlicePlan(
        slices=slices, vb_capacity_vertices=capacity_vertices, origin=origin
    )


@dataclasses.dataclass(frozen=True)
class Shard:
    """One destination-contiguous shard ``[vertex_lo, vertex_hi)``.

    A shard owns a disjoint segment of the temporary-property array, so
    its Scatter phase can run independently of every other shard and the
    per-destination accumulation order within the segment is unchanged —
    the root of the byte-identical merge-at-Apply invariant.
    """

    index: int
    vertex_lo: int
    vertex_hi: int

    @property
    def num_vertices(self) -> int:
        return self.vertex_hi - self.vertex_lo

    def contains(self, vertex: int) -> bool:
        return self.vertex_lo <= vertex < self.vertex_hi


@dataclasses.dataclass(frozen=True)
class PartitionPlan:
    """Destination-contiguous shards tiling ``[0, num_vertices)``.

    Shards are coarser than (and orthogonal to) VB slices: each shard may
    itself be VB-sliced via :meth:`vb_plan` when its temporary properties
    exceed the Vertex Buffer.
    """

    shards: List[Shard]
    num_vertices: int

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def is_partitioned(self) -> bool:
        return self.num_shards > 1

    def __iter__(self) -> Iterator[Shard]:
        return iter(self.shards)

    def shard_ids(self, vertices: np.ndarray) -> np.ndarray:
        """Shard index owning each vertex id in ``vertices``."""
        bounds = np.array([s.vertex_hi for s in self.shards], dtype=np.int64)
        return np.searchsorted(bounds, np.asarray(vertices), side="right")

    def shard_of(self, vertex: int) -> Shard:
        """The shard owning ``vertex``'s temporary property."""
        if not 0 <= vertex < self.num_vertices:
            raise IndexError(f"vertex {vertex} outside [0, {self.num_vertices})")
        return self.shards[int(self.shard_ids(np.array([vertex]))[0])]

    def edges_per_shard(self, graph: CSRGraph) -> np.ndarray:
        """Edge count landing in each shard (by destination)."""
        counts = np.zeros(self.num_shards, dtype=np.int64)
        np.add.at(counts, self.shard_ids(graph.edges), 1)
        return counts

    def vb_plan(
        self,
        shard: Shard,
        vb_capacity_bytes: int,
        tprop_bytes: int = 4,
    ) -> SlicePlan:
        """Shard-local VB slicing: slices tile ``shard``'s interval.

        This is the composition point between the two layers — a sharded
        run applies Section 4.2.1 slicing *within* each shard.
        """
        return plan_slices(
            shard.num_vertices,
            vb_capacity_bytes,
            tprop_bytes=tprop_bytes,
            origin=shard.vertex_lo,
        )


def plan_partitions(num_vertices: int, num_shards: int) -> PartitionPlan:
    """Split ``[0, num_vertices)`` into ``num_shards`` contiguous shards.

    Shards are near-equal (sizes differ by at most one vertex); a request
    for more shards than vertices is clamped so no shard is empty —
    except the degenerate empty graph, which gets one empty shard so the
    plan still tiles ``[0, 0)`` exactly.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if num_vertices < 0:
        raise ValueError("num_vertices must be non-negative")
    effective = min(num_shards, num_vertices) if num_vertices else 1
    base, extra = divmod(num_vertices, effective)
    shards: List[Shard] = []
    lo = 0
    for index in range(effective):
        hi = lo + base + (1 if index < extra else 0)
        shards.append(Shard(index=index, vertex_lo=lo, vertex_hi=hi))
        lo = hi
    return PartitionPlan(shards=shards, num_vertices=num_vertices)
