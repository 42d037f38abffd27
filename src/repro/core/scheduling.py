"""Workload-balanced dispatch (Section 5.1.1) and baseline policies.

The Dispatcher's job: given the active vertices of an iteration -- each
carrying its ``edgeCnt`` thanks to the optimized programming model -- assign
edge work to the 16 Processing Elements so that

* low-degree vertices keep their whole edge list on one PE (processed in a
  batch, cutting scheduling operations ~94%, Fig. 14a), and
* high-degree vertices (``edgeCnt >= eThreshold``) are split into
  ``eThreshold``-sized sub-lists spread across every PE.

For comparison, :func:`hash_dispatch` reproduces Graphicionado's policy
(vertex-hash to pipeline, whole edge list regardless of degree), whose
imbalance the paper quantifies in Section 3.2.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "DispatchOutcome",
    "balanced_dispatch",
    "hash_dispatch",
    "per_vertex_dispatch_ops",
]


@dataclasses.dataclass(frozen=True)
class DispatchOutcome:
    """Result of distributing one iteration's edge work.

    Immutable, ``pe_loads`` included (a read-only view): observers share
    one outcome per frontier.

    Attributes:
        pe_loads: edges assigned to each PE.
        scheduling_ops: dispatch decisions the DEs performed (one per
            whole-list assignment plus one per split sub-list).
        num_splits: high-degree vertices that were partitioned.
    """

    pe_loads: np.ndarray
    scheduling_ops: int
    num_splits: int

    def __post_init__(self) -> None:
        loads = np.asarray(self.pe_loads).view()
        loads.flags.writeable = False
        object.__setattr__(self, "pe_loads", loads)

    @property
    def max_load(self) -> int:
        return int(self.pe_loads.max()) if self.pe_loads.size else 0

    @property
    def mean_load(self) -> float:
        return float(self.pe_loads.mean()) if self.pe_loads.size else 0.0

    @property
    def imbalance(self) -> float:
        """Max/mean PE load; 1.0 is perfect balance."""
        mean = self.mean_load
        if mean == 0:
            return 1.0
        return self.max_load / mean

    def normalized_loads(self) -> np.ndarray:
        """Per-PE load normalized to the mean (the Fig. 14b y-axis)."""
        mean = self.mean_load
        if mean == 0:
            return np.ones_like(self.pe_loads, dtype=np.float64)
        return self.pe_loads / mean


def balanced_dispatch(
    degrees: np.ndarray,
    num_pes: int = 16,
    e_threshold: int = 128,
) -> DispatchOutcome:
    """GraphDynS workload-balanced dispatch.

    Vertices with ``edgeCnt < e_threshold`` go whole to the same-numbered PE
    round-robin (DE_i -> PE_i); larger edge lists split into even
    ``e_threshold``-bounded chunks dealt across all PEs.

    Args:
        degrees: ``edgeCnt`` of each active vertex, in dispatch order.
        num_pes: Processing Element count (16 in Table 3).
        e_threshold: split threshold (128 per Section 5.1.3).
    """
    if num_pes < 1:
        raise ValueError("num_pes must be >= 1")
    if e_threshold < 1:
        raise ValueError("e_threshold must be >= 1")
    degrees = np.asarray(degrees, dtype=np.int64)
    if np.any(degrees < 0):
        raise ValueError("degrees must be non-negative")
    if degrees.size == 0:
        return DispatchOutcome(
            pe_loads=np.zeros(num_pes, dtype=np.int64),
            scheduling_ops=0,
            num_splits=0,
        )

    # Each vertex becomes ceil(deg / eThreshold) chunks of (nearly) even
    # size; small vertices are single whole-list chunks.  Chunks stream to
    # PEs with one global round-robin cursor -- DE_i forwarding to PE_i as
    # the active vertices rotate through the DEs -- which keeps remainder
    # chunks from piling onto low-numbered PEs.
    num_chunks = np.maximum(-(-degrees // e_threshold), 1)
    base = degrees // num_chunks
    extra = degrees - base * num_chunks  # first `extra` chunks get +1

    # Chunk k goes to PE k % num_pes: lay the chunk sizes out in rows of
    # num_pes and sum the columns.
    total_chunks = int(num_chunks.sum())
    chunk_sizes = np.zeros(-(-total_chunks // num_pes) * num_pes, dtype=np.int64)
    chunk_sizes[:total_chunks] = np.repeat(base, num_chunks)
    # Only split lists have +1 chunks (a whole list has extra == 0): add
    # one to the first `extra` chunks of each, at [start, start + extra).
    split = np.flatnonzero(extra)
    if split.size:
        starts = (np.cumsum(num_chunks) - num_chunks)[split]
        lengths = extra[split]
        ramp = np.arange(int(lengths.sum()), dtype=np.int64)
        chunk_sizes[np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + ramp] += 1
    loads = chunk_sizes.reshape(-1, num_pes).sum(axis=0)

    return DispatchOutcome(
        pe_loads=loads,
        scheduling_ops=total_chunks,
        num_splits=int(np.count_nonzero(num_chunks > 1)),
    )


def hash_dispatch(
    vertex_ids: np.ndarray,
    degrees: np.ndarray,
    num_pes: int = 16,
) -> DispatchOutcome:
    """Graphicionado-style dispatch: whole edge list to ``vid % num_pes``.

    Every *edge* is a scheduling operation in the baseline (the front-end
    streams edges one at a time to the owning pipeline), which is the
    reference point for Fig. 14a's 94% reduction.
    """
    vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.int64)
    if vertex_ids.shape != degrees.shape:
        raise ValueError("vertex_ids and degrees must be parallel")
    loads = np.zeros(num_pes, dtype=np.int64)
    np.add.at(loads, vertex_ids % num_pes, degrees)
    return DispatchOutcome(
        pe_loads=loads,
        scheduling_ops=int(degrees.sum()),
        num_splits=0,
    )


def per_vertex_dispatch_ops(degrees: np.ndarray, e_threshold: int = 128) -> int:
    """Scheduling operations under balanced dispatch, without the loads.

    Cheap closed form used by the timing layer:
    one op per small vertex, ``ceil(deg/eThreshold)`` per large vertex.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    small = degrees < e_threshold
    ops = int(np.count_nonzero(small))
    large = degrees[~small]
    if large.size:
        ops += int((-(-large // e_threshold)).sum())
    return ops
