"""Exact prefetch planning (Sections 4.1.2 and 5.2.1).

With ``offset`` and ``edgeCnt`` known for every active vertex, the
Prefetcher can issue *exact* edge requests: no speculative over-fetch, no
``src_vid`` sentinel scanning, and adjacent edge lists coalesce into single
DRAM bursts.  The planner converts an iteration's active-vertex records into
the :class:`~repro.memory.request.AccessPattern` batches the HBM model
consumes.

Two plans are produced by the module:

* :func:`plan_exact_prefetch`   -- GraphDynS: 8-byte edge records
  (dst + weight), runs coalesced across adjacent active vertices.
* :func:`plan_baseline_fetch`   -- Graphicionado: 12-byte edge records
  (src_vid + dst + weight), one random fetch per active vertex plus a
  trailing over-fetch to find the end-of-list sentinel, and a random offset
  lookup to *start* the traversal.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from ..memory.request import AccessPattern, Region

__all__ = [
    "PrefetchPlan",
    "plan_exact_prefetch",
    "plan_baseline_fetch",
    "coalesced_run_lengths",
    "EDGE_BYTES_EXACT",
    "EDGE_BYTES_WITH_SRC",
    "ACTIVE_RECORD_BYTES",
]

#: GraphDynS edge record: destination id (4B) + weight (4B).
EDGE_BYTES_EXACT = 8
#: Graphicionado edge record adds the 4-byte ``src_vid`` tag.
EDGE_BYTES_WITH_SRC = 12
#: Active vertex record of Algorithm 2: prop + offset + edgeCnt (4B each).
ACTIVE_RECORD_BYTES = 12


@dataclasses.dataclass(frozen=True)
class PrefetchPlan:
    """The off-chip access batches for one Scatter phase (immutable)."""

    patterns: Tuple[AccessPattern, ...]
    edge_bytes: int
    coalesced_runs: int

    @property
    def total_bytes(self) -> int:
        return sum(p.total_bytes for p in self.patterns)


def _sorted_extents(
    offsets: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The non-empty extents ``(offset, edgeCnt)``, in ascending offset order."""
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    keep = counts > 0
    if not keep.all():
        offsets, counts = offsets[keep], counts[keep]
    if np.any(offsets[1:] < offsets[:-1]):  # the engine's frontiers are sorted
        order = np.argsort(offsets, kind="stable")
        offsets, counts = offsets[order], counts[order]
    return offsets, counts


def _run_breaks(offsets: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per sorted extent: True where it does not touch the previous end."""
    breaks = np.ones(offsets.size, dtype=bool)
    breaks[1:] = offsets[1:] > offsets[:-1] + counts[:-1]
    return breaks


def coalesced_run_lengths(
    offsets: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Merge adjacent edge-list extents into maximal contiguous runs.

    Active vertices arrive in ascending id order after the Apply phase, so
    their edge extents ``[offset, offset+edgeCnt)`` are sorted and
    non-overlapping; extents that touch coalesce into one DRAM run -- the
    "coalesce memory accesses to edge data" of Section 5.2.1.

    Returns the run lengths in edges.  The plans only need how many runs
    there are (``_coalesced_run_count``) and the edge total; this is
    the reference they are tested against.
    """
    offsets, counts = _sorted_extents(offsets, counts)
    if offsets.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.add.reduceat(counts, np.flatnonzero(_run_breaks(offsets, counts)))


def _coalesced_run_count(offsets: np.ndarray, counts: np.ndarray) -> int:
    """``coalesced_run_lengths(offsets, counts).size``, without the lengths.

    The runs partition the non-empty extents, so their mean length is the
    edge total over this count -- exactly ``runs.mean()``, because a
    float64 sum of integers below 2**53 is exact.
    """
    offsets, counts = _sorted_extents(offsets, counts)
    return int(np.count_nonzero(_run_breaks(offsets, counts)))


def plan_exact_prefetch(
    active_offsets: np.ndarray,
    active_counts: np.ndarray,
    weighted: bool = True,
) -> PrefetchPlan:
    """GraphDynS exact prefetch for one iteration's Scatter phase.

    Streams the active-vertex records sequentially (their addresses are
    known), then fetches exactly the edge bytes indicated by
    ``(offset, edgeCnt)``, coalescing adjacent extents.

    Args:
        active_offsets: ``offset`` of each active vertex.
        active_counts: ``edgeCnt`` of each active vertex.
        weighted: whether edges carry weights (BFS/CC/PR drop the weight
            field, halving edge traffic).
    """
    num_active = int(np.asarray(active_counts).size)
    edge_bytes = EDGE_BYTES_EXACT if weighted else EDGE_BYTES_EXACT // 2
    patterns: List[AccessPattern] = []
    if num_active:
        patterns.append(
            AccessPattern(
                region=Region.ACTIVE_VERTEX,
                total_bytes=num_active * ACTIVE_RECORD_BYTES,
                run_bytes=float(num_active * ACTIVE_RECORD_BYTES),
            )
        )
    num_runs = _coalesced_run_count(active_offsets, active_counts)
    total_edges = int(np.asarray(active_counts, dtype=np.int64).sum())
    if total_edges:
        mean_run_bytes = (
            total_edges / num_runs * edge_bytes if num_runs else edge_bytes
        )
        patterns.append(
            AccessPattern(
                region=Region.EDGE,
                total_bytes=total_edges * edge_bytes,
                run_bytes=mean_run_bytes,
            )
        )
    return PrefetchPlan(
        patterns=tuple(patterns),
        edge_bytes=edge_bytes,
        coalesced_runs=num_runs,
    )


def plan_baseline_fetch(
    active_offsets: np.ndarray,
    active_counts: np.ndarray,
    weighted: bool = True,
    offset_cached_on_chip: bool = True,
) -> PrefetchPlan:
    """Graphicionado-style edge fetching for one Scatter phase.

    Differences from the exact plan (Sections 5.2.1 and 7):

    * each edge record carries ``src_vid`` (12 B instead of 8 B; the paper
      measures 1.65x edge traffic);
    * the end of each vertex's list is found by reading *one extra* edge
      record whose ``src_vid`` mismatches;
    * edge lists are fetched per-vertex (no cross-vertex coalescing), so the
      run length is the single list;
    * when the offset array is not cached on-chip, starting each list costs
      a random 4-byte offset lookup.
    """
    active_offsets = np.asarray(active_offsets, dtype=np.int64)
    active_counts = np.asarray(active_counts, dtype=np.int64)
    num_active = int(active_counts.size)
    edge_bytes = EDGE_BYTES_WITH_SRC if weighted else EDGE_BYTES_WITH_SRC - 4
    patterns: List[AccessPattern] = []
    if num_active:
        patterns.append(
            AccessPattern(
                region=Region.ACTIVE_VERTEX,
                total_bytes=num_active * 8,  # (vid, prop)
                run_bytes=float(num_active * 8),
            )
        )
        if not offset_cached_on_chip:
            patterns.append(
                AccessPattern(
                    region=Region.OFFSET,
                    total_bytes=num_active * 4,
                    run_bytes=4.0,
                )
            )
    total_edges = int(active_counts.sum())
    if num_active:
        # +1 sentinel read per active vertex to detect end of list.  The
        # requests are issued per-vertex, but consecutive active vertices
        # own physically adjacent edge lists, so the DRAM row buffer still
        # sees the merged runs (the sentinel overlaps into the next list).
        fetched_edges = total_edges + num_active
        num_runs = _coalesced_run_count(active_offsets, active_counts + 1)
        mean_run = fetched_edges / num_runs if num_runs else 1.0
        patterns.append(
            AccessPattern(
                region=Region.EDGE,
                total_bytes=fetched_edges * edge_bytes,
                run_bytes=mean_run * edge_bytes,
            )
        )
    return PrefetchPlan(
        patterns=tuple(patterns),
        edge_bytes=edge_bytes,
        coalesced_runs=num_active,
    )
