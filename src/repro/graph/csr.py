"""Compressed Sparse Row (CSR) graph representation.

The CSR format is the storage layout assumed throughout the GraphDynS paper
(Section 2.1, Fig. 1): three one-dimensional arrays

* ``offsets``   -- for each vertex, the index into ``edges`` where its
  outgoing edge list starts.  ``offsets`` has ``num_vertices + 1`` entries so
  that the edge list of vertex ``v`` is ``edges[offsets[v]:offsets[v + 1]]``.
* ``edges``     -- destination vertex ids of every edge, grouped by source.
* ``weights``   -- per-edge weights (parallel to ``edges``).

Vertex property arrays are owned by the algorithm state, not by the graph.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CSRGraph", "GraphError", "radix_argsort", "sorted_unique"]


class GraphError(ValueError):
    """Raised when a graph is structurally invalid."""


def sorted_unique(values) -> np.ndarray:
    """Sorted distinct values of an integer array, in its dtype.

    Equal to ``np.unique(values)`` (flattened, dtype kept), computed as a
    sort plus an adjacent-inequality mask: numpy 2.x's hash-based
    ``np.unique`` is 10-25x slower on the vertex-id arrays that the churn
    batch, continuation frontier and Update Bitmap paths pass here.
    Integer input only: NaN never equals itself, so a float array would
    keep every NaN.
    """
    ordered = np.sort(np.asarray(values).ravel())
    keep = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def radix_argsort(keys, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    An LSD radix sort over 16-bit digits.  Each pass is numpy's O(n)
    stable argsort of one ``uint16`` digit (itself a radix sort), so keys
    below 2**16 take one pass and keys below 2**32 two, where the stable
    argsort of an int64 array is an O(n log n) comparison sort: 3-4x
    slower on the dataset build path.
    """
    keys = np.asarray(keys)
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while bound > 1 << shift:
        digit = (keys >> shift).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
        shift += 16
    return order


@dataclasses.dataclass(frozen=True)
class CSRGraph:
    """An immutable directed graph in CSR format.

    Attributes:
        offsets: ``int64`` array of length ``num_vertices + 1``.
        edges: ``int64`` array of destination ids, length ``num_edges``.
        weights: ``float32`` array of edge weights, length ``num_edges``.
        name: optional human-readable dataset name.
        validate: run the structural validation scan on construction.
            Trusted constructors (the out-of-core storage layer, whose
            spills were validated when written) pass ``False`` so that
            opening a memory-mapped paper-scale graph does not page
            every array byte in just to re-check invariants.
    """

    offsets: np.ndarray
    edges: np.ndarray
    weights: np.ndarray
    name: str = "graph"
    validate: bool = dataclasses.field(default=True, compare=False)

    def __post_init__(self) -> None:
        offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        edges = np.ascontiguousarray(self.edges, dtype=np.int64)
        weights = np.ascontiguousarray(self.weights, dtype=np.float32)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", weights)
        if self.validate:
            self._validate()

    def _validate(self) -> None:
        if self.offsets.ndim != 1 or self.offsets.size < 1:
            raise GraphError("offsets must be a 1-D array with >= 1 entry")
        if self.offsets[0] != 0:
            raise GraphError("offsets must start at 0")
        if self.offsets[-1] != self.edges.size:
            raise GraphError(
                "offsets must end at num_edges "
                f"(got {self.offsets[-1]}, expected {self.edges.size})"
            )
        if np.any(np.diff(self.offsets) < 0):
            raise GraphError("offsets must be non-decreasing")
        if self.weights.size != self.edges.size:
            raise GraphError("weights must be parallel to edges")
        if self.edges.size and (
            self.edges.min() < 0 or self.edges.max() >= self.num_vertices
        ):
            raise GraphError("edge destination out of range")

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self.offsets.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self.edges.size

    @property
    def edge_to_vertex_ratio(self) -> float:
        """Average out-degree (the paper calls this edge-to-vertex ratio)."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    # ------------------------------------------------------------------
    # Per-vertex access
    # ------------------------------------------------------------------
    def out_degree(self, vertex: Optional[int] = None) -> np.ndarray:
        """Out-degree of one vertex, or the full degree array when omitted."""
        degrees = np.diff(self.offsets)
        if vertex is None:
            return degrees
        return degrees[vertex]

    def neighbors(self, vertex: int) -> np.ndarray:
        """Destination ids of ``vertex``'s outgoing edges."""
        return self.edges[self.offsets[vertex]:self.offsets[vertex + 1]]

    def edge_weights(self, vertex: int) -> np.ndarray:
        """Weights of ``vertex``'s outgoing edges."""
        return self.weights[self.offsets[vertex]:self.offsets[vertex + 1]]

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(src, dst, weight)`` triples in CSR order."""
        for src in range(self.num_vertices):
            start, stop = self.offsets[src], self.offsets[src + 1]
            for idx in range(start, stop):
                yield src, int(self.edges[idx]), float(self.weights[idx])

    def edge_sources(self) -> np.ndarray:
        """Source vertex id of each edge (expanded from offsets).

        This materializes the ``src_vid`` field that Graphicionado stores
        with every edge (and GraphDynS deliberately omits).
        """
        if self.num_edges == 0:
            return np.zeros(0, dtype=np.int64)
        counts = np.diff(self.offsets)
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), counts)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(
        cls,
        num_vertices: int,
        edge_list: Sequence[Tuple[int, int]] | np.ndarray,
        weights: Optional[Sequence[float] | np.ndarray] = None,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build a CSR graph from an ``(src, dst)`` edge list.

        Edges are grouped by source; each row keeps its edges in input
        order (rows are not sorted by destination).  Duplicate edges and
        self-loops are retained.
        """
        arr = np.asarray(edge_list, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError("edge_list must be an (E, 2) array of (src, dst)")
        return cls.from_arrays(num_vertices, arr[:, 0], arr[:, 1], weights, name)

    @classmethod
    def from_arrays(
        cls,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: Optional[Sequence[float] | np.ndarray] = None,
        name: str = "graph",
    ) -> "CSRGraph":
        """:meth:`from_edge_list` for parallel ``src`` and ``dst`` id arrays.

        Same edge order, without the ``(E, 2)`` array a caller holding
        separate endpoint arrays would have to stack.
        """
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.ndim != 1 or src.shape != dst.shape:
            raise GraphError("src and dst must be parallel 1-D arrays")
        if src.size:
            if src.min() < 0 or src.max() >= num_vertices:
                raise GraphError("edge source out of range")
            if dst.min() < 0 or dst.max() >= num_vertices:
                raise GraphError("edge destination out of range")
        if weights is None:
            wts = np.ones(src.size, dtype=np.float32)
        else:
            wts = np.asarray(weights, dtype=np.float32)
            if wts.shape != src.shape:
                raise GraphError("weights must be parallel to edge_list")
        # The long-lived arrays are allocated before the sort's
        # temporaries, which are then freed from above them rather than
        # leaving edge-sized holes between a graph's arrays.
        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        edges = np.empty(src.size, dtype=np.int64)
        edge_weights = np.empty(src.size, dtype=np.float32)
        np.cumsum(np.bincount(src, minlength=num_vertices), out=offsets[1:])
        order = radix_argsort(src, num_vertices)
        # mode="clip" (a no-op: every index is in range) writes straight
        # into ``out``; the default mode gathers into a buffered copy.
        np.take(dst, order, out=edges, mode="clip")
        np.take(wts, order, out=edge_weights, mode="clip")
        return cls(offsets=offsets, edges=edges, weights=edge_weights, name=name)

    @classmethod
    def empty(cls, num_vertices: int = 0, name: str = "empty") -> "CSRGraph":
        """A graph with ``num_vertices`` vertices and no edges."""
        return cls(
            offsets=np.zeros(num_vertices + 1, dtype=np.int64),
            edges=np.zeros(0, dtype=np.int64),
            weights=np.zeros(0, dtype=np.float32),
            name=name,
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def reverse(self) -> "CSRGraph":
        """The transpose graph (all edges reversed)."""
        return CSRGraph.from_arrays(
            self.num_vertices,
            self.edges,
            self.edge_sources(),
            self.weights,
            name=f"{self.name}^T",
        )

    def with_weights(self, weights: np.ndarray, name: Optional[str] = None) -> "CSRGraph":
        """A copy of this graph with different edge weights."""
        return CSRGraph(
            offsets=self.offsets,
            edges=self.edges,
            weights=np.asarray(weights, dtype=np.float32),
            name=name or self.name,
        )

    # ------------------------------------------------------------------
    # Storage accounting (used by the Fig. 11 experiment)
    # ------------------------------------------------------------------
    def storage_bytes(
        self,
        edge_bytes: int = 8,
        offset_bytes: int = 8,
        property_bytes: int = 4,
        include_source_ids: bool = False,
        metadata_factor: float = 0.0,
    ) -> int:
        """Bytes of off-chip storage this graph occupies at runtime.

        Args:
            edge_bytes: bytes per edge record (dst id + weight).
            offset_bytes: bytes per offset entry.
            property_bytes: bytes per vertex property value.
            include_source_ids: add 4 bytes/edge for ``src_vid``
                (Graphicionado's layout).
            metadata_factor: extra storage as a multiple of the base graph
                (Gunrock's preprocessing metadata is > 2x per the paper).
        """
        base = (
            self.num_edges * edge_bytes
            + (self.num_vertices + 1) * offset_bytes
            + self.num_vertices * property_bytes * 2  # prop + tProp
        )
        if include_source_ids:
            base += self.num_edges * 4
        return int(base * (1.0 + metadata_factor))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, V={self.num_vertices}, "
            f"E={self.num_edges})"
        )
