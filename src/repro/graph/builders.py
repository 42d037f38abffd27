"""Graph construction helpers and structural transforms.

Includes the preprocessing transforms that GPU frameworks lean on
(Section 1: "Most GPU-based solutions rely on preprocessing to tackle these
irregularities ... However, the preprocessing is costly"):

* :func:`sort_by_degree` -- degree-descending vertex relabeling, the
  classic reordering that regularizes warp workloads;
* :func:`symmetrize` -- make every edge bidirectional (many frameworks
  preprocess directed inputs this way);
* :func:`deduplicate` / :func:`remove_self_loops` -- cleanup passes.

Each transform reports its own cost in "touched bytes" so the preprocessing
-overhead experiment can weigh benefit against cost.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping, Optional, Tuple

import numpy as np

from .csr import CSRGraph

__all__ = [
    "from_adjacency",
    "symmetrize",
    "deduplicate",
    "remove_self_loops",
    "sort_by_degree",
    "relabel",
    "TransformCost",
]


@dataclasses.dataclass(frozen=True)
class TransformCost:
    """Cost accounting for a preprocessing transform.

    ``touched_bytes`` approximates the memory traffic of performing the
    transform (read every edge + write every edge + permutation tables);
    the preprocessing experiment converts this into time on the target
    system's bandwidth.
    """

    name: str
    touched_bytes: int

    def seconds_at(self, bytes_per_second: float) -> float:
        """Transform time on a memory system of the given bandwidth."""
        if bytes_per_second <= 0:
            raise ValueError("bandwidth must be positive")
        return self.touched_bytes / bytes_per_second


def from_adjacency(
    adjacency: Mapping[int, Iterable[int]],
    num_vertices: Optional[int] = None,
    name: str = "adjacency",
) -> CSRGraph:
    """Build a graph from ``{src: [dst, ...]}``."""
    edges = [
        (src, dst) for src, dsts in adjacency.items() for dst in dsts
    ]
    if num_vertices is None:
        flat = [v for pair in edges for v in pair] + list(adjacency)
        num_vertices = max(flat, default=-1) + 1
    return CSRGraph.from_edge_list(num_vertices, edges, name=name)


def symmetrize(graph: CSRGraph) -> Tuple[CSRGraph, TransformCost]:
    """Add the reverse of every edge (weights copied); dedupes the result."""
    sources = graph.edge_sources()
    fwd = np.stack([sources, graph.edges], axis=1)
    bwd = np.stack([graph.edges, sources], axis=1)
    pairs = np.concatenate([fwd, bwd])
    weights = np.concatenate([graph.weights, graph.weights])
    combined = CSRGraph.from_edge_list(
        graph.num_vertices, pairs, weights, name=f"{graph.name}+sym"
    )
    result, _ = deduplicate(combined)
    cost = TransformCost(
        name="symmetrize",
        touched_bytes=graph.num_edges * 8 * 4,  # read + write both copies
    )
    return result, cost


def deduplicate(graph: CSRGraph) -> Tuple[CSRGraph, TransformCost]:
    """Drop duplicate ``(src, dst)`` pairs, keeping the first weight."""
    sources = graph.edge_sources()
    keys = sources.astype(np.int64) * graph.num_vertices + graph.edges
    _, first_index = np.unique(keys, return_index=True)
    first_index.sort()
    pairs = np.stack([sources[first_index], graph.edges[first_index]], axis=1)
    result = CSRGraph.from_edge_list(
        graph.num_vertices,
        pairs,
        graph.weights[first_index],
        name=graph.name,
    )
    cost = TransformCost(
        name="deduplicate", touched_bytes=graph.num_edges * 8 * 3
    )
    return result, cost


def remove_self_loops(graph: CSRGraph) -> Tuple[CSRGraph, TransformCost]:
    """Drop ``(v, v)`` edges."""
    sources = graph.edge_sources()
    keep = sources != graph.edges
    pairs = np.stack([sources[keep], graph.edges[keep]], axis=1)
    result = CSRGraph.from_edge_list(
        graph.num_vertices, pairs, graph.weights[keep], name=graph.name
    )
    cost = TransformCost(
        name="remove_self_loops", touched_bytes=graph.num_edges * 8 * 2
    )
    return result, cost


def relabel(
    graph: CSRGraph, permutation: np.ndarray, name: Optional[str] = None
) -> CSRGraph:
    """Renumber vertices: new id of vertex ``v`` is ``permutation[v]``."""
    permutation = np.asarray(permutation, dtype=np.int64)
    if permutation.shape != (graph.num_vertices,):
        raise ValueError("permutation must have one entry per vertex")
    if not np.array_equal(np.sort(permutation), np.arange(graph.num_vertices)):
        raise ValueError("permutation must be a bijection on vertex ids")
    sources = permutation[graph.edge_sources()]
    destinations = permutation[graph.edges]
    pairs = np.stack([sources, destinations], axis=1)
    return CSRGraph.from_edge_list(
        graph.num_vertices, pairs, graph.weights,
        name=name or f"{graph.name}+relabel",
    )


def sort_by_degree(
    graph: CSRGraph, descending: bool = True
) -> Tuple[CSRGraph, TransformCost]:
    """Relabel vertices in (out-)degree order -- GPU-style preprocessing.

    Degree-sorted numbering groups similar-degree vertices, which is what
    frontier-partitioned GPU kernels (and Tigr/CuSha-style transforms)
    exploit; the cost is a full permutation of the graph.
    """
    degrees = graph.out_degree()
    order = np.argsort(-degrees if descending else degrees, kind="stable")
    permutation = np.empty(graph.num_vertices, dtype=np.int64)
    permutation[order] = np.arange(graph.num_vertices)
    result = relabel(graph, permutation, name=f"{graph.name}+degsort")
    cost = TransformCost(
        name="sort_by_degree",
        # Read + rewrite every edge and offset, plus the permutation pair.
        touched_bytes=graph.num_edges * 8 * 2 + graph.num_vertices * 8 * 3,
    )
    return result, cost
