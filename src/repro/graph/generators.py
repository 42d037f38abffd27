"""Synthetic graph generators.

Two families matter for the paper's evaluation:

* **RMAT** (Fig. 14f, Table 4): the Graph500 recursive-matrix generator.
  The paper uses scales 22-26 with edge factor 16; we implement the same
  generator and (per DESIGN.md) evaluate it at reduced scales.
* **Power-law proxies** (Table 4 real-world graphs): a Chung-Lu style
  generator that hits a target vertex count, edge count, and degree-skew, so
  the scaled-down proxies show the same irregularity behaviour (degree
  variance drives workload irregularity; frontier evolution drives update
  irregularity).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from .csr import CSRGraph, index_dtype

__all__ = [
    "rmat_graph",
    "rmat_edge_chunks",
    "RMAT_CHUNK_EDGES",
    "power_law_graph",
    "uniform_random_graph",
    "grid_graph",
    "chain_graph",
    "star_graph",
    "complete_graph",
]

#: Fixed chunk size of the streaming RMAT generator.  Part of the
#: deterministic definition of every paper-scale dataset (chunks are
#: seeded independently, so a different chunk size is a different edge
#: stream); change it only together with the dataset fingerprint.
RMAT_CHUNK_EDGES = 1 << 20

#: Edges per block of :func:`power_law_graph`'s draw and relabelling
#: (bounds their temporaries; any block size draws the same graph).
_DRAW_BLOCK = 1 << 16

# Standard Graph500 RMAT partition probabilities.
_RMAT_A, _RMAT_B, _RMAT_C, _RMAT_D = 0.57, 0.19, 0.19, 0.05


def rmat_graph(
    scale: int,
    edge_factor: int = 16,
    a: float = _RMAT_A,
    b: float = _RMAT_B,
    c: float = _RMAT_C,
    seed: int = 0,
    name: Optional[str] = None,
) -> CSRGraph:
    """Generate an RMAT graph with ``2**scale`` vertices.

    Follows the Graph500 reference generator: each edge picks a quadrant of
    the adjacency matrix recursively, with per-level probability noise.
    Weights are uniform integers in [0, 255] like the paper's setup.

    Args:
        scale: log2 of the vertex count.
        edge_factor: edges per vertex (Graph500 uses 16).
        a, b, c: RMAT quadrant probabilities (d is the remainder).
        seed: RNG seed for reproducibility.
        name: dataset name; defaults to ``RMAT<scale>``.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if 1.0 - a - b - c < 0:
        raise ValueError("RMAT probabilities must sum to <= 1")
    rng = np.random.default_rng(seed)
    num_vertices = 1 << scale
    num_edges = num_vertices * edge_factor
    width = index_dtype(num_vertices, num_edges)
    ends = _rmat_quadrant_bits(rng, num_edges, scale, a, b, c, width)
    # Permute vertex ids to remove the locality bias of raw RMAT output.
    _relabel(ends, rng.permutation(num_vertices).astype(width))
    return CSRGraph.from_arrays(
        num_vertices, ends[0], ends[1], _draw_weights(rng, num_edges),
        name=name or f"RMAT{scale}",
    )


def _rmat_quadrant_bits(
    rng: np.random.Generator,
    count: int,
    scale: int,
    a: float,
    b: float,
    c: float,
    width: np.dtype,
) -> np.ndarray:
    """Raw (pre-permutation) RMAT ``(src, dst)`` rows for ``count`` edges.

    Each level draws ``count`` row uniforms, then ``count`` column
    uniforms, with per-level probability noise as in the Graph500
    generator, and appends one bit to every endpoint (most significant
    first, by shift-or in place).  Each uniform array dies once its bits
    are taken, so a level holds one ``float64`` array of ``count`` and
    the column thresholds at a time.
    """
    d = 1.0 - a - b - c
    ends = np.zeros((2, count), dtype=width)
    ab = a + b
    a_norm = a / (a + c) if (a + c) else 0.5
    c_norm = c / (c + d) if (c + d) else 0.5
    # The column probability depends on which row half was chosen.
    col_threshold = np.array([a_norm, c_norm])
    for _ in range(scale):
        row_bit = rng.random(count) > ab
        col_bit = rng.random(count) > col_threshold[row_bit.view(np.uint8)]
        for row, bits in zip(ends, (row_bit, col_bit)):
            np.left_shift(row, 1, out=row)
            np.bitwise_or(row, bits, out=row)
    return ends


def _relabel(ends: np.ndarray, perm: np.ndarray) -> None:
    """``ends[...] = perm[ends]``, in place, ``_DRAW_BLOCK`` edges at a time."""
    for start in range(0, ends.shape[-1], _DRAW_BLOCK):
        block = ends[..., start:start + _DRAW_BLOCK]
        block[...] = perm[block]


def rmat_edge_chunks(
    scale: int,
    edge_factor: int = 16,
    a: float = _RMAT_A,
    b: float = _RMAT_B,
    c: float = _RMAT_C,
    seed: int = 0,
    chunk_edges: int = RMAT_CHUNK_EDGES,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Stream an RMAT graph as ``(src, dst, weight)`` chunks.

    The out-of-core twin of :func:`rmat_graph`: the same quadrant
    recursion and [0, 255] integer weights, but never more than one
    chunk of edges resident at a time, which is what lets the
    paper-scale datasets (``RM22-FULL``..) be assembled under a memory
    budget via :func:`repro.graph.storage.assemble_csr`.

    Each chunk draws from an independent child of
    ``np.random.SeedSequence(seed)``, so the stream is deterministic
    *and* repeatable: two calls with identical arguments yield identical
    chunk sequences (the two-pass assembler depends on this).  Note the
    stream differs from :func:`rmat_graph`'s single-pass draw at equal
    seeds -- the chunked stream is its own (equally valid) graph
    definition.

    The id-decorrelating vertex permutation of :func:`rmat_graph` is
    preserved: one permutation is drawn from the first child seed and
    applied to every chunk.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if chunk_edges < 1:
        raise ValueError("chunk_edges must be positive")
    if 1.0 - a - b - c < 0:
        raise ValueError("RMAT probabilities must sum to <= 1")
    num_vertices = 1 << scale
    num_edges = num_vertices * edge_factor
    num_chunks = -(-num_edges // chunk_edges)
    width = index_dtype(num_vertices, num_edges)
    children = np.random.SeedSequence(seed).spawn(num_chunks + 1)
    perm = np.random.default_rng(children[0]).permutation(num_vertices).astype(width)
    produced = 0
    for index in range(num_chunks):
        count = min(chunk_edges, num_edges - produced)
        produced += count
        rng = np.random.default_rng(children[index + 1])
        ends = _rmat_quadrant_bits(rng, count, scale, a, b, c, width)
        _relabel(ends, perm)
        yield ends[0], ends[1], _draw_weights(rng, count)


def power_law_graph(
    num_vertices: int,
    num_edges: int,
    exponent: float = 2.1,
    max_share: float = 0.0015,
    seed: int = 0,
    name: str = "powerlaw",
) -> CSRGraph:
    """Chung-Lu style power-law graph with a fixed edge budget.

    Vertex ``i`` receives an attachment weight ``(i + 1) ** -1/(exponent-1)``
    (a Zipf-like profile); sources and destinations are drawn independently
    in proportion to those weights, which yields the heavy-tailed in/out
    degree distributions that drive the paper's workload irregularity.

    ``max_share`` caps any single vertex's expected share of the edges.  At
    proxy scale an uncapped Zipf head would concentrate several percent of
    all edges on one vertex -- far beyond the real graphs of Table 4, where
    the hottest vertex holds well under a percent of edges -- distorting
    crossbar/UE contention.  The cap keeps the tail heavy while matching
    realistic head mass.

    Args:
        num_vertices: vertex count of the proxy.
        num_edges: directed edge count.
        exponent: target power-law exponent (2-3 typical for social graphs).
        max_share: cap on one vertex's expected fraction of endpoints.
        seed: RNG seed.
        name: dataset name.
    """
    if num_vertices < 1:
        raise ValueError("num_vertices must be >= 1")
    if num_edges < 0:
        raise ValueError("num_edges must be >= 0")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    attach = ranks ** (-1.0 / (exponent - 1.0))
    attach /= attach.sum()
    if max_share is not None:
        floor_share = 1.0 / (num_vertices * 10.0)
        cap = max(max_share, floor_share)
        for _ in range(4):  # clip-and-renormalize to a fixpoint
            attach = np.minimum(attach, cap)
            attach /= attach.sum()
    # Sources and destinations are drawn into one array and relabelled in
    # place, block by block, so these steps make no edge-sized temporaries.
    cdf, guide = _inverse_cdf(attach)
    width = index_dtype(num_vertices, num_edges)
    ends = np.empty((2, num_edges), dtype=width)
    for row in ends:
        _weighted_draw(rng, cdf, guide, out=row)
    # Shuffle ids so vertex id does not correlate with degree (mirrors the
    # arbitrary vertex numbering of crawled graphs).
    _relabel(ends, rng.permutation(num_vertices).astype(width))
    weights = _draw_weights(rng, num_edges)
    return CSRGraph.from_arrays(num_vertices, ends[0], ends[1], weights, name=name)


def _draw_weights(rng: np.random.Generator, num_edges: int) -> np.ndarray:
    """``rng.integers(0, 256, num_edges)`` as ``float32``, drawn in blocks.

    Bounded integers are generated one at a time from the bit stream, so
    blocks of ``_DRAW_BLOCK`` draw the same values, and leave the same
    generator state, as one call; no edge-length ``int64`` array is made.
    """
    weights = np.empty(num_edges, dtype=np.float32)
    for start in range(0, num_edges, _DRAW_BLOCK):
        block = weights[start:start + _DRAW_BLOCK]
        block[...] = rng.integers(0, 256, size=block.size)
    return weights


def _inverse_cdf(p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(cdf, guide)`` pair :func:`_weighted_draw` samples ``p`` with.

    ``cdf`` is computed exactly as ``Generator.choice`` computes it.
    ``guide[k]`` is the number of ``cdf`` entries ``<= k / K`` for a
    power of two ``K >= 4 * len(p)``.  ``cdf * K`` is exact, so that is
    ``#{i : ceil(cdf[i] * K) <= k}``: a step function that takes the
    value ``i`` on ``[ceil(cdf[i-1] * K), ceil(cdf[i] * K))``, built by
    one ``np.repeat`` with only ``len(p)``-sized temporaries.
    """
    cdf = np.cumsum(p, dtype=np.float64)
    cdf /= cdf[-1]
    scale = 1 << (4 * cdf.size - 1).bit_length()
    steps = np.diff(np.ceil(cdf * scale).astype(np.int64), prepend=0)
    index_type = np.int32 if cdf.size <= np.iinfo(np.int32).max else np.int64
    return cdf, np.repeat(np.arange(cdf.size, dtype=index_type), steps)


def _weighted_draw(
    rng: np.random.Generator, cdf: np.ndarray, guide: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with ``rng.choice(len(p), out.size, p=p)`` for the
    ``(cdf, guide)`` of ``p``, and return it.

    numpy defines that draw as one ``rng.random(size)`` followed by
    ``cdf.searchsorted(u, side="right")``.  This consumes the same
    uniforms and returns the same indices in O(1) expected time each:
    ``u * K`` is exact, so ``k = floor(u * K)`` puts ``u`` in
    ``[k / K, (k + 1) / K)`` and the answer is ``guide[k]`` unless
    ``cdf[guide[k]] <= u``; only those samples (a few percent) are
    searched.  The equality with ``choice`` is pinned by a test, which
    flags a numpy release that changes its definition.

    The uniforms are drawn in blocks of ``_DRAW_BLOCK`` to bound the
    temporaries; float64 ``rng.random`` yields the same values in
    blocks as in one call.
    """
    scale = guide.size
    for start in range(0, out.size, _DRAW_BLOCK):
        u = rng.random(min(_DRAW_BLOCK, out.size - start))
        idx = guide[(u * scale).astype(np.intp)]
        miss = np.flatnonzero(cdf[idx] <= u)
        idx[miss] = cdf.searchsorted(u[miss], side="right")
        out[start:start + u.size] = idx
    return out


def uniform_random_graph(
    num_vertices: int,
    num_edges: int,
    seed: int = 0,
    name: str = "uniform",
) -> CSRGraph:
    """Erdos-Renyi style graph: endpoints drawn uniformly at random."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges)
    dst = rng.integers(0, num_vertices, size=num_edges)
    weights = rng.integers(0, 256, size=num_edges).astype(np.float32)
    return CSRGraph.from_arrays(num_vertices, src, dst, weights, name=name)


def grid_graph(rows: int, cols: int, name: str = "grid") -> CSRGraph:
    """2-D grid with 4-neighbour connectivity (deterministic, for tests)."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
                edges.append((v + 1, v))
            if r + 1 < rows:
                edges.append((v, v + cols))
                edges.append((v + cols, v))
    return CSRGraph.from_edge_list(rows * cols, edges, name=name)


def chain_graph(num_vertices: int, name: str = "chain") -> CSRGraph:
    """Directed path 0 -> 1 -> ... -> n-1 (worst case for frontier width)."""
    edges = [(i, i + 1) for i in range(num_vertices - 1)]
    return CSRGraph.from_edge_list(num_vertices, edges, name=name)


def star_graph(num_leaves: int, name: str = "star") -> CSRGraph:
    """Hub vertex 0 pointing at ``num_leaves`` leaves (max degree skew)."""
    edges = [(0, i) for i in range(1, num_leaves + 1)]
    return CSRGraph.from_edge_list(num_leaves + 1, edges, name=name)


def complete_graph(num_vertices: int, name: str = "complete") -> CSRGraph:
    """All-pairs directed graph without self loops."""
    edges = [
        (u, v)
        for u in range(num_vertices)
        for v in range(num_vertices)
        if u != v
    ]
    return CSRGraph.from_edge_list(num_vertices, edges, name=name)
