"""The five graph-analytics algorithms of Table 2.

=========  ==========================  =====================  ============================
Algorithm  Process_Edge                Reduce                 Apply
=========  ==========================  =====================  ============================
BFS        ``u.prop + 1``              ``min(tProp, res)``    ``min(prop, tProp)``
SSSP       ``u.prop + e.weight``       ``min(tProp, res)``    ``min(prop, tProp)``
CC         ``u.prop``                  ``min(tProp, res)``    ``min(prop, tProp)``
SSWP       ``min(u.prop, e.weight)``   ``max(tProp, res)``    ``max(prop, tProp)``
PR         ``u.prop``                  ``tProp + res``        ``(alpha + beta*tProp)/deg``
=========  ==========================  =====================  ============================

PageRank follows the Graphicionado formulation where the stored property is
``rank / out_degree`` so that ``Process_Edge`` needs no division; ``cProp`` is
the out-degree.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .spec import AlgorithmSpec, ReduceOp

__all__ = [
    "BFS",
    "SSSP",
    "CC",
    "SSWP",
    "PAGERANK",
    "ALGORITHMS",
    "algorithm_names",
    "get_algorithm",
    "PR_ALPHA",
    "PR_BETA",
]

#: Damping constants used by PageRank's Apply (Table 2's alpha and beta).
PR_ALPHA = 0.15
PR_BETA = 0.85


def _source_init(fill: float, source_value: float):
    """Property initializer: ``fill`` everywhere, ``source_value`` at source."""

    def init(num_vertices: int, source: Optional[int]) -> np.ndarray:
        prop = np.full(num_vertices, fill, dtype=np.float64)
        if source is not None:
            prop[source] = source_value
        return prop

    return init


def _vertex_id_init(num_vertices: int, source: Optional[int]) -> np.ndarray:
    """CC starts every vertex labelled with its own id."""
    return np.arange(num_vertices, dtype=np.float64)


def _pagerank_init(num_vertices: int, source: Optional[int]) -> np.ndarray:
    """PR property is rank/deg; ranks start uniform at 1/N.

    The engine divides by out-degree when it installs ``cProp``; here we
    return plain 1/N and rely on the first Apply to normalize, matching the
    usual accelerator initialization where iteration 0 scatters 1/(N*deg).
    """
    if num_vertices == 0:
        return np.zeros(0, dtype=np.float64)
    return np.full(num_vertices, 1.0 / num_vertices, dtype=np.float64)


def _min_apply(prop: np.ndarray, t_prop: np.ndarray, c_prop: np.ndarray) -> np.ndarray:
    return np.minimum(prop, t_prop)


def _max_apply(prop: np.ndarray, t_prop: np.ndarray, c_prop: np.ndarray) -> np.ndarray:
    return np.maximum(prop, t_prop)


def _pagerank_apply(prop: np.ndarray, t_prop: np.ndarray, c_prop: np.ndarray) -> np.ndarray:
    """``(alpha + beta * tProp) / deg`` exactly as in Table 2."""
    deg = np.maximum(c_prop, 1.0)
    return (PR_ALPHA + PR_BETA * t_prop) / deg


BFS = AlgorithmSpec(
    name="BFS",
    process_edge=lambda u_prop, weight: u_prop + 1.0,
    reduce_op=ReduceOp.MIN,
    apply=_min_apply,
    initial_prop=_source_init(float("inf"), 0.0),
    uses_weights=False,
)

SSSP = AlgorithmSpec(
    name="SSSP",
    process_edge=lambda u_prop, weight: u_prop + weight,
    reduce_op=ReduceOp.MIN,
    apply=_min_apply,
    initial_prop=_source_init(float("inf"), 0.0),
)

CC = AlgorithmSpec(
    name="CC",
    process_edge=lambda u_prop, weight: u_prop,
    reduce_op=ReduceOp.MIN,
    apply=_min_apply,
    initial_prop=_vertex_id_init,
    uses_weights=False,
    all_vertices_active_initially=True,
    needs_source=False,
)

SSWP = AlgorithmSpec(
    name="SSWP",
    process_edge=lambda u_prop, weight: np.minimum(u_prop, weight),
    reduce_op=ReduceOp.MAX,
    apply=_max_apply,
    initial_prop=_source_init(0.0, float("inf")),
)

PAGERANK = AlgorithmSpec(
    name="PR",
    process_edge=lambda u_prop, weight: u_prop,
    reduce_op=ReduceOp.SUM,
    apply=_pagerank_apply,
    initial_prop=_pagerank_init,
    uses_weights=False,
    uses_degree_cprop=True,
    all_vertices_active_initially=True,
    needs_source=False,
    default_max_iterations=10,
)

ALGORITHMS: Dict[str, AlgorithmSpec] = {
    spec.name: spec for spec in (BFS, SSSP, CC, SSWP, PAGERANK)
}


def algorithm_names() -> List[str]:
    """Names in the paper's presentation order: BFS, SSSP, CC, SSWP, PR."""
    return list(ALGORITHMS)


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up an algorithm spec by its Table 2 name (case-insensitive)."""
    key = name.upper()
    if key == "PAGERANK":
        key = "PR"
    if key not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {name!r}; choose from {algorithm_names()}")
    return ALGORITHMS[key]
