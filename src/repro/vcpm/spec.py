"""Algorithm specification for the Vertex-Centric Programming Model.

Table 2 of the paper defines each algorithm by three application-defined
functions over an edge ``e = (u, v)``:

* ``Process_Edge(u.prop, e.weight)`` -- produces an edge result,
* ``Reduce(v.tProp, res)``           -- folds edge results into the
  destination's *temporary* property (always a simple min/max/accumulate,
  which is what makes the zero-stall Reduce Pipeline of Section 5.2.3
  possible),
* ``Apply(v.prop, v.tProp, v.cProp)`` -- produces the new property; the
  vertex is activated when it changes.

An :class:`AlgorithmSpec` carries both scalar forms (used by the reference
interpreter and the discrete-event micro-models) and vectorized numpy forms
(used by the functional engine).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Optional

import numpy as np

__all__ = ["ReduceOp", "AlgorithmSpec"]


class ReduceOp(enum.Enum):
    """The commutative, associative fold used in the Scatter phase.

    The paper's key observation (Section 5.2.3) is that every VCPM Reduce is
    one of a handful of single-instruction operations, so the Reduce Pipeline
    needs only one FALU stage.
    """

    MIN = "min"
    MAX = "max"
    SUM = "sum"

    @property
    def identity(self) -> float:
        """Value that leaves the fold unchanged."""
        if self is ReduceOp.MIN:
            return float("inf")
        if self is ReduceOp.MAX:
            return float("-inf")
        return 0.0

    @property
    def ufunc(self) -> np.ufunc:
        """Numpy ufunc whose ``.at`` form implements the atomic fold."""
        if self is ReduceOp.MIN:
            return np.minimum
        if self is ReduceOp.MAX:
            return np.maximum
        return np.add

    def scalar(self, accumulator: float, value: float) -> float:
        """Scalar fold, used by the event-driven Reduce Pipeline model."""
        if self is ReduceOp.MIN:
            return min(accumulator, value)
        if self is ReduceOp.MAX:
            return max(accumulator, value)
        return accumulator + value

    @property
    def is_monotonic(self) -> bool:
        """Whether repeated folds can only move the accumulator one way.

        Monotonic reduces (min/max) let the temporary property persist
        across iterations; SUM-based algorithms (PageRank) must reset it
        every iteration.
        """
        return self is not ReduceOp.SUM


@dataclasses.dataclass(frozen=True)
class AlgorithmSpec:
    """A graph algorithm expressed in the (push-based) VCPM of Algorithm 1.

    Attributes:
        name: short name, e.g. ``"BFS"``.
        process_edge: vectorized ``(u_prop, weight) -> edge result``, one
            result per edge: ``run_vcpm`` applies it to consecutive blocks
            of an iteration's edges.
        reduce_op: the fold applied to the destination's temporary property.
        apply: vectorized ``(prop, t_prop, c_prop) -> new prop``.
        initial_prop: ``(num_vertices, source) -> initial property array``.
        uses_weights: whether ``Process_Edge`` reads the edge weight (BFS/CC
            do not; their edge records can drop the weight field, and
            ``run_vcpm`` passes ``None`` as their weight).
        uses_degree_cprop: whether ``cProp`` is the vertex out-degree (PR).
        all_vertices_active_initially: CC and PR start from every vertex.
        resets_tprop_each_iteration: derived from the reduce op; PR's SUM
            accumulator restarts every iteration.
        needs_source: whether a source/root vertex is meaningful.
        default_max_iterations: safety bound on iterations.
    """

    name: str
    process_edge: Callable[[np.ndarray, np.ndarray], np.ndarray]
    reduce_op: ReduceOp
    apply: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    initial_prop: Callable[[int, Optional[int]], np.ndarray]
    uses_weights: bool = True
    uses_degree_cprop: bool = False
    all_vertices_active_initially: bool = False
    needs_source: bool = True
    default_max_iterations: int = 1000

    @property
    def resets_tprop_each_iteration(self) -> bool:
        return not self.reduce_op.is_monotonic

    def initial_tprop(self, num_vertices: int) -> np.ndarray:
        """Temporary property array filled with the reduce identity."""
        return np.full(num_vertices, self.reduce_op.identity, dtype=np.float64)

    def process_edge_scalar(self, u_prop: float, weight: float) -> float:
        """Scalar ``Process_Edge`` (vectorized form applied to size-1 arrays)."""
        return float(
            self.process_edge(
                np.asarray([u_prop], dtype=np.float64),
                np.asarray([weight], dtype=np.float64),
            )[0]
        )

    def apply_scalar(self, prop: float, t_prop: float, c_prop: float) -> float:
        """Scalar ``Apply``."""
        return float(
            self.apply(
                np.asarray([prop], dtype=np.float64),
                np.asarray([t_prop], dtype=np.float64),
                np.asarray([c_prop], dtype=np.float64),
            )[0]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AlgorithmSpec({self.name}, reduce={self.reduce_op.value})"
