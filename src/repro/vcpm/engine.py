"""Functional execution engine for the push-based VCPM (Algorithm 1 / 2).

The engine executes the algorithm *functionally* (bit-exact property values,
frontier evolution, convergence) while exposing, per iteration, exactly the
structural information that the paper's decoupled datapath extracts at
runtime:

* the active vertex list with per-vertex ``offset`` and ``edgeCnt``
  (Algorithm 2's dispatch stage),
* the destination id stream of the Scatter phase (drives crossbar/UE
  contention and RAW conflicts),
* the set of vertices whose temporary property was modified (the
  Ready-to-Update Bitmap contents),
* the set of vertices activated by Apply.

The scatter-side half of that (active ids, degrees, offsets and the
destination stream) is a :class:`Frontier`.  Everything the timing models
derive from it -- dispatch loads, prefetch plans, lane packing, RAW
conflicts, and the destination histogram that :meth:`Frontier.dst_loads`
folds to any width -- is computed once per frontier through
:meth:`Frontier.memo` and shared by every observer.  A memoized function
reads only the frontier (never ``modified_ids`` or ``activated_ids``) and
returns an immutable value.  When the next iteration's active set is again
every vertex (the ``resets_tprop_each_iteration`` specs, i.e. PR), the
engine keeps the frontier, its gathers and its memo instead of rebuilding
them; that is a decision made from the spec, never from comparing arrays.
Every array an observer sees is a read-only view.

Lifetime rule: only a kept all-vertex frontier outlives its iteration.
Every other iteration drops its edge-length streams -- the frontier's
gathers, the weights, the Scatter results -- before the next frontier
is built, so an engine holds at most one iteration's edge streams, as
Algorithm 2 streams each active list's edges once.  An observer that
keeps its own reference to an :class:`IterationData` keeps those arrays
alive and still reads the same read-only values.

Allocation rule: Scatter gathers and runs ``process_edge`` in
vertex-aligned blocks, so an iteration's only edge-length arrays are
the destination stream (the graph's index width), the ``float32``
weights of a weighted spec and the ``float64`` results; an all-vertex
frontier's streams are views of the graph.  Apply updates the property
array in place, and the modified ids die with their iteration.  Nothing
that outlives an iteration is then allocated from the space its streams
free, which would pin the top of the heap: glibc returns a freed top
to the system once it reaches twice the largest freed mmap, and the
next wide iteration would fault every page back in.

There is one iteration loop; :func:`run_vcpm` and the destination-sharded
:func:`repro.vcpm.partitioned.run_vcpm_partitioned` differ only in the
Reduce step they hand it (a :data:`Fold`).

Timing models subscribe as :class:`IterationObserver`; one functional run can
drive any number of accelerator models, which keeps benchmarks honest (every
model sees the identical data-dependent behaviour) and fast.

Reduction is implemented with ``np.minimum.at`` / ``np.maximum.at`` /
``np.add.at``, which are semantically the atomic read-modify-write loops the
hardware performs.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from ..graph.csr import CSRGraph, sorted_unique
from ..obs import get_recorder
from .spec import AlgorithmSpec

__all__ = [
    "Frontier",
    "IterationData",
    "IterationTrace",
    "VCPMResult",
    "IterationObserver",
    "run_vcpm",
    "gather_edge_indices",
]

T = TypeVar("T")


#: Most edges per block of the Scatter gathers and ``process_edge``
#: calls.  A block also holds at most an eighth of the graph's edges, so
#: on a small graph the block temporaries (about 32 bytes per block
#: edge) stay small beside its edge streams.
_SCATTER_BLOCK = 1 << 16
_MIN_SCATTER_BLOCK = 1 << 10


def gather_edge_indices(
    offsets: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Indices into the edge array for every edge of the active vertices.

    Vectorized expansion of ``[range(offsets[u], offsets[u+1]) for u in
    active]`` preserving traversal order, which the timing models rely on.
    The result is ``intp`` whatever the width of ``offsets``.
    """
    starts = offsets[active]
    return _edge_index(starts, offsets[active + 1] - starts)


def _edge_index(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``intp`` concatenation of ``range(s, s + c)`` over ``zip(starts, counts)``."""
    run_ends = np.cumsum(counts, dtype=np.intp)
    total = int(run_ends[-1]) if run_ends.size else 0
    # Each run's base, repeated per element, plus a ramp.
    index = np.repeat(starts - (run_ends - counts), counts)
    index += np.arange(total, dtype=np.intp)
    return index


def _edge_blocks(
    degrees: np.ndarray, block: int
) -> List[Tuple[int, int, int, int]]:
    """Vertex-aligned blocks of about ``block`` edges each.

    Block ``(lo, hi, start, stop)`` holds active vertices ``lo:hi`` and
    their edges ``start:stop`` of the traversal order.  A vertex with
    more edges than a block has a block of its own.
    """
    run_ends = np.cumsum(degrees, dtype=np.intp)
    total = int(run_ends[-1]) if run_ends.size else 0
    blocks = []
    lo = start = 0
    while start < total:
        hi = int(np.searchsorted(run_ends, start + block, side="right"))
        hi = max(hi, lo + 1)
        stop = int(run_ends[hi - 1])
        blocks.append((lo, hi, start, stop))
        lo, start = hi, stop
    return blocks


def _read_only(array) -> np.ndarray:
    view = np.asarray(array).view()
    view.flags.writeable = False
    return view


def _dst_histogram(frontier: "Frontier") -> np.ndarray:
    return _read_only(
        np.bincount(frontier.edge_dst, minlength=frontier.num_vertices)
    )


def _fold_dst_loads(frontier: "Frontier", width: int) -> np.ndarray:
    hist = frontier.memo(_dst_histogram)
    full = hist.size - hist.size % width
    # A contiguous einsum reduction: ``sum(axis=0)`` strides down the
    # columns, several times slower at narrow widths (8-16 buckets).
    loads = np.einsum("ij->j", hist[:full].reshape(-1, width))
    loads[: hist.size - full] += hist[full:]
    return _read_only(loads)


class Frontier:
    """The scatter-side view of one active set, and a memo of what it implies.

    In Algorithm 2 every active vertex carries its ``offset`` and
    ``edgeCnt``, so dispatch balance, prefetch runs, lane packing and RAW
    conflicts are functions of the frontier alone.  :meth:`memo` computes
    each such statistic once per frontier, however many observers read it,
    and the engine loop keeps one ``Frontier`` (memo included) across
    iterations whose active set is again every vertex.

    Memo rule: a memoized function reads only the ``Frontier`` it is given
    -- never the iteration's Apply outcome -- and returns an immutable
    value (a frozen dataclass, a number, or a read-only array), because
    every caller receives the same object.

    Attributes:
        active_ids: ids of active vertices, in dispatch order.
        active_degrees: ``edgeCnt`` for each active vertex.
        active_offsets: ``offset`` for each active vertex.
        edge_dst: destination vertex id of every processed edge, in
            traversal order (concatenated per-active-vertex edge lists).
        num_vertices: total vertex count of the graph.

    The arrays are read-only views, so writing into one raises
    ``ValueError``.
    """

    def __init__(
        self,
        active_ids: np.ndarray,
        active_degrees: np.ndarray,
        active_offsets: np.ndarray,
        edge_dst: np.ndarray,
        num_vertices: int,
    ) -> None:
        self.active_ids = _read_only(active_ids)
        self.active_degrees = _read_only(active_degrees)
        self.active_offsets = _read_only(active_offsets)
        self.edge_dst = _read_only(edge_dst)
        self.num_vertices = num_vertices
        self._memo: Dict[Tuple[Callable[..., Any], Tuple[Any, ...]], Any] = {}

    def memo(self, fn: Callable[..., T], *args: Hashable) -> T:
        """``fn(self, *args)``, computed once per frontier per ``(fn, args)``."""
        key = (fn, args)
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = fn(self, *args)
            return value

    def dst_loads(self, width: int) -> np.ndarray:
        """Edges per ``dst % width`` bucket, folded from one histogram.

        Equal to ``np.bincount(edge_dst % width, minlength=width)``
        (dtype included): the per-vertex histogram is computed once per
        frontier, its whole rows of ``width`` buckets are summed
        column-wise and the partial last row is added in place.  Each
        width's fold is memoized too, and returned read-only.
        """
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        return self.memo(_fold_dst_loads, width)

    @property
    def num_active(self) -> int:
        return int(self.active_ids.size)

    @property
    def num_edges(self) -> int:
        return int(self.edge_dst.size)


@dataclasses.dataclass
class IterationData:
    """Everything one iteration exposes to timing observers.

    The scatter side lives in :attr:`frontier` (shared by every observer,
    and across iterations while the active set is every vertex); the
    Apply outcome is per-iteration.  The frontier's arrays are forwarded
    as properties, so ``data.active_degrees`` reads
    ``data.frontier.active_degrees``.  Every array is a read-only view.

    Attributes:
        iteration: zero-based iteration index.
        frontier: the active set and its memoized scatter-side statistics.
        modified_ids: vertices whose temporary property changed this
            iteration (contents of the Ready-to-Update Bitmap).
        activated_ids: vertices activated for the next iteration.
    """

    iteration: int
    frontier: Frontier
    modified_ids: np.ndarray
    activated_ids: np.ndarray

    def __post_init__(self) -> None:
        self.modified_ids = _read_only(self.modified_ids)
        self.activated_ids = _read_only(self.activated_ids)

    @property
    def active_ids(self) -> np.ndarray:
        return self.frontier.active_ids

    @property
    def active_degrees(self) -> np.ndarray:
        return self.frontier.active_degrees

    @property
    def active_offsets(self) -> np.ndarray:
        return self.frontier.active_offsets

    @property
    def edge_dst(self) -> np.ndarray:
        return self.frontier.edge_dst

    @property
    def num_vertices(self) -> int:
        """Total vertex count (Apply-phase width without update scheduling)."""
        return self.frontier.num_vertices

    def dst_loads(self, width: int) -> np.ndarray:
        """:meth:`Frontier.dst_loads` of this iteration's frontier."""
        return self.frontier.dst_loads(width)

    @property
    def num_active(self) -> int:
        return self.frontier.num_active

    @property
    def num_edges(self) -> int:
        return self.frontier.num_edges

    @property
    def num_modified(self) -> int:
        return int(self.modified_ids.size)

    @property
    def num_activated(self) -> int:
        return int(self.activated_ids.size)


@dataclasses.dataclass(frozen=True)
class IterationTrace:
    """Scalar record of one iteration, kept for the whole run."""

    iteration: int
    num_active: int
    num_edges: int
    num_modified: int
    num_activated: int


@dataclasses.dataclass
class VCPMResult:
    """Output of a functional VCPM run."""

    algorithm: str
    graph_name: str
    properties: np.ndarray
    iterations: List[IterationTrace]
    converged: bool
    source: Optional[int]

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def total_edges_processed(self) -> int:
        return sum(t.num_edges for t in self.iterations)

    @property
    def total_active_vertices(self) -> int:
        return sum(t.num_active for t in self.iterations)

    @property
    def total_updates(self) -> int:
        return sum(t.num_modified for t in self.iterations)


class IterationObserver(Protocol):
    """Consumer of per-iteration structural data (e.g. a timing model)."""

    def on_iteration(self, data: IterationData) -> None:
        """Called once per iteration, after Apply completes."""
        ...  # pragma: no cover - protocol


#: The Reduce step: ``fold(frontier, results, t_prop, iteration)`` folds
#: ``results`` (one per edge of ``frontier.edge_dst``, in traversal order)
#: into ``t_prop`` in place with the spec's reduce ufunc.
Fold = Callable[[Frontier, np.ndarray, np.ndarray, int], None]


def run_vcpm(
    graph: CSRGraph,
    spec: AlgorithmSpec,
    source: Optional[int] = 0,
    max_iterations: Optional[int] = None,
    observers: Sequence[IterationObserver] = (),
    pr_tolerance: float = 1e-7,
    initial_properties: Optional[np.ndarray] = None,
    initial_active: Optional[np.ndarray] = None,
) -> VCPMResult:
    """Execute ``spec`` on ``graph`` per the push-based VCPM of Algorithm 1.

    Args:
        graph: input CSR graph.
        spec: algorithm definition (Table 2 entry).
        source: root vertex for source-based algorithms; ignored when
            ``spec.needs_source`` is false.
        max_iterations: iteration cap; defaults to the spec's own cap.
        observers: timing models or statistics collectors fed each iteration.
        pr_tolerance: convergence threshold on the L1 property delta for
            accumulating (PR-style) algorithms.
        initial_properties: continue from this property array instead of
            the spec's cold-start state (incremental recomputation after
            an edge-churn batch).  Must be given together with
            ``initial_active``; only monotonic (min/max-reduce) specs can
            continue — their fixpoints are state-independent, so a warm
            start converges to the same values a cold start does.
        initial_active: initial frontier for a continuation run
            (typically the sources of freshly inserted edges).

    Returns:
        The final property array and per-iteration trace.
    """
    ufunc = spec.reduce_op.ufunc

    def fold(frontier: Frontier, results, t_prop, iteration: int) -> None:
        ufunc.at(t_prop, frontier.edge_dst, results)

    return _iterate(
        graph,
        spec,
        fold,
        source=source,
        max_iterations=max_iterations,
        observers=observers,
        pr_tolerance=pr_tolerance,
        initial_properties=initial_properties,
        initial_active=initial_active,
    )


def _scatter_inputs(
    graph: CSRGraph, spec: AlgorithmSpec, active: np.ndarray
) -> Tuple[Frontier, Optional[np.ndarray], List[Tuple[int, int, int, int]]]:
    """The frontier of ``active``, its edge weights, and its edge blocks.

    The destination stream (in the graph's index width) and, for
    weighted specs, the ``float32`` weight stream are gathered block by
    block (:func:`_edge_blocks`), so no edge-length index is made.  An
    all-vertex frontier gathers nothing: its streams are views of the
    graph's arrays.  Unweighted specs get ``None``.  The caller drops the
    streams at the end of the iteration unless the frontier is kept (the
    lifetime rule in the module docstring), so the previous iteration's
    streams are never alive while this one gathers.
    """
    starts = graph.offsets[active]
    degrees = graph.offsets[active + 1] - starts
    block = min(_SCATTER_BLOCK, max(graph.num_edges >> 3, _MIN_SCATTER_BLOCK))
    blocks = _edge_blocks(degrees, block)
    if active.size == graph.num_vertices:
        # ``active`` is sorted and unique, so this is every vertex in id
        # order: the streams are the edge arrays themselves.
        edge_dst = graph.edges
        edge_w = graph.weights if spec.uses_weights else None
    else:
        total = blocks[-1][3] if blocks else 0
        edge_dst = np.empty(total, dtype=graph.edges.dtype)
        edge_w = np.empty(total, dtype=np.float32) if spec.uses_weights else None
        for lo, hi, start, stop in blocks:
            index = _edge_index(starts[lo:hi], degrees[lo:hi])
            # mode="clip" (a no-op: every index is in range) writes
            # straight into ``out``; the default mode buffers a copy.
            np.take(graph.edges, index, out=edge_dst[start:stop], mode="clip")
            if edge_w is not None:
                np.take(graph.weights, index, out=edge_w[start:stop], mode="clip")
    frontier = Frontier(
        active_ids=active,
        active_degrees=degrees,
        active_offsets=starts,
        edge_dst=edge_dst,
        num_vertices=graph.num_vertices,
    )
    return frontier, None if edge_w is None else _read_only(edge_w), blocks


def _process_edges(
    spec: AlgorithmSpec,
    prop: np.ndarray,
    frontier: Frontier,
    edge_w: Optional[np.ndarray],
    blocks: List[Tuple[int, int, int, int]],
) -> np.ndarray:
    """Scatter's ``process_edge`` of every frontier edge, in traversal order.

    ``process_edge`` is applied block by block, so the source-property
    stream and the ``float64`` weights (the cast keeps custom
    ``process_edge`` math in float64) are block-sized; only the
    ``float64`` result stream is edge-length.
    """
    results = np.empty(frontier.num_edges, dtype=np.float64)
    src_prop = prop[frontier.active_ids]
    degrees = frontier.active_degrees
    for lo, hi, start, stop in blocks:
        weights = None if edge_w is None else edge_w[start:stop].astype(np.float64)
        results[start:stop] = spec.process_edge(
            np.repeat(src_prop[lo:hi], degrees[lo:hi]), weights
        )
    return results


def _iterate(
    graph: CSRGraph,
    spec: AlgorithmSpec,
    fold: Fold,
    source: Optional[int] = 0,
    max_iterations: Optional[int] = None,
    observers: Sequence[IterationObserver] = (),
    pr_tolerance: float = 1e-7,
    initial_properties: Optional[np.ndarray] = None,
    initial_active: Optional[np.ndarray] = None,
    **span_attrs: Any,
) -> VCPMResult:
    """The VCPM iteration loop shared by every engine; only ``fold`` varies.

    Frontier build (kept across all-active iterations), weight gather,
    Scatter's ``process_edge``, Apply, observers and recorder counters
    are the same for every engine; ``fold`` is the Reduce step.
    ``span_attrs`` are added to the ``vcpm.iteration`` and
    ``vcpm.scatter`` spans.  Arguments are those of :func:`run_vcpm`.
    """
    num_vertices = graph.num_vertices
    if max_iterations is None:
        max_iterations = spec.default_max_iterations
    if spec.needs_source:
        if source is None:
            raise ValueError(f"{spec.name} requires a source vertex")
        if not (0 <= source < max(num_vertices, 1)):
            raise ValueError(f"source {source} out of range")
    else:
        source = None

    continuing = initial_properties is not None or initial_active is not None
    if continuing:
        if initial_properties is None or initial_active is None:
            raise ValueError(
                "initial_properties and initial_active must be given together"
            )
        if spec.resets_tprop_each_iteration:
            raise ValueError(
                f"{spec.name} accumulates into tProp each iteration; its "
                "fixpoint depends on the starting state, so continuation "
                "runs are not meaningful — rerun from scratch instead"
            )

    if continuing:
        prop = np.array(initial_properties, dtype=np.float64, copy=True)
        if prop.shape != (num_vertices,):
            raise ValueError(
                f"initial_properties has shape {prop.shape}, "
                f"expected ({num_vertices},)"
            )
        active = sorted_unique(np.asarray(initial_active, dtype=np.int64))
        if active.size and (
            active[0] < 0 or active[-1] >= num_vertices
        ):
            raise ValueError("initial_active vertex out of range")
    else:
        # A private float64 copy: Apply updates it in place.
        prop = np.array(spec.initial_prop(num_vertices, source), dtype=np.float64)
    t_prop = spec.initial_tprop(num_vertices)
    if spec.uses_degree_cprop:
        c_prop = graph.out_degree().astype(np.float64)
    else:
        c_prop = np.zeros(num_vertices, dtype=np.float64)

    if not continuing:
        if spec.all_vertices_active_initially:
            active = np.arange(num_vertices, dtype=np.int64)
        elif source is not None and num_vertices:
            active = np.asarray([source], dtype=np.int64)
        else:
            active = np.zeros(0, dtype=np.int64)

        # PR stores rank/deg; normalize the initial uniform ranks once.
        if spec.uses_degree_cprop and num_vertices:
            prop = prop / np.maximum(c_prop, 1.0)

    # True while `active` is every vertex, so an accumulating spec's next
    # iteration can keep the frontier (and its memo) instead of rebuilding it.
    all_active = spec.all_vertices_active_initially and not continuing
    frontier: Optional[Frontier] = None
    edge_w: Optional[np.ndarray] = None
    blocks: List[Tuple[int, int, int, int]] = []

    traces: List[IterationTrace] = []
    converged = False
    rec = get_recorder()

    for iteration in range(max_iterations):
        if active.size == 0:
            converged = True
            break

        with rec.span(
            "vcpm.iteration",
            track="vcpm",
            algorithm=spec.name,
            iteration=iteration,
            active=int(active.size),
            **span_attrs,
        ) as iter_span:
            # ----------------------- Scatter phase -----------------------
            with rec.span("vcpm.scatter", track="vcpm", **span_attrs):
                if frontier is None:
                    frontier, edge_w, blocks = _scatter_inputs(graph, spec, active)
                num_edges = frontier.num_edges
                results = _process_edges(spec, prop, frontier, edge_w, blocks)
                t_prop_before = t_prop.copy()
                fold(frontier, results, t_prop, iteration)
                del results
                modified = np.flatnonzero(t_prop != t_prop_before)
                del t_prop_before

            # ------------------------ Apply phase ------------------------
            with rec.span("vcpm.apply", track="vcpm"):
                apply_res = spec.apply(prop, t_prop, c_prop)
                activated_mask = apply_res != prop
                activated = np.flatnonzero(activated_mask)
                if spec.resets_tprop_each_iteration:
                    old_prop = prop.copy()
                np.copyto(prop, apply_res, where=activated_mask)
                del apply_res, activated_mask

            data = IterationData(
                iteration=iteration,
                frontier=frontier,
                modified_ids=modified,
                activated_ids=activated,
            )
            # Timing observers advance the trace clock by their modeled
            # cycles, which becomes this iteration span's duration.
            with rec.span("vcpm.observe", track="vcpm"):
                for observer in observers:
                    observer.on_iteration(data)
            del data
            if rec.enabled:
                iter_span.annotate(
                    edges=num_edges,
                    modified=int(modified.size),
                    activated=int(activated.size),
                )
                rec.counter("vcpm.iterations").add()
                rec.counter("vcpm.active_vertices").add(int(active.size))
                rec.counter("vcpm.edges").add(num_edges)
                rec.counter("vcpm.modified").add(int(modified.size))
                rec.counter("vcpm.activated").add(int(activated.size))
                rec.histogram("vcpm.frontier_size").observe(int(active.size))
                rec.histogram("vcpm.active_degree").observe_many(
                    frontier.active_degrees
                )
        traces.append(
            IterationTrace(
                iteration=iteration,
                num_active=int(active.size),
                num_edges=num_edges,
                num_modified=int(modified.size),
                num_activated=int(activated.size),
            )
        )
        del modified

        if spec.resets_tprop_each_iteration:
            # Accumulating algorithms (PR) restart the fold each iteration
            # and converge on the property delta instead of frontier decay.
            t_prop = spec.initial_tprop(num_vertices)
            delta = float(np.abs(prop - old_prop).sum())
            if delta < pr_tolerance:
                converged = True
                break
            if not all_active:
                active = np.arange(num_vertices, dtype=np.int64)
                all_active, frontier, edge_w = True, None, None
        else:
            # Drop this iteration's edge streams before the next gather.
            active, frontier, edge_w = activated, None, None
            if active.size == 0:
                converged = True
                break

    return VCPMResult(
        algorithm=spec.name,
        graph_name=graph.name,
        properties=prop,
        iterations=traces,
        converged=converged,
        source=source,
    )
