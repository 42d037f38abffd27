"""Evolving graphs: batched edge churn over CSR with generation counters.

The paper's Table 4 operating points are all *static* snapshots.  This
module opens the evolving-graph workload axis (ROADMAP item 3b, after
Gunrock's frontier-delta formulation, arXiv:1701.01170): a
:class:`DynamicGraph` wraps a CSR snapshot and applies *batches* of edge
insertions/deletions, advancing a strictly monotone **generation
counter** with every batch (the generation-based invalidation design of
SNIPPETS.md snippet 2).

Three invariants make the rest of the platform sound as graphs mutate:

* **Canonical edge order.**  The snapshot's edges are kept in the
  canonical ``(src, dst, weight)`` order: the constructor sorts them
  once, and every batch is sorted on its own and *merged* into the
  existing arrays (bisection inside the rows the batch names, then one
  write of each new array), so a mutation costs the batch's rows plus
  one write per array, never a re-sort of every edge.  The CSR arrays
  stay a pure function of the edge *multiset*: applying a batch and then
  its :meth:`EdgeBatch.inverse` restores the exact original arrays —
  and the exact original fingerprint.
* **Content fingerprints, invalidated by generation.**  Each snapshot
  has a sha256 of its arrays, computed on the first read after the
  generation advances and memoized until the next apply, so a mutation
  never hashes the graph.  ``datasets.fingerprint()`` folds it into
  the run-service cache keys, so a mutated graph can never serve a stale
  cell, while an apply+inverse round trip legitimately re-addresses the
  original cached result.
* **Fixed vertex set.**  Batches mutate edges only; ``num_vertices``
  never changes, which keeps property arrays, slicing plans, and source
  vertices valid across generations.

Deterministic churn traces (:func:`churn_batches`) and the derived
``<BASE>~C<N>`` dataset naming scheme (:func:`derive_churned`) make
evolving-graph experiments reproducible from a key alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
import threading
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .csr import (
    CSRGraph,
    index_dtype,
    int64_blocks,
    radix_argsort,
    sorted_unique,
)

__all__ = [
    "DYNAMIC_SCHEMA_VERSION",
    "CHURN_KEY_RE",
    "DynamicGraphError",
    "EdgeBatch",
    "DynamicGraph",
    "churn_batches",
    "derive_churned",
    "register",
    "unregister",
    "get",
    "is_registered",
    "registered_keys",
]

#: Version of the mutation/canonicalization semantics.  Folded into
#: dynamic dataset fingerprints so cache entries cannot survive a change
#: to how batches are applied.
DYNAMIC_SCHEMA_VERSION = 1

#: Derived churned-dataset keys: ``FR~C4`` is dataset ``FR`` after 4
#: deterministic churn batches (see :func:`derive_churned`).
CHURN_KEY_RE = re.compile(r"^(?P<base>[A-Z0-9\-]+)~C(?P<batches>[0-9]+)$")


class DynamicGraphError(ValueError):
    """Raised when a batch is malformed or references absent edges."""


def _as_pairs(pairs, what: str) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DynamicGraphError(f"{what} must be an (N, 2) array of (src, dst)")
    return arr


@dataclasses.dataclass(frozen=True)
class EdgeBatch:
    """One churn step: edges to insert and edges to delete.

    Deletes identify edges by the full ``(src, dst, weight)`` triple, so
    a batch is exactly invertible: :meth:`inverse` re-inserts what was
    deleted (with the original weights) and deletes what was inserted.

    Attributes:
        inserts: ``(K, 2)`` int64 array of ``(src, dst)`` pairs to add.
        insert_weights: ``(K,)`` float32 weights of the inserted edges.
        deletes: ``(M, 2)`` int64 array of ``(src, dst)`` pairs to remove.
        delete_weights: ``(M,)`` float32 weights identifying the removed
            edges (one matching occurrence is removed per entry).

    Weights must not be NaN: a NaN weight equals no weight, itself
    included, so it could neither identify an edge nor sort canonically.
    """

    inserts: np.ndarray
    insert_weights: np.ndarray
    deletes: np.ndarray
    delete_weights: np.ndarray

    def __post_init__(self) -> None:
        inserts = _as_pairs(self.inserts, "inserts")
        deletes = _as_pairs(self.deletes, "deletes")
        ins_w = np.asarray(self.insert_weights, dtype=np.float32)
        del_w = np.asarray(self.delete_weights, dtype=np.float32)
        if ins_w.shape != (inserts.shape[0],):
            raise DynamicGraphError("insert_weights must be parallel to inserts")
        if del_w.shape != (deletes.shape[0],):
            raise DynamicGraphError("delete_weights must be parallel to deletes")
        for weights, what in ((ins_w, "insert_weights"), (del_w, "delete_weights")):
            if np.isnan(weights).any():
                raise DynamicGraphError(f"{what} must not contain NaN")
        object.__setattr__(self, "inserts", inserts)
        object.__setattr__(self, "insert_weights", ins_w)
        object.__setattr__(self, "deletes", deletes)
        object.__setattr__(self, "delete_weights", del_w)

    @classmethod
    def of(
        cls,
        inserts=(),
        insert_weights: Optional[np.ndarray] = None,
        deletes=(),
        delete_weights: Optional[np.ndarray] = None,
    ) -> "EdgeBatch":
        """Convenience constructor; missing insert weights default to 1."""
        ins = _as_pairs(inserts, "inserts")
        dels = _as_pairs(deletes, "deletes")
        if insert_weights is None:
            insert_weights = np.ones(ins.shape[0], dtype=np.float32)
        if delete_weights is None:
            delete_weights = np.ones(dels.shape[0], dtype=np.float32)
        return cls(ins, insert_weights, dels, delete_weights)

    @property
    def num_inserts(self) -> int:
        return int(self.inserts.shape[0])

    @property
    def num_deletes(self) -> int:
        return int(self.deletes.shape[0])

    @property
    def size(self) -> int:
        return self.num_inserts + self.num_deletes

    @property
    def insert_only(self) -> bool:
        """Whether the batch grows the edge set monotonically.

        Insert-only batches are the ones the incremental engine can
        recompute from frontier deltas (monotone fixpoints only shrink
        toward the new optimum); any deletion forces a full rerun.
        """
        return self.num_deletes == 0

    def inverse(self) -> "EdgeBatch":
        """The batch that exactly undoes this one."""
        return EdgeBatch(
            inserts=self.deletes,
            insert_weights=self.delete_weights,
            deletes=self.inserts,
            delete_weights=self.insert_weights,
        )

    def touched_vertices(self) -> np.ndarray:
        """Sorted unique endpoints of every inserted/deleted edge."""
        return sorted_unique(
            np.concatenate([self.inserts.ravel(), self.deletes.ravel()])
        )

    def seed_vertices(self) -> np.ndarray:
        """Sorted unique *sources* of inserted edges.

        Re-scattering exactly these vertices is sufficient to reach the
        new monotone fixpoint after an insert-only batch: new edges only
        emanate from them, and any improved destination re-activates
        through the normal frontier mechanics.
        """
        if self.num_inserts == 0:
            return np.zeros(0, dtype=np.int64)
        return sorted_unique(self.inserts[:, 0])

    def digest(self) -> str:
        """Stable short digest of the batch content."""
        h = hashlib.sha256()
        for arr in (
            self.inserts,
            self.insert_weights,
            self.deletes,
            self.delete_weights,
        ):
            h.update(np.ascontiguousarray(arr))
        return h.hexdigest()[:16]


def _canonical_csr(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray,
    name: str,
) -> CSRGraph:
    """CSR in canonical ``(src, dst, weight)`` lexicographic edge order.

    Sorts every edge; used once per :class:`DynamicGraph`, whose input
    order is arbitrary.  Batches are merged by :func:`_merge_batch`.
    """
    order = _canonical_order(num_vertices, src, dst, weights)
    width = index_dtype(num_vertices, order.size)
    offsets = np.zeros(num_vertices + 1, dtype=width)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=offsets[1:])
    edges = np.empty(order.size, dtype=width)
    np.take(dst, order, out=edges, mode="clip")
    return CSRGraph(
        offsets=offsets, edges=edges, weights=weights[order], name=name
    )


def _canonical_order(num_vertices: int, src, dst, weights) -> np.ndarray:
    """``np.lexsort((weights, dst, src))`` as three stable O(n) radix passes."""
    order = radix_argsort(_weight_keys(weights), 1 << 32)
    order = order[radix_argsort(dst[order], num_vertices)]
    return order[radix_argsort(src[order], num_vertices)]


def _weight_keys(weights: np.ndarray) -> np.ndarray:
    """``uint32`` keys that order float32 weights as ``np.lexsort`` does.

    Non-negative floats set the sign bit and negative ones flip every
    bit, so unsigned order is numeric order.  As in numpy's sort, -0.0
    ties with 0.0 (adding +0.0 maps it there) and every NaN ties with
    every other NaN, after +inf.
    """
    weights = np.asarray(weights, dtype=np.float32)
    bits = (weights + np.float32(0.0)).view(np.uint32)
    keys = np.where(bits >> 31 == 1, ~bits, bits | np.uint32(1 << 31))
    keys[np.isnan(weights)] = np.uint32(0xFFFFFFFF)
    return keys


def _content_fingerprint(graph: CSRGraph) -> str:
    """sha256 of ``V`` and the CSR arrays, independent of the index width.

    ``offsets`` and ``edges`` are hashed as little-endian ``int64``, block
    by block (:func:`~repro.graph.csr.int64_blocks`), so a snapshot hashes
    alike in ``int32`` and ``int64`` and no edge-length copy is made.
    """
    h = hashlib.sha256()
    h.update(np.int64(graph.num_vertices).tobytes())
    for arr in (graph.offsets, graph.edges):
        for block in int64_blocks(arr):
            h.update(block)
    h.update(np.ascontiguousarray(graph.weights, dtype="<f4"))
    return h.hexdigest()[:16]


def _run_search(
    keys: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    values: np.ndarray,
    side: str,
) -> np.ndarray:
    """``lo[i] + searchsorted(keys[lo[i]:hi[i]], values[i], side)`` for every i.

    Each ``keys[lo[i]:hi[i]]`` is ascending: one row's destinations, or
    the weights of one run of equal ``(src, dst)``.  A branch-free
    bisection halves every range at once, so the loop runs
    ``ceil(log2(longest range))`` times.  Requires NaN-free keys
    (:class:`EdgeBatch` rejects NaN weights).
    """
    below = np.less if side == "left" else np.less_equal
    base = lo.copy()
    count = hi - lo
    # The answer stays in [base, base + count]; a probe of an empty
    # range is clipped in bounds and weighs nothing (its half is 0).
    while count.max(initial=0) > 1:
        half = count >> 1
        base += half * below(keys.take(base + half, mode="clip"), values)
        count -= half
    last = np.flatnonzero(count)
    base[last] += below(keys[base[last]], values[last])
    return base


def _batch_runs(graph: CSRGraph, pairs, weights) -> Tuple[np.ndarray, ...]:
    """The batch triples in canonical order, and each one's ``(src, dst)`` run.

    Each run ``[lo, hi)`` of equal edges is bisected inside its source's row;
    the bounds are ``intp`` whatever the snapshot's index width.
    """
    order = _canonical_order(graph.num_vertices, pairs[:, 0], pairs[:, 1], weights)
    pairs, weights = pairs[order], weights[order]
    row_lo = graph.offsets[pairs[:, 0]].astype(np.intp)
    row_hi = graph.offsets[pairs[:, 0] + 1].astype(np.intp)
    run_lo = _run_search(graph.edges, row_lo, row_hi, pairs[:, 1], "left")
    run_hi = _run_search(graph.edges, run_lo, row_hi, pairs[:, 1], "right")
    return pairs, weights, run_lo, run_hi


def _merge_batch(graph: CSRGraph, batch: EdgeBatch, name: str) -> CSRGraph:
    """``graph`` minus the batch deletes plus its inserts, in canonical order.

    ``graph`` is already canonical, so only the batch is sorted; each
    ``(src, dst)`` is found inside its source's row, and the weight
    tie-break inside the run of equal ``(src, dst)``.  The r-th copy of a
    repeated delete triple removes the r-th occurrence; inserts go to the
    right of equal triples, in batch order.  Each new array is allocated
    at its final length and written once: inserts at their final slots,
    the survivors through one fill mask.  The result is byte-identical to
    a stable lexsort of the surviving and inserted edges.

    Raises:
        DynamicGraphError: a delete names more occurrences of a triple
            than the graph holds.
    """
    pairs, values, run_lo, run_hi = _batch_runs(
        graph, batch.deletes, batch.delete_weights
    )
    first = np.ones(pairs.shape[0], dtype=bool)
    first[1:] = (
        (pairs[1:, 0] != pairs[:-1, 0])
        | (pairs[1:, 1] != pairs[:-1, 1])
        | (values[1:] != values[:-1])
    )
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    rank = np.arange(pairs.shape[0]) - starts[group]
    lo = _run_search(graph.weights, run_lo, run_hi, values, "left")
    hi = _run_search(graph.weights, run_lo, run_hi, values, "right")
    # Ascends (groups sort like the canonical arrays and a group's slots
    # are consecutive), as the insert-slot shift below needs.
    removed = lo + rank
    short = np.flatnonzero(removed >= hi)
    if short.size:
        i = starts[group[short[0]]]
        count = int(np.count_nonzero(group == group[i]))
        raise DynamicGraphError(
            f"cannot delete edge ({int(pairs[i, 0])}, {int(pairs[i, 1])}, "
            f"{float(values[i])}): {count} requested, "
            f"{int(hi[i] - lo[i])} present"
        )
    degree_change = -np.bincount(pairs[:, 0], minlength=graph.num_vertices)

    pairs, values, run_lo, run_hi = _batch_runs(
        graph, batch.inserts, batch.insert_weights
    )
    # Right of equal triples in the old arrays, less the deletes before
    # that slot, plus the inserts ahead of it in the batch.
    slots = _run_search(graph.weights, run_lo, run_hi, values, "right")
    slots -= np.searchsorted(removed, slots, side="left")
    slots += np.arange(slots.size)
    degree_change += np.bincount(pairs[:, 0], minlength=graph.num_vertices)

    size = graph.num_edges - removed.size + slots.size
    fill = np.ones(size, dtype=bool)
    fill[slots] = False
    keep = slice(None)  # an insert-only batch keeps every old edge: a view
    if removed.size:
        keep = np.ones(graph.num_edges, dtype=bool)
        keep[removed] = False
    width = index_dtype(graph.num_vertices, size)
    edges = np.empty(size, dtype=width)
    edges[slots] = pairs[:, 1]
    edges[fill] = graph.edges[keep]
    weights = np.empty(size, dtype=np.float32)
    weights[slots] = values
    weights[fill] = graph.weights[keep]
    offsets = graph.offsets.astype(width)
    offsets[1:] += np.cumsum(degree_change)
    # A valid snapshot plus range-checked endpoints (``apply``) is valid:
    # skip the whole-snapshot re-scan.
    return CSRGraph(
        offsets=offsets, edges=edges, weights=weights, name=name, validate=False
    )


class DynamicGraph:
    """A mutable graph: a canonical CSR snapshot plus a generation counter.

    Thread-safe for the registry surfaces that read it concurrently with
    mutation (snapshot, generation, and fingerprint reads are atomic
    swaps under a lock).
    """

    def __init__(self, graph: CSRGraph, key: Optional[str] = None) -> None:
        self.key = (key or graph.name).upper()
        sources = graph.edge_sources()
        self._lock = threading.Lock()
        self._graph = _canonical_csr(
            graph.num_vertices,
            sources,
            np.asarray(graph.edges),
            np.asarray(graph.weights),
            self.key,
        )
        self._generation = 0
        #: Fingerprint of the current generation; ``None`` until read.
        self._content_fp: Optional[str] = None
        #: Digest breadcrumbs of every applied batch, for audit.
        self.history: List[str] = []
        #: Set by :func:`derive_churned` for keys materialized from the
        #: ``<BASE>~C<N>`` naming scheme.
        self.derived_from: Optional[Tuple[str, int, int, int]] = None

    # ------------------------------------------------------------------
    # Snapshot accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        """The current immutable CSR snapshot (canonical edge order)."""
        with self._lock:
            return self._graph

    @property
    def generation(self) -> int:
        """Strictly monotone mutation counter (0 at registration)."""
        with self._lock:
            return self._generation

    @property
    def content_fingerprint(self) -> str:
        """sha256 digest of the snapshot arrays.

        Computed on the first read after :attr:`generation` advances and
        memoized until the next apply — the generation counter *is* the
        invalidation tag for this memo — so a mutation never hashes the
        graph, and repeated reads of one generation hash it once.
        """
        with self._lock:
            return self._fingerprint_locked()

    def _fingerprint_locked(self) -> str:
        """The memoized fingerprint; the caller holds ``self._lock``."""
        if self._content_fp is None:
            self._content_fp = _content_fingerprint(self._graph)
        return self._content_fp

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, batch: EdgeBatch) -> np.ndarray:
        """Apply one batch; returns the touched (endpoint) vertex ids.

        The batch is merged into the canonical snapshot: only its own
        triples are sorted and only the rows they name are searched, so
        the cost is those rows plus one write of each new array.  The new
        snapshot is byte-identical to sorting the resulting edge multiset
        from scratch.  Every apply — even of an empty batch — advances
        the generation by exactly one and clears the content-fingerprint
        memo; nothing on this path hashes the graph.  A failing apply
        changes nothing.

        Raises:
            DynamicGraphError: an endpoint is out of range or a delete
                references an edge the graph does not contain.
        """
        with self._lock:
            graph = self._graph
            num_vertices = graph.num_vertices
            for pairs, what in ((batch.inserts, "insert"), (batch.deletes, "delete")):
                if pairs.size and (
                    pairs.min() < 0 or pairs.max() >= num_vertices
                ):
                    raise DynamicGraphError(
                        f"{what} endpoint out of range for V={num_vertices}"
                    )
            self._graph = _merge_batch(graph, batch, self.key)
            self._generation += 1
            self._content_fp = None
            self.history.append(batch.digest())
        return batch.touched_vertices()

    def fingerprint_payload(self) -> Dict[str, object]:
        """What :func:`repro.graph.datasets.fingerprint` hashes.

        Content-addressed on purpose: the generation counter is *not*
        part of the payload, so an apply+inverse round trip restores the
        original fingerprint (and legitimately re-addresses any cached
        results of the original content).  The generation's job is to
        invalidate the fingerprint memo, not to name the content.
        """
        with self._lock:
            return {
                "dynamic": True,
                "key": self.key,
                "content": self._fingerprint_locked(),
                "num_vertices": self._graph.num_vertices,
                "num_edges": self._graph.num_edges,
                "dynamic_schema": DYNAMIC_SCHEMA_VERSION,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph({self.key!r}, V={self.num_vertices}, "
            f"E={self.num_edges}, gen={self.generation})"
        )


# ----------------------------------------------------------------------
# Deterministic churn traces
# ----------------------------------------------------------------------
def _swap_remove_fill(
    size: int, victims: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Swap-remove of ascending ``victims``, largest first, as index arrays.

    Overwriting each victim with the current last element and popping
    leaves ``arr[:size - len(victims)]`` equal to the original array with
    ``arr[holes] = arr[movers]`` applied.  The holes are the victims
    below the new length.  The tail above it first swap-removes its own
    victims, which permutes it (a short loop: about ``n**2 / size`` of
    ``n`` victims land there); its survivors then fill the holes in
    ascending order.
    """
    length = size - victims.size
    split = int(np.searchsorted(victims, length))
    tail = np.arange(length, size)
    end = tail.size
    for victim in victims[split:][::-1] - length:
        end -= 1
        tail[victim] = tail[end]
    return victims[:split], tail[:end]


def churn_batches(
    graph: CSRGraph,
    num_batches: int,
    batch_edges: int,
    insert_fraction: float = 0.5,
    seed: int = 0,
    max_weight: int = 255,
) -> Iterator[EdgeBatch]:
    """Deterministic sequence of valid churn batches for ``graph``.

    Each batch inserts ``round(batch_edges * insert_fraction)`` random
    edges (uniform endpoints, integer weights in ``[1, max_weight]``,
    matching the paper's weight convention) and deletes the remainder
    from edges that exist *at that point of the trace* — the generator
    tracks the evolving edge multiset, so every yielded batch applies
    cleanly in sequence.

    Same ``(graph, parameters, seed)`` always yields identical batches.
    """
    if num_batches < 0 or batch_edges < 0:
        raise DynamicGraphError("num_batches and batch_edges must be >= 0")
    if not (0.0 <= insert_fraction <= 1.0):
        raise DynamicGraphError("insert_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    num_vertices = graph.num_vertices
    # Private copies: victims are swap-removed in place.
    src = graph.edge_sources()
    dst = np.array(graph.edges)
    wts = np.array(graph.weights)
    for _ in range(num_batches):
        n_ins = int(round(batch_edges * insert_fraction))
        n_del = min(batch_edges - n_ins, src.size)
        deletes = np.zeros((n_del, 2), dtype=np.int64)
        delete_weights = np.zeros(n_del, dtype=np.float32)
        if n_del:
            victims = np.sort(rng.choice(src.size, size=n_del, replace=False))
            removal_order = victims[::-1]
            deletes[:, 0] = src[removal_order]
            deletes[:, 1] = dst[removal_order]
            delete_weights[:] = wts[removal_order]
            length = src.size - n_del
            holes, movers = _swap_remove_fill(src.size, victims)
            for arr in (src, dst, wts):
                arr[holes] = arr[movers]
            src, dst, wts = src[:length], dst[:length], wts[:length]
        inserts = np.zeros((n_ins, 2), dtype=np.int64)
        insert_weights = np.zeros(n_ins, dtype=np.float32)
        if n_ins and num_vertices:
            inserts[:, 0] = rng.integers(0, num_vertices, size=n_ins)
            inserts[:, 1] = rng.integers(0, num_vertices, size=n_ins)
            insert_weights[:] = rng.integers(
                1, max_weight + 1, size=n_ins
            ).astype(np.float32)
            src = np.concatenate([src, inserts[:, 0]])
            dst = np.concatenate([dst, inserts[:, 1]])
            wts = np.concatenate([wts, insert_weights])
        yield EdgeBatch(inserts, insert_weights, deletes, delete_weights)


# ----------------------------------------------------------------------
# Dynamic dataset registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, DynamicGraph] = {}
_registry_lock = threading.Lock()


def register(dynamic: DynamicGraph, replace: bool = False) -> DynamicGraph:
    """Register a dynamic graph as a loadable dataset.

    The key becomes addressable through ``repro.graph.datasets`` —
    ``load``/``fingerprint``/``resolve_key``/``get_spec`` — and hence
    through every harness surface (run service, planner, daemon, CLI).

    Raises:
        ValueError: the key is already registered (static or dynamic)
            and ``replace`` is false.
    """
    # Imported here: datasets imports this module at top level.
    from . import datasets

    key = dynamic.key
    with _registry_lock:
        if not replace:
            if key in _REGISTRY:
                raise ValueError(f"dynamic graph {key!r} already registered")
            # Static-registry check only (full resolve_key would recurse
            # into lazy ~C materialization, which calls back into here).
            if datasets.is_static_key(key):
                raise ValueError(
                    f"{key!r} already names a static dataset or alias"
                )
        _REGISTRY[key] = dynamic
    return dynamic


def unregister(key: str) -> None:
    """Remove a dynamic registration (mainly for tests)."""
    with _registry_lock:
        _REGISTRY.pop(key.upper(), None)


def get(key: str) -> DynamicGraph:
    """The registered :class:`DynamicGraph` for ``key``.

    Raises:
        KeyError: not a registered dynamic graph.
    """
    folded = key.upper()
    with _registry_lock:
        if folded not in _REGISTRY:
            raise KeyError(f"unknown dynamic graph {key!r}")
        return _REGISTRY[folded]


def is_registered(key: str) -> bool:
    with _registry_lock:
        return key.upper() in _REGISTRY


def registered_keys() -> List[str]:
    """Registered dynamic keys, in registration order."""
    with _registry_lock:
        return list(_REGISTRY)


def default_churn_params(base_edges: int, batches: int) -> Tuple[int, int]:
    """(batch_edges, seed) the ``<BASE>~C<N>`` scheme derives from a key."""
    return max(8, base_edges // 64), 1000 + batches


def derive_churned(
    base_key: str,
    batches: int,
    batch_edges: Optional[int] = None,
    seed: Optional[int] = None,
    insert_fraction: float = 0.5,
    key: Optional[str] = None,
    replace: bool = False,
) -> DynamicGraph:
    """Materialize and register ``<base>~C<batches>``.

    The derivation is a pure function of ``(base dataset content,
    batches, batch_edges, seed)``: any process — a planner rendering a
    spec, a daemon validating a job, a test — that resolves the same key
    builds the same content, which is what makes the key a sound cache
    address.

    Default parameters (when the key comes from the naming scheme):
    ``batch_edges = max(8, E/64)`` and ``seed = 1000 + batches``, with a
    50/50 insert/delete mix.
    """
    from . import datasets

    base = datasets.load(base_key)
    default_edges, default_seed = default_churn_params(
        base.num_edges, batches
    )
    if batch_edges is None:
        batch_edges = default_edges
    if seed is None:
        seed = default_seed
    folded = (key or f"{datasets.resolve_key(base_key)}~C{batches}").upper()
    dynamic = DynamicGraph(base, key=folded)
    for batch in churn_batches(
        dynamic.graph,
        num_batches=batches,
        batch_edges=batch_edges,
        insert_fraction=insert_fraction,
        seed=seed,
    ):
        dynamic.apply(batch)
    dynamic.derived_from = (
        datasets.resolve_key(base_key),
        batches,
        int(batch_edges),
        int(seed),
    )
    return register(dynamic, replace=replace)


def materialize_churn_key(folded_key: str) -> Optional[DynamicGraph]:
    """Derive a ``<BASE>~C<N>`` key lazily, if the pattern matches.

    Returns ``None`` when the key does not match the scheme or its base
    is unknown; used by ``datasets.resolve_key`` as the last lookup
    tier.
    """
    from . import datasets

    match = CHURN_KEY_RE.match(folded_key)
    if match is None:
        return None
    if not datasets.is_static_key(match.group("base")):
        return None
    try:
        return derive_churned(
            match.group("base"), int(match.group("batches")), key=folded_key
        )
    except ValueError:
        # Lost a concurrent-materialization race: both derivations built
        # identical content, so the winner's registration is ours too.
        if is_registered(folded_key):
            return get(folded_key)
        raise

