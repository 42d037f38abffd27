"""Property-based suite for evolving graphs and incremental recomputation.

The three contracts under test, each stated as a hypothesis property
over randomized graphs and churn traces:

* **Bit-identity** — ``run_vcpm_incremental`` on a mutated snapshot
  returns the *same bytes* as a cold ``run_vcpm`` on that snapshot, for
  every algorithm and every batch (delta path and fallback path alike).
* **Monotone generations** — every ``apply`` advances the generation by
  exactly one, with no rollback on apply+inverse round trips.
* **Content addressing** — applying a batch and then its inverse
  restores the original CSR arrays byte-for-byte, hence the original
  content fingerprint; edge-list input order never affects either.

``DynamicGraph.apply`` merges each batch into the canonical arrays and
``churn_batches`` tracks the evolving multiset in arrays; both are held
byte-identical to the straightforward versions kept below as oracles (a
full lexsort rebuild, and swap-remove over Python lists).
"""

import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, datasets
from repro.graph.dynamic import (
    DynamicGraph,
    DynamicGraphError,
    EdgeBatch,
    churn_batches,
    derive_churned,
)
from repro.graph import dynamic as dyn
from repro.vcpm import get_algorithm, run_vcpm
from repro.vcpm.incremental import (
    run_vcpm_incremental,
    supports_delta,
)

MONOTONE_ALGORITHMS = ["BFS", "SSSP", "CC", "SSWP"]


# ----------------------------------------------------------------------
# Oracles: the rebuild-from-scratch apply and the list-based churn trace
# ----------------------------------------------------------------------
def _reference_canonical(num_vertices, src, dst, weights, name):
    order = np.lexsort((weights, dst, src))
    src, dst, weights = src[order], dst[order], weights[order]
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    return CSRGraph(
        offsets=np.cumsum(offsets), edges=dst, weights=weights, name=name
    )


def _reference_remove_multiset(src, dst, weights, del_pairs, del_weights):
    """Remove one matching occurrence per delete triple."""
    order = np.lexsort((weights, dst, src))
    s_s, s_d, s_w = src[order], dst[order], weights[order]
    dorder = np.lexsort((del_weights, del_pairs[:, 1], del_pairs[:, 0]))
    d_s = del_pairs[dorder, 0]
    d_d = del_pairs[dorder, 1]
    d_w = del_weights[dorder]
    keep = np.ones(src.size, dtype=bool)
    i = 0
    while i < d_s.size:
        j = i
        while (
            j + 1 < d_s.size
            and d_s[j + 1] == d_s[i]
            and d_d[j + 1] == d_d[i]
            and d_w[j + 1] == d_w[i]
        ):
            j += 1
        count = j - i + 1
        lo = int(np.searchsorted(s_s, d_s[i], side="left"))
        hi = int(np.searchsorted(s_s, d_s[i], side="right"))
        seg_d = s_d[lo:hi]
        d_lo = lo + int(np.searchsorted(seg_d, d_d[i], side="left"))
        d_hi = lo + int(np.searchsorted(seg_d, d_d[i], side="right"))
        seg_w = s_w[d_lo:d_hi]
        w_lo = d_lo + int(np.searchsorted(seg_w, d_w[i], side="left"))
        w_hi = d_lo + int(np.searchsorted(seg_w, d_w[i], side="right"))
        if w_hi - w_lo < count:
            raise DynamicGraphError(
                f"cannot delete edge ({int(d_s[i])}, {int(d_d[i])}, "
                f"{float(d_w[i])}): {count} requested, {w_hi - w_lo} present"
            )
        keep[order[w_lo:w_lo + count]] = False
        i = j + 1
    return src[keep], dst[keep], weights[keep]


def _reference_apply(graph, batch):
    """The snapshot after ``batch``, rebuilt by a full lexsort."""
    src = graph.edge_sources()
    dst = np.asarray(graph.edges)
    wts = np.asarray(graph.weights)
    if batch.num_deletes:
        src, dst, wts = _reference_remove_multiset(
            src, dst, wts, batch.deletes, batch.delete_weights
        )
    if batch.num_inserts:
        src = np.concatenate([src, batch.inserts[:, 0]])
        dst = np.concatenate([dst, batch.inserts[:, 1]])
        wts = np.concatenate([wts, batch.insert_weights])
    return _reference_canonical(graph.num_vertices, src, dst, wts, graph.name)


def _reference_churn_batches(
    graph, num_batches, batch_edges, insert_fraction=0.5, seed=0,
    max_weight=255,
):
    """``churn_batches`` over Python lists, one victim at a time."""
    rng = np.random.default_rng(seed)
    num_vertices = graph.num_vertices
    src = list(graph.edge_sources())
    dst = list(graph.edges)
    wts = list(np.asarray(graph.weights))
    for _ in range(num_batches):
        n_ins = int(round(batch_edges * insert_fraction))
        n_del = min(batch_edges - n_ins, len(src))
        deletes = np.zeros((n_del, 2), dtype=np.int64)
        delete_weights = np.zeros(n_del, dtype=np.float32)
        if n_del:
            victims = rng.choice(len(src), size=n_del, replace=False)
            for out, idx in enumerate(sorted(victims, reverse=True)):
                deletes[out, 0] = src[idx]
                deletes[out, 1] = dst[idx]
                delete_weights[out] = wts[idx]
                src[idx] = src[-1]
                dst[idx] = dst[-1]
                wts[idx] = wts[-1]
                src.pop()
                dst.pop()
                wts.pop()
        inserts = np.zeros((n_ins, 2), dtype=np.int64)
        insert_weights = np.zeros(n_ins, dtype=np.float32)
        if n_ins and num_vertices:
            inserts[:, 0] = rng.integers(0, num_vertices, size=n_ins)
            inserts[:, 1] = rng.integers(0, num_vertices, size=n_ins)
            insert_weights[:] = rng.integers(
                1, max_weight + 1, size=n_ins
            ).astype(np.float32)
            for k in range(n_ins):
                src.append(np.int64(inserts[k, 0]))
                dst.append(np.int64(inserts[k, 1]))
                wts.append(np.float32(insert_weights[k]))
        yield EdgeBatch(inserts, insert_weights, deletes, delete_weights)


def _snapshot_bytes(graph):
    """The snapshot's arrays, ids rendered as int64 whatever their width."""
    return (
        np.asarray(graph.offsets, dtype="<i8").tobytes(),
        np.asarray(graph.edges, dtype="<i8").tobytes(),
        np.asarray(graph.weights, dtype="<f4").tobytes(),
    )


@st.composite
def small_graphs(draw):
    """Random small weighted digraphs (duplicates and self-loops allowed)."""
    num_vertices = draw(st.integers(min_value=3, max_value=12))
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    edges = draw(
        st.lists(st.tuples(vertex, vertex), min_size=1, max_size=40)
    )
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=9),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    return CSRGraph.from_edge_list(
        num_vertices, edges, [float(w) for w in weights], name="hyp"
    )


@st.composite
def insert_batches(draw, num_vertices):
    """Random insert-only batches over a fixed vertex set."""
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    pairs = draw(
        st.lists(st.tuples(vertex, vertex), min_size=1, max_size=12)
    )
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=9),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    return EdgeBatch.of(
        inserts=pairs,
        insert_weights=np.asarray(weights, dtype=np.float32),
    )


#: Zero (both signs), negative and repeated weights for the oracle cases.
ORACLE_WEIGHTS = [-7.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 255.0]


@st.composite
def oracle_cases(draw):
    """A canonical graph and a batch that applies cleanly to it.

    Covers duplicate triples, zero and negative weights, deletes of
    every copy of a triple, re-inserts of deleted triples, a V = 2**17
    vertex set, inserts whose sources have out-degree 0 (the last vertex
    among them), and batches that name many distinct rows.
    """
    num_vertices = draw(st.sampled_from([1, 2, 5, 9, 64, 2**17]))
    if num_vertices == 2**17:
        vertex = st.sampled_from([0, 1, 40_000, 2**17 - 2, 2**17 - 1])
    else:
        vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    weight = st.sampled_from(ORACLE_WEIGHTS)
    triples = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=30))
    if draw(st.booleans()):
        # Leave the last vertex with out-degree 0.
        triples = [t for t in triples if t[0] != num_vertices - 1]
    # Duplicate some triples outright.
    triples += draw(
        st.lists(st.sampled_from(triples), max_size=6) if triples else st.just([])
    )
    graph = CSRGraph.from_edge_list(
        num_vertices,
        np.asarray([t[:2] for t in triples], dtype=np.int64).reshape(-1, 2),
        [t[2] for t in triples],
        name="oracle",
    )
    dynamic = DynamicGraph(graph, key="HYP-ORACLE")
    canonical = dynamic.graph
    existing = list(
        zip(
            canonical.edge_sources().tolist(),
            canonical.edges.tolist(),
            canonical.weights.tolist(),
        )
    )
    deletes = []
    if existing:
        picks = draw(
            st.lists(
                st.integers(min_value=0, max_value=len(existing) - 1),
                unique=True,
                max_size=len(existing),
            )
        )
        deletes = [existing[i] for i in picks]
        if draw(st.booleans()):
            # Every copy of one triple.
            target = existing[draw(st.integers(0, len(existing) - 1))]
            deletes = [t for t in deletes if t != target]
            deletes += [t for t in existing if t == target]
        deletes = draw(st.permutations(deletes))
    inserts = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=12))
    degree = np.diff(canonical.offsets)
    empty = np.flatnonzero(degree == 0)
    if empty.size:
        # The first and last sources with no out-edges.
        empty_rows = sorted(set(empty[:3].tolist()) | set(empty[-3:].tolist()))
        inserts += draw(
            st.lists(
                st.tuples(st.sampled_from(empty_rows), vertex, weight),
                max_size=4,
            )
        )
    if draw(st.booleans()):
        # One insert in each of many distinct rows.
        rows = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_vertices - 1),
                unique=True,
                max_size=40,
            )
        )
        inserts += [(row, draw(vertex), draw(weight)) for row in rows]
    if deletes and draw(st.booleans()):
        inserts += draw(st.lists(st.sampled_from(deletes), max_size=4))
    inserts = draw(st.permutations(inserts))
    batch = EdgeBatch(
        np.asarray([t[:2] for t in inserts], dtype=np.int64).reshape(-1, 2),
        np.asarray([t[2] for t in inserts], dtype=np.float32),
        np.asarray([t[:2] for t in deletes], dtype=np.int64).reshape(-1, 2),
        np.asarray([t[2] for t in deletes], dtype=np.float32),
    )
    return dynamic, batch


class TestMergeOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=oracle_cases())
    def test_merge_matches_lexsort_rebuild(self, case):
        dynamic, batch = case
        expected = _reference_apply(dynamic.graph, batch)
        dynamic.apply(batch)
        assert _snapshot_bytes(dynamic.graph) == _snapshot_bytes(expected)
        # The merge skips the construction-time scan; the invariants hold.
        dynamic.graph._validate()

    @settings(max_examples=60, deadline=None)
    @given(case=oracle_cases(), data=st.data())
    def test_over_requested_delete_raises_on_both(self, case, data):
        dynamic, _ = case
        graph = dynamic.graph
        if graph.num_edges == 0:
            victim = (0, 0, 1.0)
            copies = 0
        else:
            i = data.draw(st.integers(0, graph.num_edges - 1))
            victim = (
                int(graph.edge_sources()[i]),
                int(graph.edges[i]),
                float(graph.weights[i]),
            )
            copies = int(np.sum(
                (graph.edge_sources() == victim[0])
                & (graph.edges == victim[1])
                & (graph.weights == np.float32(victim[2]))
            ))
        batch = EdgeBatch.of(
            inserts=[(0, 0)],
            deletes=[victim[:2]] * (copies + 1),
            delete_weights=[victim[2]] * (copies + 1),
        )
        before = _snapshot_bytes(graph)
        fp = dynamic.content_fingerprint
        with pytest.raises(DynamicGraphError, match="cannot delete"):
            _reference_apply(graph, batch)
        with pytest.raises(
            DynamicGraphError,
            match=rf"{copies + 1} requested, {copies} present",
        ):
            dynamic.apply(batch)
        assert dynamic.generation == 0
        assert _snapshot_bytes(dynamic.graph) == before
        assert dynamic.content_fingerprint == fp

    def test_delete_and_reinsert_same_triple(self):
        graph = CSRGraph.from_edge_list(
            2**17, [(2**17 - 1, 5), (2**17 - 1, 5), (3, 2**17 - 1)],
            [0.0, -2.0, 4.0], name="big",
        )
        dynamic = DynamicGraph(graph, key="HYP-REINSERT")
        before = _snapshot_bytes(dynamic.graph)
        batch = EdgeBatch.of(
            inserts=[(2**17 - 1, 5), (3, 2**17 - 1)],
            insert_weights=[-2.0, 4.0],
            deletes=[(3, 2**17 - 1), (2**17 - 1, 5)],
            delete_weights=[4.0, -2.0],
        )
        dynamic.apply(batch)
        assert _snapshot_bytes(dynamic.graph) == before
        assert dynamic.generation == 1

    def test_signed_zero_ties_keep_existing_edges_first(self):
        # 0.0 and -0.0 compare equal but differ in bytes, so only the
        # tie order among equal triples tells them apart.
        graph = CSRGraph.from_edge_list(
            2, [(0, 1), (0, 1)], [0.0, -0.0], name="zeros"
        )
        dynamic = DynamicGraph(graph, key="HYP-ZEROS")
        batches = [
            EdgeBatch.of(inserts=[(0, 1), (0, 1)], insert_weights=[-0.0, 0.0]),
            EdgeBatch.of(deletes=[(0, 1)] * 3, delete_weights=[-0.0, 0.0, 0.0]),
        ]
        for batch in batches:
            expected = _reference_apply(dynamic.graph, batch)
            dynamic.apply(batch)
            assert _snapshot_bytes(dynamic.graph) == _snapshot_bytes(expected)
        assert np.signbit(dynamic.graph.weights).tolist() == [False]


    def test_int64_batch_on_int32_snapshot_matches_a_fresh_build(self):
        dynamic = DynamicGraph(datasets.load("FR"), key="HYP-WIDTH")
        before = dynamic.graph
        (batch,) = churn_batches(before, 1, 2000, insert_fraction=0.5, seed=11)
        assert before.edges.dtype == np.int32
        assert batch.inserts.dtype == batch.deletes.dtype == np.int64
        src, dst, wts = _reference_remove_multiset(
            before.edge_sources(), before.edges, before.weights,
            batch.deletes, batch.delete_weights,
        )
        fresh = dyn._canonical_csr(
            before.num_vertices,
            np.concatenate([src, batch.inserts[:, 0]]),
            np.concatenate([dst, batch.inserts[:, 1]]),
            np.concatenate([wts, batch.insert_weights]),
            dynamic.key,
        )
        dynamic.apply(batch)
        after = dynamic.graph
        for name in ("offsets", "edges", "weights"):
            merged, built = getattr(after, name), getattr(fresh, name)
            assert merged.dtype == built.dtype
            assert merged.tobytes() == built.tobytes()
        assert after.offsets.dtype == np.int32


class TestMergeAtScale:
    #: sha256 over ``offsets || edges || weights`` of every snapshot along
    #: the PK trace below, as the earlier global-row-key merge wrote them.
    PK_TRACE_SHA256 = (
        "54ef9b7058e1914973a1cfe40be51c1af9b831d7bda836179940e7d65f46f318"
    )

    def test_pk_trace_snapshots_are_pinned(self):
        dynamic = DynamicGraph(datasets.load("PK"), key="HYP-PK-TRACE")
        batch_edges = dynamic.num_edges // 100
        digest = hashlib.sha256()
        for step, fraction in enumerate((1.0, 1.0, 0.5, 1.0, 1.0, 0.5)):
            (batch,) = churn_batches(
                dynamic.graph, 1, batch_edges, insert_fraction=fraction,
                seed=step,
            )
            dynamic.apply(batch)
            for arr in _snapshot_bytes(dynamic.graph):
                digest.update(arr)
        assert digest.hexdigest() == self.PK_TRACE_SHA256

    def test_apply_never_expands_edge_sources(self, monkeypatch):
        dynamic = DynamicGraph(datasets.load("FR"), key="HYP-NO-SOURCES")
        batches = list(
            churn_batches(dynamic.graph, 3, 64, insert_fraction=0.5, seed=3)
        )
        batches.append(EdgeBatch.of(inserts=[(0, 1)]))

        def forbidden(graph):
            raise AssertionError("DynamicGraph.apply expanded edge_sources")

        monkeypatch.setattr(CSRGraph, "edge_sources", forbidden)
        for batch in batches:
            dynamic.apply(batch)
        assert dynamic.generation == len(batches)


class TestBitIdentity:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_insert_only_delta_matches_cold_rerun(self, data):
        graph = data.draw(small_graphs())
        batch = data.draw(insert_batches(graph.num_vertices))
        algorithm = data.draw(st.sampled_from(MONOTONE_ALGORITHMS))
        spec = get_algorithm(algorithm)

        dynamic = DynamicGraph(graph, key="HYP-DELTA")
        previous = run_vcpm(dynamic.graph, spec, source=0)
        dynamic.apply(batch)

        outcome = run_vcpm_incremental(
            dynamic.graph, spec, batch, previous, source=0
        )
        reference = run_vcpm(dynamic.graph, spec, source=0)
        assert (
            outcome.result.properties.tobytes()
            == reference.properties.tobytes()
        )
        if previous.converged:
            assert outcome.used_delta
            assert outcome.reason == "insert-only-monotone"
            assert outcome.seed_count == len(np.unique(batch.inserts[:, 0]))

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_mixed_batches_fall_back_bit_identically(self, data):
        graph = data.draw(small_graphs())
        seed = data.draw(st.integers(min_value=0, max_value=999))
        algorithm = data.draw(st.sampled_from(MONOTONE_ALGORITHMS + ["PR"]))
        spec = get_algorithm(algorithm)

        dynamic = DynamicGraph(graph, key="HYP-MIXED")
        previous = run_vcpm(dynamic.graph, spec, source=0)
        # insert_fraction < 1 forces deletions -> the fallback path.
        (batch,) = churn_batches(
            dynamic.graph,
            num_batches=1,
            batch_edges=6,
            insert_fraction=0.5,
            seed=seed,
        )
        dynamic.apply(batch)

        outcome = run_vcpm_incremental(
            dynamic.graph, spec, batch, previous, source=0
        )
        reference = run_vcpm(dynamic.graph, spec, source=0)
        assert not outcome.used_delta
        assert (
            outcome.result.properties.tobytes()
            == reference.properties.tobytes()
        )

    def test_blockers_are_named(self):
        insert = EdgeBatch.of(inserts=[(0, 1)])
        mixed = EdgeBatch.of(deletes=[(0, 1)])
        assert supports_delta(get_algorithm("BFS"), insert) is None
        assert "deletes" in supports_delta(get_algorithm("BFS"), mixed)
        assert "accumulating" in supports_delta(get_algorithm("PR"), insert)

    def test_stale_previous_forces_full_rerun(self):
        graph = datasets.load("FR")
        spec = get_algorithm("BFS")
        dynamic = DynamicGraph(graph, key="HYP-STALE")
        batch = EdgeBatch.of(inserts=[(0, 1)])
        previous = run_vcpm(dynamic.graph, get_algorithm("SSSP"), source=0)
        dynamic.apply(batch)
        outcome = run_vcpm_incremental(
            dynamic.graph, spec, batch, previous, source=0
        )
        assert outcome.mode == "full"
        assert "SSSP" in outcome.reason


class TestGenerations:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_every_apply_advances_generation_by_one(self, data):
        graph = data.draw(small_graphs())
        num_batches = data.draw(st.integers(min_value=0, max_value=5))
        dynamic = DynamicGraph(graph, key="HYP-GEN")
        assert dynamic.generation == 0
        generations = [dynamic.generation]
        for batch in churn_batches(
            dynamic.graph, num_batches=num_batches, batch_edges=4, seed=7
        ):
            dynamic.apply(batch)
            generations.append(dynamic.generation)
        assert generations == list(range(num_batches + 1))

    def test_empty_batch_still_advances(self):
        dynamic = DynamicGraph(datasets.load("FR"), key="HYP-EMPTY")
        fp = dynamic.content_fingerprint
        dynamic.apply(EdgeBatch.of())
        assert dynamic.generation == 1
        # Content unchanged: same fingerprint, new generation.
        assert dynamic.content_fingerprint == fp

    def test_inverse_never_rolls_generation_back(self):
        dynamic = DynamicGraph(datasets.load("FR"), key="HYP-ROLL")
        batch = EdgeBatch.of(inserts=[(1, 2), (3, 4)])
        dynamic.apply(batch)
        dynamic.apply(batch.inverse())
        assert dynamic.generation == 2


class TestContentAddressing:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_apply_inverse_restores_arrays_and_fingerprint(self, data):
        graph = data.draw(small_graphs())
        seed = data.draw(st.integers(min_value=0, max_value=999))
        dynamic = DynamicGraph(graph, key="HYP-INV")
        before = dynamic.graph
        fp = dynamic.content_fingerprint

        (batch,) = churn_batches(
            dynamic.graph, num_batches=1, batch_edges=6, seed=seed
        )
        dynamic.apply(batch)
        dynamic.apply(batch.inverse())

        after = dynamic.graph
        assert after.offsets.tobytes() == before.offsets.tobytes()
        assert np.asarray(after.edges).tobytes() == np.asarray(
            before.edges
        ).tobytes()
        assert np.asarray(after.weights).tobytes() == np.asarray(
            before.weights
        ).tobytes()
        assert dynamic.content_fingerprint == fp

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_edge_input_order_is_irrelevant(self, data):
        graph = data.draw(small_graphs())
        sources = graph.edge_sources()
        dst = np.asarray(graph.edges)
        wts = np.asarray(graph.weights)
        perm = data.draw(st.permutations(list(range(graph.num_edges))))
        perm = np.asarray(perm, dtype=np.int64)
        shuffled = CSRGraph.from_edge_list(
            graph.num_vertices,
            list(zip(sources[perm], dst[perm])),
            [float(w) for w in wts[perm]],
            name="shuffled",
        )
        a = DynamicGraph(graph, key="HYP-ORD-A")
        b = DynamicGraph(shuffled, key="HYP-ORD-B")
        assert a.content_fingerprint == b.content_fingerprint

    def test_fingerprint_tracks_mutation(self):
        dynamic = DynamicGraph(datasets.load("FR"), key="HYP-FP")
        fp = dynamic.content_fingerprint
        dynamic.apply(EdgeBatch.of(inserts=[(0, 5)]))
        assert dynamic.content_fingerprint != fp


class TestLazyFingerprint:
    """The snapshot hash runs on the first read of a generation, never in apply."""

    @staticmethod
    def _count_hashes(monkeypatch):
        calls = []
        eager = dyn._content_fingerprint

        def counting(graph):
            calls.append(graph)
            return eager(graph)

        monkeypatch.setattr(dyn, "_content_fingerprint", counting)
        return calls

    def test_applies_hash_nothing_until_read_then_once(self, monkeypatch):
        calls = self._count_hashes(monkeypatch)
        dynamic = DynamicGraph(datasets.load("FR"), key="HYP-LAZY-COUNT")
        for batch in churn_batches(
            dynamic.graph, num_batches=5, batch_edges=16, seed=3
        ):
            dynamic.apply(batch)
        assert calls == []
        fp = dynamic.content_fingerprint
        assert dynamic.fingerprint_payload()["content"] == fp
        assert dynamic.content_fingerprint == fp
        assert len(calls) == 1
        monkeypatch.undo()
        assert fp == dyn._content_fingerprint(dynamic.graph)

    def test_unread_fingerprint_is_never_computed(self, monkeypatch):
        calls = self._count_hashes(monkeypatch)
        dynamic = DynamicGraph(datasets.load("FR"), key="HYP-LAZY-NONE")
        for batch in churn_batches(
            dynamic.graph, num_batches=3, batch_edges=16, seed=4
        ):
            dynamic.apply(batch)
        assert dynamic.generation == 3
        assert calls == []

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_lazy_equals_eager_at_every_generation(self, data):
        graph = data.draw(small_graphs())
        num_batches = data.draw(st.integers(min_value=1, max_value=4))
        seed = data.draw(st.integers(min_value=0, max_value=999))
        dynamic = DynamicGraph(graph, key="HYP-LAZY-EAGER")
        original = dyn._content_fingerprint(dynamic.graph)
        batches = list(
            churn_batches(
                dynamic.graph, num_batches=num_batches, batch_edges=4, seed=seed
            )
        )
        # Forward through the trace, then back through the inverses.
        for batch in batches + [b.inverse() for b in reversed(batches)]:
            dynamic.apply(batch)
            if data.draw(st.booleans()):
                lazy = dynamic.content_fingerprint
            else:
                lazy = dynamic.fingerprint_payload()["content"]
            assert lazy == dyn._content_fingerprint(dynamic.graph)
        assert dynamic.content_fingerprint == original

    def test_hex_digests_are_pinned(self):
        graph = CSRGraph.from_edge_list(
            5,
            [(0, 1), (0, 2), (1, 3), (3, 4), (4, 0), (2, 2), (0, 1)],
            [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0],
            name="pin",
        )
        dynamic = DynamicGraph(graph, key="HYP-PIN")
        assert dynamic.content_fingerprint == "40ecad486ef3805c"
        batch = EdgeBatch.of(
            inserts=[(2, 3), (0, 1)],
            insert_weights=np.array([6.0, 0.5], dtype=np.float32),
            deletes=[(4, 0)],
            delete_weights=np.array([5.0], dtype=np.float32),
        )
        assert batch.digest() == "a686b85f7b583a12"
        dynamic.apply(batch)
        assert dynamic.fingerprint_payload()["content"] == "e42657e3279a0735"

    def test_payload_is_one_snapshot_while_another_thread_applies(self):
        dynamic = DynamicGraph(datasets.load("FR"), key="HYP-LAZY-RACE")
        batch = EdgeBatch.of(inserts=[(0, 5), (1, 7), (2, 9)])
        before = (dynamic.content_fingerprint, dynamic.num_edges)
        dynamic.apply(batch)
        after = (dynamic.content_fingerprint, dynamic.num_edges)
        dynamic.apply(batch.inverse())
        assert before != after

        stop = threading.Event()
        seen = []

        def writer():
            for i in range(200):
                dynamic.apply(batch if i % 2 == 0 else batch.inverse())

        def reader():
            while not stop.is_set():
                payload = dynamic.fingerprint_payload()
                seen.append((payload["content"], payload["num_edges"]))

        # More threads than cores, switching often, so a payload read
        # between an apply and the next hash is likely.
        writer_thread = threading.Thread(target=writer, daemon=True)
        readers = [threading.Thread(target=reader, daemon=True) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in [writer_thread, *readers]:
                thread.start()
            writer_thread.join(timeout=60)
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(
            thread.is_alive() for thread in [writer_thread, *readers]
        ), "deadlock"
        assert seen and set(seen) <= {before, after}
        assert (dynamic.content_fingerprint, dynamic.num_edges) == before


class TestChurnTraces:
    def test_same_seed_same_batches(self):
        graph = datasets.load("FR")
        first = [
            b.digest()
            for b in churn_batches(graph, num_batches=4, batch_edges=16, seed=9)
        ]
        second = [
            b.digest()
            for b in churn_batches(graph, num_batches=4, batch_edges=16, seed=9)
        ]
        assert first == second
        distinct = [
            b.digest()
            for b in churn_batches(graph, num_batches=4, batch_edges=16, seed=10)
        ]
        assert first != distinct

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_generated_batches_always_apply_cleanly(self, data):
        graph = data.draw(small_graphs())
        seed = data.draw(st.integers(min_value=0, max_value=999))
        fraction = data.draw(
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
        )
        dynamic = DynamicGraph(graph, key="HYP-TRACE")
        for batch in churn_batches(
            dynamic.graph,
            num_batches=4,
            batch_edges=5,
            insert_fraction=fraction,
            seed=seed,
        ):
            dynamic.apply(batch)  # DynamicGraphError would fail the test
        assert dynamic.generation == 4

    @pytest.mark.parametrize("insert_fraction", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 9, 1003])
    def test_vectorized_trace_matches_list_oracle(self, seed, insert_fraction):
        graph = datasets.load("FR")
        kwargs = dict(
            num_batches=3,
            batch_edges=graph.num_edges // 40,
            insert_fraction=insert_fraction,
            seed=seed,
        )
        assert [b.digest() for b in churn_batches(graph, **kwargs)] == [
            b.digest() for b in _reference_churn_batches(graph, **kwargs)
        ]

    def test_capped_deletes_match_list_oracle(self):
        graph = CSRGraph.from_edge_list(
            6, [(i % 6, (3 * i) % 6) for i in range(20)], name="cap"
        )
        kwargs = dict(
            num_batches=3, batch_edges=30, insert_fraction=0.25, seed=5
        )
        batches = list(churn_batches(graph, **kwargs))
        # n_del = min(30 - 8, edges present): every edge, each batch.
        assert [b.num_deletes for b in batches] == [20, 8, 8]
        assert [b.digest() for b in batches] == [
            b.digest() for b in _reference_churn_batches(graph, **kwargs)
        ]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_dense_deletes_match_list_oracle(self, data):
        # Deletes near the edge count push many victims into the
        # swap-remove tail, and often cap n_del at every edge.
        graph = data.draw(small_graphs())
        kwargs = dict(
            num_batches=data.draw(st.integers(min_value=1, max_value=4)),
            batch_edges=data.draw(st.integers(min_value=1, max_value=60)),
            insert_fraction=data.draw(st.sampled_from([0.0, 0.25, 0.5])),
            seed=data.draw(st.integers(min_value=0, max_value=999)),
        )
        assert [b.digest() for b in churn_batches(graph, **kwargs)] == [
            b.digest() for b in _reference_churn_batches(graph, **kwargs)
        ]

    def test_derived_churn_keys_are_reproducible(self):
        first = derive_churned("FR", 3, key="HYP-DRV-A", replace=True)
        second = derive_churned("FR", 3, key="HYP-DRV-B", replace=True)
        try:
            assert first.content_fingerprint == second.content_fingerprint
            assert first.generation == second.generation == 3
        finally:
            dyn.unregister("HYP-DRV-A")
            dyn.unregister("HYP-DRV-B")


class TestValidation:
    def test_out_of_range_insert_rejected(self):
        dynamic = DynamicGraph(datasets.load("FR"), key="HYP-RANGE")
        with pytest.raises(DynamicGraphError):
            dynamic.apply(
                EdgeBatch.of(inserts=[(0, dynamic.num_vertices)])
            )
        assert dynamic.generation == 0  # failed applies leave no trace

    def test_missing_delete_triple_rejected(self):
        graph = CSRGraph.from_edge_list(3, [(0, 1)], [2.0], name="tiny")
        dynamic = DynamicGraph(graph, key="HYP-MISS")
        with pytest.raises(DynamicGraphError, match="cannot delete"):
            dynamic.apply(
                EdgeBatch.of(deletes=[(0, 1)], delete_weights=[9.0])
            )
        # The right weight identifies the edge.
        dynamic.apply(EdgeBatch.of(deletes=[(0, 1)], delete_weights=[2.0]))
        assert dynamic.num_edges == 0

    @pytest.mark.parametrize(
        "field", ["insert_weights", "delete_weights"]
    )
    def test_nan_weights_rejected(self, field):
        # NaN equals nothing, so a NaN delete cannot identify an edge:
        # two of them would clear one slot twice and report success
        # with an edge still present.
        graph = CSRGraph.from_edge_list(
            2, [(0, 1), (0, 1)], [np.nan, np.nan], name="nan"
        )
        with pytest.raises(DynamicGraphError, match=field):
            if field == "insert_weights":
                EdgeBatch.of(inserts=[(0, 1)], insert_weights=[np.nan])
            else:
                DynamicGraph(graph, key="HYP-NAN").apply(
                    EdgeBatch.of(
                        deletes=[(0, 1), (0, 1)],
                        delete_weights=[np.nan, np.nan],
                    )
                )

    def test_mismatched_weight_arrays_rejected(self):
        with pytest.raises(DynamicGraphError, match="parallel"):
            EdgeBatch.of(inserts=[(0, 1), (1, 2)], insert_weights=[1.0])

    def test_malformed_pairs_rejected(self):
        with pytest.raises(DynamicGraphError, match=r"\(N, 2\)"):
            EdgeBatch.of(inserts=[(0, 1, 2)])

    def test_continuation_requires_both_kwargs(self):
        graph = datasets.load("FR")
        with pytest.raises(ValueError):
            run_vcpm(
                graph,
                get_algorithm("BFS"),
                source=0,
                initial_active=np.asarray([0]),
            )

    def test_continuation_rejected_for_pr(self):
        graph = datasets.load("FR")
        with pytest.raises(ValueError):
            run_vcpm(
                graph,
                get_algorithm("PR"),
                source=None,
                initial_properties=np.zeros(graph.num_vertices),
                initial_active=np.asarray([0]),
            )


class TestRegistry:
    def test_static_key_collision_rejected(self):
        with pytest.raises(ValueError, match="static"):
            dyn.register(DynamicGraph(datasets.load("FR"), key="FR"))

    def test_register_get_unregister_round_trip(self):
        dynamic = DynamicGraph(datasets.load("FR"), key="HYP-REG")
        dyn.register(dynamic)
        try:
            assert dyn.is_registered("hyp-reg")  # case-folded
            assert dyn.get("HYP-REG") is dynamic
            assert datasets.is_dynamic("HYP-REG")
            assert datasets.load("HYP-REG") is dynamic.graph
        finally:
            dyn.unregister("HYP-REG")
        assert not dyn.is_registered("HYP-REG")
        with pytest.raises(KeyError):
            dyn.get("HYP-REG")

    def test_datasets_generation_tracks_mutation(self):
        dynamic = DynamicGraph(datasets.load("FR"), key="HYP-GENQ")
        dyn.register(dynamic)
        try:
            assert datasets.generation("HYP-GENQ") == 0
            fp = datasets.fingerprint("HYP-GENQ")
            dynamic.apply(EdgeBatch.of(inserts=[(0, 2)]))
            assert datasets.generation("HYP-GENQ") == 1
            assert datasets.fingerprint("HYP-GENQ") != fp
        finally:
            dyn.unregister("HYP-GENQ")
