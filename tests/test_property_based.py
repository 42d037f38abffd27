"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ReadyToUpdateBitmap,
    StallingReducePipeline,
    ZeroStallReducePipeline,
    balanced_dispatch,
    coalesced_run_lengths,
    vectorize_workloads,
)
from repro.graph import CSRGraph
from repro.memory import Crossbar
from repro.vcpm import ALGORITHMS, reference, run_vcpm
from repro.vcpm.spec import ReduceOp

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
edge_lists = st.integers(2, 40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=120,
        ),
    )
)

op_streams = st.lists(
    st.tuples(st.integers(0, 5), st.floats(0, 100, allow_nan=False)),
    max_size=60,
)

degree_arrays = st.lists(st.integers(0, 400), max_size=60).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)


# ----------------------------------------------------------------------
# CSR invariants
# ----------------------------------------------------------------------
class TestCSRProperties:
    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_preserves_edge_multiset(self, data):
        n, edges = data
        graph = CSRGraph.from_edge_list(n, edges)
        assert graph.num_edges == len(edges)
        rebuilt = sorted((s, d) for s, d, _ in graph.iter_edges())
        assert rebuilt == sorted(edges)

    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_degrees_sum_to_edges(self, data):
        n, edges = data
        graph = CSRGraph.from_edge_list(n, edges)
        assert graph.out_degree().sum() == graph.num_edges

    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_reverse_involution_up_to_list_order(self, data):
        # Reversing twice preserves the edge multiset and the offsets
        # (within-source destination order may legitimately permute).
        n, edges = data
        graph = CSRGraph.from_edge_list(n, edges)
        back = graph.reverse().reverse()
        assert np.array_equal(back.offsets, graph.offsets)
        assert sorted(back.iter_edges()) == sorted(graph.iter_edges())


# ----------------------------------------------------------------------
# Reduce pipeline == sequential fold
# ----------------------------------------------------------------------
class TestReducePipelineProperties:
    @given(op_streams, st.sampled_from(list(ReduceOp)))
    @settings(max_examples=80, deadline=None)
    def test_zero_stall_equals_fold(self, ops, op):
        expected = {}
        for addr, value in ops:
            expected[addr] = op.scalar(expected.get(addr, op.identity), value)
        result = ZeroStallReducePipeline(op).run(ops)
        assert result.vb == expected
        assert result.stall_cycles == 0

    @given(op_streams, st.sampled_from(list(ReduceOp)))
    @settings(max_examples=50, deadline=None)
    def test_stalling_equals_zero_stall_result(self, ops, op):
        fast = ZeroStallReducePipeline(op).run(ops)
        slow = StallingReducePipeline(op).run(ops)
        assert fast.vb == slow.vb
        assert fast.cycles <= slow.cycles


# ----------------------------------------------------------------------
# Dispatch conservation
# ----------------------------------------------------------------------
class TestDispatchProperties:
    @given(degree_arrays, st.integers(1, 32), st.integers(1, 256))
    @settings(max_examples=80, deadline=None)
    def test_edges_conserved(self, degrees, num_pes, threshold):
        outcome = balanced_dispatch(degrees, num_pes, threshold)
        assert outcome.pe_loads.sum() == degrees.sum()

    @given(degree_arrays)
    @settings(max_examples=50, deadline=None)
    def test_ops_bounded(self, degrees):
        outcome = balanced_dispatch(degrees)
        # At least one op per vertex; at most one per edge (plus zero-degree
        # vertices, which still cost a dispatch decision each).
        assert outcome.scheduling_ops >= degrees.size
        assert outcome.scheduling_ops <= degrees.sum() + degrees.size


# ----------------------------------------------------------------------
# Vectorization bounds
# ----------------------------------------------------------------------
class TestVectorizeProperties:
    @given(st.lists(st.integers(0, 64), max_size=40), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_slots_within_bounds(self, sizes, n_simt):
        stats = vectorize_workloads(sizes, n_simt)
        total = sum(sizes)
        lower = -(-total // n_simt) if total else 0
        assert lower <= stats.issue_slots
        naive = vectorize_workloads(sizes, n_simt, combine_small=False)
        assert stats.issue_slots <= naive.issue_slots


# ----------------------------------------------------------------------
# Coalescing conservation
# ----------------------------------------------------------------------
class TestCoalesceProperties:
    @given(st.lists(st.integers(0, 30), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_runs_conserve_edges(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        offsets = np.concatenate(
            [[0], np.cumsum(counts)[:-1]]
        ) if counts.size else np.zeros(0, dtype=np.int64)
        runs = coalesced_run_lengths(offsets, counts)
        assert runs.sum() == counts.sum()
        # Maximal coalescing of adjacent extents: all extents here are
        # adjacent, so at most one run per gap (zero-count vertices break
        # nothing).
        if counts.sum():
            assert runs.size <= np.count_nonzero(counts)


# ----------------------------------------------------------------------
# Bitmap superset property
# ----------------------------------------------------------------------
class TestBitmapProperties:
    @given(
        st.integers(1, 2000),
        st.lists(st.integers(0, 1999), max_size=50),
        st.sampled_from([16, 64, 256]),
    )
    @settings(max_examples=60, deadline=None)
    def test_scheduled_is_superset_of_marked(self, n, ids, block):
        ids = [i for i in ids if i < n]
        bitmap = ReadyToUpdateBitmap(n, block)
        bitmap.mark(np.asarray(ids, dtype=np.int64))
        scheduled = set(bitmap.scheduled_vertices().tolist())
        assert set(ids).issubset(scheduled)
        assert ReadyToUpdateBitmap.scheduled_count(
            np.asarray(ids, dtype=np.int64), n, block
        ) == len(scheduled)


# ----------------------------------------------------------------------
# Crossbar cycle bounds
# ----------------------------------------------------------------------
class TestCrossbarProperties:
    @given(
        st.lists(st.integers(0, 1000), min_size=1, max_size=200),
        st.sampled_from([2, 8, 32, 128]),
    )
    @settings(max_examples=60, deadline=None)
    def test_cycles_within_theoretical_bounds(self, dsts, outputs):
        dst = np.asarray(dsts, dtype=np.int64)
        xbar = Crossbar(outputs, issue_width=8)
        stats = xbar.route_batch(np.bincount(dst % outputs, minlength=outputs))
        groups = -(-dst.size // 8)
        max_load = np.bincount(dst % outputs).max()
        assert stats.cycles == max(groups, max_load)


# ----------------------------------------------------------------------
# Engine == reference on random graphs
# ----------------------------------------------------------------------
class TestEngineProperties:
    @given(edge_lists)
    @settings(max_examples=30, deadline=None)
    def test_bfs_matches_reference(self, data):
        n, edges = data
        graph = CSRGraph.from_edge_list(n, edges)
        result = run_vcpm(graph, ALGORITHMS["BFS"], source=0)
        expected = reference.bfs_levels(graph, 0)
        assert np.array_equal(
            np.nan_to_num(result.properties, posinf=1e30),
            np.nan_to_num(expected, posinf=1e30),
        )

    @given(edge_lists)
    @settings(max_examples=30, deadline=None)
    def test_cc_matches_reference(self, data):
        n, edges = data
        graph = CSRGraph.from_edge_list(n, edges)
        result = run_vcpm(graph, ALGORITHMS["CC"])
        assert np.array_equal(result.properties, reference.cc_labels(graph))

    @given(edge_lists)
    @settings(max_examples=30, deadline=None)
    def test_sswp_matches_reference(self, data):
        n, edges = data
        weights = [float((s * 7 + d * 13) % 19 + 1) for s, d in edges]
        graph = CSRGraph.from_edge_list(n, edges, weights)
        result = run_vcpm(graph, ALGORITHMS["SSWP"], source=0)
        assert np.array_equal(
            result.properties, reference.sswp_widths(graph, 0)
        )
