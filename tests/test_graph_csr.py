"""CSR graph structure tests."""

import importlib
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, GraphError
from repro.graph.csr import index_dtype, int64_blocks, sorted_unique


class TestConstruction:
    def test_from_edge_list_basic(self):
        g = CSRGraph.from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(1)) == [2]
        assert list(g.neighbors(2)) == []

    def test_from_edge_list_unsorted_sources(self):
        g = CSRGraph.from_edge_list(3, [(2, 0), (0, 1), (1, 2), (0, 2)])
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(2)) == [0]

    def test_from_edge_list_preserves_weights(self):
        g = CSRGraph.from_edge_list(
            2, [(0, 1), (1, 0)], weights=[2.5, 7.0]
        )
        assert g.edge_weights(0)[0] == pytest.approx(2.5)
        assert g.edge_weights(1)[0] == pytest.approx(7.0)

    def test_from_edge_list_default_weights_are_one(self):
        g = CSRGraph.from_edge_list(2, [(0, 1)])
        assert g.weights[0] == 1.0

    def test_duplicate_edges_retained(self):
        g = CSRGraph.from_edge_list(2, [(0, 1), (0, 1)])
        assert g.num_edges == 2

    def test_self_loops_retained(self):
        g = CSRGraph.from_edge_list(2, [(0, 0)])
        assert list(g.neighbors(0)) == [0]

    def test_empty_graph(self):
        g = CSRGraph.empty(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.edge_to_vertex_ratio == 0.0

    def test_zero_vertex_graph(self):
        g = CSRGraph.empty(0)
        assert g.num_vertices == 0
        assert g.edge_to_vertex_ratio == 0.0

    def test_offsets_dtype_normalized(self):
        g = CSRGraph(
            offsets=np.array([0, 1], dtype=np.int64),
            edges=np.array([0], dtype=np.int64),
            weights=np.array([1.0], dtype=np.float64),
        )
        assert g.offsets.dtype == np.int32
        assert g.edges.dtype == np.int32
        assert g.weights.dtype == np.float32


class TestIndexWidth:
    LIMIT = 2**31

    @pytest.mark.parametrize(
        "num_vertices, num_edges, expected",
        [
            (0, 0, np.int32),
            (LIMIT - 1, LIMIT - 1, np.int32),
            (LIMIT, 0, np.int64),
            (0, LIMIT, np.int64),
            (LIMIT, LIMIT - 1, np.int64),
            (LIMIT - 1, LIMIT, np.int64),
        ],
    )
    def test_index_dtype_at_the_int32_bound(self, num_vertices, num_edges, expected):
        assert index_dtype(num_vertices, num_edges) == np.dtype(expected)

    def test_every_constructor_builds_in_the_index_width(self):
        built = CSRGraph.from_arrays(
            3,
            np.array([2, 0, 1], dtype=np.int64),
            np.array([0, 2, 2], dtype=np.int64),
        )
        for graph in (built, CSRGraph.empty(4), CSRGraph.from_edge_list(2, [])):
            assert graph.offsets.dtype == np.int32
            assert graph.edges.dtype == np.int32
            assert graph.edge_sources().dtype == np.int32
        np.testing.assert_array_equal(built.edge_sources(), [0, 1, 2])
        np.testing.assert_array_equal(built.edges, [2, 2, 0])

    def test_int64_rendering_is_width_independent(self):
        values = np.array([0, 5, 2**31 - 1], dtype=np.int32)
        narrow = b"".join(block.tobytes() for block in int64_blocks(values))
        wide = b"".join(
            block.tobytes() for block in int64_blocks(values.astype(np.int64))
        )
        assert narrow == wide == values.astype("<i8").tobytes()


class TestValidation:
    def test_rejects_negative_num_vertices(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edge_list(-1, [])

    def test_rejects_source_out_of_range(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edge_list(2, [(2, 0)])

    def test_rejects_destination_out_of_range(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edge_list(2, [(0, 5)])

    def test_rejects_bad_weights_shape(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edge_list(2, [(0, 1)], weights=[1.0, 2.0])

    def test_rejects_decreasing_offsets(self):
        with pytest.raises(GraphError):
            CSRGraph(
                offsets=np.array([0, 2, 1]),
                edges=np.array([0, 0]),
                weights=np.ones(2, dtype=np.float32),
            )

    def test_rejects_offsets_not_starting_at_zero(self):
        with pytest.raises(GraphError):
            CSRGraph(
                offsets=np.array([1, 2]),
                edges=np.array([0, 0]),
                weights=np.ones(2, dtype=np.float32),
            )

    def test_rejects_offsets_not_ending_at_num_edges(self):
        with pytest.raises(GraphError):
            CSRGraph(
                offsets=np.array([0, 1]),
                edges=np.array([0, 0]),
                weights=np.ones(2, dtype=np.float32),
            )

    def test_rejects_mismatched_weights(self):
        with pytest.raises(GraphError):
            CSRGraph(
                offsets=np.array([0, 1]),
                edges=np.array([0]),
                weights=np.ones(2, dtype=np.float32),
            )

    def test_rejects_malformed_edge_list(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edge_list(2, np.zeros((2, 3)))


class TestAccessors:
    def test_out_degree_array(self, tiny_graph):
        degrees = tiny_graph.out_degree()
        assert degrees.tolist() == [3, 2, 1, 1, 2, 1, 0]

    def test_out_degree_single(self, tiny_graph):
        assert tiny_graph.out_degree(0) == 3
        assert tiny_graph.out_degree(6) == 0

    def test_iter_edges_order_and_count(self, tiny_graph):
        triples = list(tiny_graph.iter_edges())
        assert len(triples) == tiny_graph.num_edges
        assert triples[0] == (0, 1, 3.0)
        # Sources are non-decreasing in CSR order.
        sources = [s for s, _, _ in triples]
        assert sources == sorted(sources)

    def test_edge_sources_matches_iter(self, tiny_graph):
        sources = tiny_graph.edge_sources()
        expected = [s for s, _, _ in tiny_graph.iter_edges()]
        assert sources.tolist() == expected

    def test_edge_sources_empty(self):
        assert CSRGraph.empty(3).edge_sources().size == 0

    def test_edge_to_vertex_ratio(self, tiny_graph):
        assert tiny_graph.edge_to_vertex_ratio == pytest.approx(10 / 7)


class TestTransformations:
    def test_reverse_swaps_edges(self, tiny_graph):
        rev = tiny_graph.reverse()
        assert rev.num_edges == tiny_graph.num_edges
        fwd = {(s, d) for s, d, _ in tiny_graph.iter_edges()}
        back = {(d, s) for s, d, _ in rev.iter_edges()}
        assert fwd == back

    def test_reverse_preserves_weight_multiset(self, tiny_graph):
        rev = tiny_graph.reverse()
        assert sorted(rev.weights.tolist()) == sorted(
            tiny_graph.weights.tolist()
        )

    def test_double_reverse_is_identity(self, tiny_graph):
        rr = tiny_graph.reverse().reverse()
        assert np.array_equal(rr.offsets, tiny_graph.offsets)
        assert np.array_equal(rr.edges, tiny_graph.edges)

    def test_with_weights(self, tiny_graph):
        new = tiny_graph.with_weights(np.zeros(tiny_graph.num_edges))
        assert np.all(new.weights == 0)
        assert np.array_equal(new.edges, tiny_graph.edges)



class TestStorage:
    def test_storage_grows_with_source_ids(self, tiny_graph):
        base = tiny_graph.storage_bytes()
        tagged = tiny_graph.storage_bytes(include_source_ids=True)
        assert tagged == base + 4 * tiny_graph.num_edges

    def test_storage_metadata_factor(self, tiny_graph):
        base = tiny_graph.storage_bytes()
        doubled = tiny_graph.storage_bytes(metadata_factor=1.0)
        assert doubled == 2 * base

    def test_storage_unweighted_edges_smaller(self, tiny_graph):
        weighted = tiny_graph.storage_bytes(edge_bytes=8)
        unweighted = tiny_graph.storage_bytes(edge_bytes=4)
        assert weighted - unweighted == 4 * tiny_graph.num_edges


class TestSortedUnique:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(-(2**31), 2**31 - 1), max_size=60),
        dtype=st.sampled_from([np.int32, np.int64]),
        layout=st.sampled_from(["as-drawn", "sorted", "all-equal"]),
    )
    @example(values=[], dtype=np.int32, layout="as-drawn")
    @example(values=[-5], dtype=np.int64, layout="as-drawn")
    @example(values=[7, -3, 7, 0, -3], dtype=np.int32, layout="as-drawn")
    def test_matches_np_unique(self, values, dtype, layout):
        if layout == "sorted":
            values = sorted(values)
        elif layout == "all-equal":
            values = values[:1] * len(values)
        arr = np.asarray(values, dtype=dtype)
        got = sorted_unique(arr)
        expected = np.unique(arr)
        assert got.dtype == arr.dtype
        np.testing.assert_array_equal(got, expected)

    def test_flattens_and_leaves_input_alone(self):
        arr = np.array([[3, 1], [3, 2]], dtype=np.int64)
        np.testing.assert_array_equal(sorted_unique(arr), [1, 2, 3])
        np.testing.assert_array_equal(arr, [[3, 1], [3, 2]])

    @pytest.mark.parametrize(
        "module", ["repro.vcpm.engine", "repro.graph.dynamic", "repro.core.update_bitmap"]
    )
    def test_hot_paths_do_not_call_np_unique(self, module):
        """Keep the churn, frontier and Update Bitmap paths on sorted_unique.

        numpy 2.x's hash-based ``np.unique`` measured 10-25x slower than
        sort plus an adjacent-inequality mask on these vertex-id arrays
        (numpy 2.4 on a 2-vCPU Xeon: 1.0 vs 0.1 ms at 9.4k random int64
        ids, 428 vs 17 ms at 1M), and these modules run once per churn
        op or per iteration.
        """
        source = pathlib.Path(importlib.import_module(module).__file__).read_text()
        assert "np.unique(" not in source
