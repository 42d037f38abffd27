"""Functional engine tests: correctness against references, traces, hooks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import backends
from repro.core import scheduling
from repro.graph import CSRGraph, datasets
from repro.graphdyns.config import DEFAULT_CONFIG
from repro.graphdyns.timing import GraphDynSTimingModel
from repro.memory import crossbar
from repro.vcpm import engine
from repro.vcpm import (
    ALGORITHMS,
    EXTENSION_ALGORITHMS,
    Frontier,
    IterationData,
    gather_edge_indices,
    reference,
    run_vcpm,
    run_vcpm_partitioned,
)


def _finite_equal(a, b):
    return np.array_equal(
        np.nan_to_num(a, posinf=1e30), np.nan_to_num(b, posinf=1e30)
    )


class TestGatherEdgeIndices:
    def test_contiguous_expansion(self, tiny_graph):
        active = np.array([0, 1])
        idx = gather_edge_indices(tiny_graph.offsets, active)
        assert idx.tolist() == [0, 1, 2, 3, 4]

    def test_skips_inactive(self, tiny_graph):
        idx = gather_edge_indices(tiny_graph.offsets, np.array([2, 4]))
        assert idx.tolist() == [5, 7, 8]

    def test_zero_degree_vertex(self, tiny_graph):
        idx = gather_edge_indices(tiny_graph.offsets, np.array([6]))
        assert idx.size == 0

    def test_empty_active(self, tiny_graph):
        idx = gather_edge_indices(tiny_graph.offsets, np.zeros(0, dtype=np.int64))
        assert idx.size == 0

    def test_order_preserved(self, tiny_graph):
        # Active order (4, then 0) must be reflected in the index stream.
        idx = gather_edge_indices(tiny_graph.offsets, np.array([4, 0]))
        assert idx.tolist() == [7, 8, 0, 1, 2]


class TestScatterBlocks:
    def test_blocks_tile_the_stream_at_vertex_boundaries(self):
        degrees = np.array([3, 0, 20, 1, 1, 0, 6, 2], dtype=np.int32)
        blocks = engine._edge_blocks(degrees, 5)
        ends = np.cumsum(degrees)
        assert blocks[0][0] == blocks[0][2] == 0
        for (lo, hi, start, stop), following in zip(blocks, blocks[1:] + [None]):
            assert start == (ends[lo - 1] if lo else 0) and stop == ends[hi - 1]
            # A block is over ``block`` edges only when one vertex is.
            assert stop - start <= 5 or hi - lo == 1
            if following is not None:
                assert following[0] == hi and following[2] == stop
        assert blocks[-1][3] == degrees.sum()
        assert engine._edge_blocks(np.zeros(4, dtype=np.int32), 5) == []

    @pytest.mark.parametrize("name", ["BFS", "SSSP", "CC", "PR"])
    def test_block_size_changes_no_stream_or_result(self, monkeypatch, name):
        # A hub with more edges than a block, and frontiers that span
        # several blocks, against one block per frontier.
        rng = np.random.default_rng(5)
        pairs = [(0, v) for v in range(1, 60)]
        pairs += [tuple(e) for e in rng.integers(0, 80, size=(400, 2))]
        graph = CSRGraph.from_edge_list(
            80, pairs, rng.integers(1, 9, size=len(pairs)), name="hub"
        )

        def run():
            streams = []

            class Recorder:
                def on_iteration(self, data):
                    streams.append(data.edge_dst.tobytes())

            result = run_vcpm(graph, ALGORITHMS[name], source=0, observers=[Recorder()])
            return result.properties.tobytes(), streams

        whole = run()
        monkeypatch.setattr(engine, "_SCATTER_BLOCK", 7)
        monkeypatch.setattr(engine, "_MIN_SCATTER_BLOCK", 7)
        assert run() == whole


class TestCorrectness:
    @pytest.mark.parametrize("fixture_name", [
        "tiny_graph", "small_powerlaw", "small_grid", "small_chain",
        "disconnected_graph",
    ])
    def test_bfs_matches_reference(self, fixture_name, request):
        g = request.getfixturevalue(fixture_name)
        result = run_vcpm(g, ALGORITHMS["BFS"], source=0)
        assert _finite_equal(result.properties, reference.bfs_levels(g, 0))

    @pytest.mark.parametrize("fixture_name", [
        "tiny_graph", "small_powerlaw", "small_grid",
    ])
    def test_sssp_matches_dijkstra(self, fixture_name, request):
        g = request.getfixturevalue(fixture_name)
        result = run_vcpm(g, ALGORITHMS["SSSP"], source=0)
        assert _finite_equal(result.properties, reference.sssp_distances(g, 0))

    @pytest.mark.parametrize("fixture_name", [
        "tiny_graph", "small_powerlaw", "disconnected_graph",
    ])
    def test_cc_matches_label_propagation(self, fixture_name, request):
        g = request.getfixturevalue(fixture_name)
        result = run_vcpm(g, ALGORITHMS["CC"])
        assert np.array_equal(result.properties, reference.cc_labels(g))

    @pytest.mark.parametrize("fixture_name", [
        "tiny_graph", "small_powerlaw", "small_grid",
    ])
    def test_sswp_matches_widest_path(self, fixture_name, request):
        g = request.getfixturevalue(fixture_name)
        result = run_vcpm(g, ALGORITHMS["SSWP"], source=0)
        assert np.array_equal(result.properties, reference.sswp_widths(g, 0))

    @pytest.mark.parametrize("fixture_name", ["tiny_graph", "small_powerlaw"])
    def test_pagerank_matches_power_iteration(self, fixture_name, request):
        g = request.getfixturevalue(fixture_name)
        result = run_vcpm(
            g, ALGORITHMS["PR"], max_iterations=8, pr_tolerance=0.0
        )
        expected = reference.pagerank_scores(g, iterations=8)
        assert np.allclose(result.properties, expected)

    def test_bfs_different_source(self, small_grid):
        result = run_vcpm(small_grid, ALGORITHMS["BFS"], source=30)
        assert _finite_equal(
            result.properties, reference.bfs_levels(small_grid, 30)
        )

    def test_cc_symmetric_graph_single_component(self, small_grid):
        result = run_vcpm(small_grid, ALGORITHMS["CC"])
        assert np.all(result.properties == 0.0)

    def test_cc_disconnected_components_distinct(self, disconnected_graph):
        labels = run_vcpm(disconnected_graph, ALGORITHMS["CC"]).properties
        assert labels[0] == labels[1] == labels[2] == 0.0
        assert labels[3] == labels[4] == 3.0
        assert labels[5] == 5.0  # isolated


class TestConvergence:
    def test_bfs_converges(self, small_powerlaw):
        result = run_vcpm(small_powerlaw, ALGORITHMS["BFS"], source=0)
        assert result.converged

    def test_max_iterations_caps(self, small_chain):
        result = run_vcpm(
            small_chain, ALGORITHMS["BFS"], source=0, max_iterations=3
        )
        assert not result.converged
        assert result.num_iterations == 3

    def test_chain_takes_length_iterations(self, small_chain):
        result = run_vcpm(small_chain, ALGORITHMS["BFS"], source=0)
        # 50-vertex path: 49 frontier advances plus the final vertex's
        # (edge-less) iteration.
        assert result.num_iterations == 50

    def test_pr_stops_on_tolerance(self, small_powerlaw):
        loose = run_vcpm(
            small_powerlaw, ALGORITHMS["PR"], pr_tolerance=1.0,
            max_iterations=50,
        )
        assert loose.converged
        assert loose.num_iterations < 50

    def test_empty_graph(self):
        from repro.graph import CSRGraph

        result = run_vcpm(CSRGraph.empty(0), ALGORITHMS["CC"])
        assert result.converged
        assert result.num_iterations == 0

    def test_isolated_source(self, disconnected_graph):
        result = run_vcpm(disconnected_graph, ALGORITHMS["BFS"], source=5)
        assert result.properties[5] == 0.0
        assert np.isinf(result.properties[:5]).all()


class TestValidationErrors:
    def test_source_required(self, tiny_graph):
        with pytest.raises(ValueError):
            run_vcpm(tiny_graph, ALGORITHMS["BFS"], source=None)

    def test_source_out_of_range(self, tiny_graph):
        with pytest.raises(ValueError):
            run_vcpm(tiny_graph, ALGORITHMS["SSSP"], source=100)

    def test_source_ignored_for_cc(self, tiny_graph):
        result = run_vcpm(tiny_graph, ALGORITHMS["CC"], source=3)
        assert result.source is None


class TestTraces:
    def test_trace_lengths(self, tiny_graph):
        result = run_vcpm(tiny_graph, ALGORITHMS["BFS"], source=0)
        assert len(result.iterations) == result.num_iterations

    def test_first_iteration_from_source(self, tiny_graph):
        result = run_vcpm(tiny_graph, ALGORITHMS["BFS"], source=0)
        first = result.iterations[0]
        assert first.num_active == 1
        assert first.num_edges == tiny_graph.out_degree(0)

    def test_total_edges_accumulate(self, small_powerlaw):
        result = run_vcpm(small_powerlaw, ALGORITHMS["BFS"], source=0)
        assert result.total_edges_processed == sum(
            t.num_edges for t in result.iterations
        )

    def test_activations_feed_next_frontier(self, tiny_graph):
        result = run_vcpm(tiny_graph, ALGORITHMS["BFS"], source=0)
        for prev, cur in zip(result.iterations, result.iterations[1:]):
            assert cur.num_active == prev.num_activated

    def test_pr_processes_all_edges_every_iteration(self, small_powerlaw):
        result = run_vcpm(
            small_powerlaw, ALGORITHMS["PR"], max_iterations=3,
            pr_tolerance=0.0,
        )
        for trace in result.iterations:
            assert trace.num_edges == small_powerlaw.num_edges


class TestObservers:
    def test_observer_called_per_iteration(self, tiny_graph):
        calls = []

        class Probe:
            def on_iteration(self, data):
                calls.append(data.iteration)

        result = run_vcpm(
            tiny_graph, ALGORITHMS["BFS"], source=0, observers=[Probe()]
        )
        assert calls == list(range(result.num_iterations))

    def test_observer_sees_consistent_data(self, small_powerlaw):
        class Probe:
            def on_iteration(self, data):
                assert data.edge_dst.size == data.active_degrees.sum()
                assert data.active_ids.size == data.active_offsets.size
                assert data.num_modified <= data.num_vertices
                assert data.num_activated <= data.num_vertices

        run_vcpm(
            small_powerlaw, ALGORITHMS["SSSP"], source=0, observers=[Probe()]
        )

    def test_multiple_observers_same_stream(self, tiny_graph):
        seen = [[], []]

        def probe(bucket):
            class P:
                def on_iteration(self, data):
                    bucket.append(data.num_edges)

            return P()

        run_vcpm(
            tiny_graph,
            ALGORITHMS["BFS"],
            source=0,
            observers=[probe(seen[0]), probe(seen[1])],
        )
        assert seen[0] == seen[1]

    def test_modified_ids_are_reduce_targets(self, tiny_graph):
        class Probe:
            def on_iteration(self, data):
                assert set(data.modified_ids).issubset(set(data.edge_dst))

        run_vcpm(tiny_graph, ALGORITHMS["SSSP"], source=0, observers=[Probe()])

    @pytest.mark.parametrize(
        "run", [run_vcpm, run_vcpm_partitioned], ids=lambda f: f.__name__
    )
    def test_observer_writing_into_arrays_raises(self, tiny_graph, run):
        class Scribbler:
            def on_iteration(self, data):
                data.edge_dst[0] = 0

        with pytest.raises(ValueError, match="read-only"):
            run(tiny_graph, ALGORITHMS["BFS"], source=0, observers=[Scribbler()])

    def test_every_array_is_read_only(self, tiny_graph):
        seen = []

        class Probe:
            def on_iteration(self, data):
                seen.append(data)

        run_vcpm(tiny_graph, ALGORITHMS["SSSP"], source=0, observers=[Probe()])
        assert seen
        for data in seen:
            for name in (
                "active_ids",
                "active_degrees",
                "active_offsets",
                "edge_dst",
                "modified_ids",
                "activated_ids",
            ):
                assert not getattr(data, name).flags.writeable, name

    @pytest.mark.parametrize("name", ["SSSP", "CC", "PR"])
    @pytest.mark.parametrize(
        "run", [run_vcpm, run_vcpm_partitioned], ids=lambda f: f.__name__
    )
    def test_stored_iterations_keep_their_edge_streams(
        self, small_powerlaw, run, name
    ):
        # The engine drops each iteration's streams; an observer that
        # keeps the IterationData keeps them, unchanged and read-only.
        graph = small_powerlaw
        kept, copies = [], []

        class Keeper:
            def on_iteration(self, data):
                kept.append(data)
                copies.append(data.edge_dst.copy())

        run(graph, ALGORITHMS[name], source=0, observers=[Keeper()])
        assert len(kept) >= 2
        for data, copy in zip(kept, copies):
            idx = gather_edge_indices(graph.offsets, data.active_ids)
            np.testing.assert_array_equal(data.edge_dst, graph.edges[idx])
            np.testing.assert_array_equal(data.edge_dst, copy)
            assert not data.edge_dst.flags.writeable


def _iteration(edge_dst, num_vertices) -> IterationData:
    empty = np.zeros(0, dtype=np.int64)
    return IterationData(
        iteration=0,
        frontier=Frontier(
            active_ids=empty,
            active_degrees=empty,
            active_offsets=empty,
            edge_dst=np.asarray(edge_dst, dtype=np.int64),
            num_vertices=num_vertices,
        ),
        modified_ids=empty,
        activated_ids=empty,
    )


def _oracle(edge_dst, width):
    return np.bincount(np.asarray(edge_dst, dtype=np.int64) % width, minlength=width)


def _assert_loads_match(data, width):
    got = data.dst_loads(width)
    expected = _oracle(data.edge_dst, width)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


class TestDstLoads:
    @settings(max_examples=200, deadline=None)
    @given(
        num_vertices=st.integers(1, 300),
        data=st.data(),
    )
    def test_fold_matches_bincount_oracle(self, num_vertices, data):
        edge_dst = data.draw(
            st.lists(st.integers(0, num_vertices - 1), max_size=400), label="edge_dst"
        )
        extra = data.draw(st.lists(st.integers(1, 400), max_size=4), label="widths")
        widths = [1, 3, 16, 128, max(num_vertices - 1, 1), num_vertices, num_vertices + 1]
        widths += extra
        iteration = _iteration(edge_dst, num_vertices)
        # Mixed widths on one IterationData share the one cached histogram.
        for width in data.draw(st.permutations(widths), label="order"):
            _assert_loads_match(iteration, width)

    @pytest.mark.parametrize(
        "edge_dst, num_vertices",
        [
            ([], 5),  # empty stream
            ([], 0),
            ([0, 0, 0], 1),  # V = 1
            ([0, 4, 5, 6, 6, 9], 10),  # widths 3, 4, 7, 9, 11 do not divide V
        ],
    )
    def test_fixed_cases(self, edge_dst, num_vertices):
        data = _iteration(edge_dst, num_vertices)
        for width in (1, 2, 3, 4, 7, 9, 11, 16, 128):
            _assert_loads_match(data, width)

    def test_histogram_computed_once(self, monkeypatch):
        data = _iteration([1, 2, 2, 7], 8)
        calls = []
        real = np.bincount

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting)
        for width in (128, 128, 16, 3):
            data.dst_loads(width)
        assert len(calls) == 1

    @pytest.mark.parametrize("width", [0, -1])
    def test_rejects_non_positive_width(self, width):
        with pytest.raises(ValueError, match="width"):
            _iteration([0, 1], 2).dst_loads(width)


# ---------------------------------------------------------------------------
# Frontier memo: sharing across observers and PR's carried frontier
# ---------------------------------------------------------------------------

_ALL_SPECS = {**ALGORITHMS, **EXTENSION_ALGORITHMS}

#: Observers under test: the four built-in backends' defaults plus the
#: GraphDynS configs that switch the shared statistics they read.
_OBSERVER_CONFIGS = {
    "GraphDynS": DEFAULT_CONFIG,
    "GraphDynS-no-AO": DEFAULT_CONFIG.with_ablation(atomic_optimization=False),
    "GraphDynS-no-exact": DEFAULT_CONFIG.with_ablation(exact_prefetch=False),
    "GraphDynS-no-balance": DEFAULT_CONFIG.with_ablation(workload_balance=False),
}


def _observers(graph, spec):
    observers = {
        name: GraphDynSTimingModel(graph, spec, config)
        for name, config in _OBSERVER_CONFIGS.items()
    }
    for name in ("Graphicionado", "Gunrock", "DCA"):
        observers[name] = backends.create(name).make_observer(graph, spec)
    return observers


class _Unmemoized(Frontier):
    """Recomputes every statistic from the arrays on every read."""

    def memo(self, fn, *args):
        return fn(self, *args)


class _OracleFeed:
    """Hands one observer private, unmemoized copies of each iteration."""

    def __init__(self, observer):
        self.observer = observer

    def on_iteration(self, data):
        f = data.frontier
        self.observer.on_iteration(
            IterationData(
                iteration=data.iteration,
                frontier=_Unmemoized(
                    f.active_ids.copy(),
                    f.active_degrees.copy(),
                    f.active_offsets.copy(),
                    f.edge_dst.copy(),
                    f.num_vertices,
                ),
                modified_ids=data.modified_ids.copy(),
                activated_ids=data.activated_ids.copy(),
            )
        )


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(1, 14))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=50
        )
    )
    weights = draw(
        st.lists(
            st.integers(1, 9).map(float), min_size=len(edges), max_size=len(edges)
        )
    )
    return CSRGraph.from_edge_list(n, edges, weights, name="hyp")


class TestFrontierMemo:
    @settings(max_examples=25, deadline=None)
    @given(graph=_small_graphs())
    def test_shared_memo_matches_unmemoized_oracle(self, graph):
        for spec in _ALL_SPECS.values():
            shared = _observers(graph, spec)
            oracle = _observers(graph, spec)
            run_vcpm(graph, spec, observers=list(shared.values()))
            run_vcpm(
                graph, spec, observers=[_OracleFeed(o) for o in oracle.values()]
            )
            for name, observer in shared.items():
                expected = oracle[name]
                label = f"{spec.name}/{name}"
                assert observer.phases == expected.phases, label
                assert observer.stall_cycles == expected.stall_cycles, label
                assert observer.traffic == expected.traffic, label
                assert observer.total_cycles == expected.total_cycles, label

    def test_pr_computes_each_shared_plan_once(self, monkeypatch):
        graph = datasets.load("FR")
        conflict_widths = []
        dispatches = []
        real_conflicts = crossbar.grouped_duplicate_count
        real_dispatch = scheduling.balanced_dispatch

        def counting_conflicts(dst, width):
            conflict_widths.append(width)
            return real_conflicts(dst, width)

        def counting_dispatch(*args, **kwargs):
            dispatches.append(args)
            return real_dispatch(*args, **kwargs)

        monkeypatch.setattr(crossbar, "grouped_duplicate_count", counting_conflicts)
        monkeypatch.setattr(scheduling, "balanced_dispatch", counting_dispatch)
        spec = ALGORITHMS["PR"]
        observers = [
            backends.create(name).make_observer(graph, spec)
            for name in ("GraphDynS", "Graphicionado", "Gunrock", "DCA")
        ]
        result = run_vcpm(graph, spec, observers=observers)
        assert result.num_iterations == 10
        # Graphicionado's 10 conflict counts and GraphDynS + DCA's 20
        # dispatches collapse to one each.
        assert conflict_widths.count(8) == 1
        assert len(dispatches) == 1

    @staticmethod
    def _frontiers(graph, spec, **kwargs):
        seen = []

        class Probe:
            def on_iteration(self, data):
                seen.append(data.frontier)

        run_vcpm(graph, spec, observers=[Probe()], **kwargs)
        return seen

    def test_pr_keeps_one_frontier(self, small_powerlaw):
        frontiers = self._frontiers(small_powerlaw, ALGORITHMS["PR"])
        assert len(frontiers) == 10
        assert all(f is frontiers[0] for f in frontiers)

    @pytest.mark.parametrize("name", ["BFS", "SSSP", "CC"])
    def test_other_specs_get_a_fresh_frontier_each_iteration(
        self, name, small_powerlaw
    ):
        frontiers = self._frontiers(small_powerlaw, ALGORITHMS[name])
        assert len(frontiers) >= 2
        assert len({id(f) for f in frontiers}) == len(frontiers)
        if name == "CC":
            # CC starts from every vertex too, but is not carried.
            assert frontiers[0].num_active == small_powerlaw.num_vertices
            assert frontiers[1] is not frontiers[0]

    def test_continuation_never_aliases_initial_active(self, small_powerlaw):
        spec = ALGORITHMS["BFS"]
        cold = run_vcpm(small_powerlaw, spec, source=0, max_iterations=2)
        initial_active = np.arange(0, small_powerlaw.num_vertices, 7)
        frontiers = self._frontiers(
            small_powerlaw,
            spec,
            source=0,
            initial_properties=cold.properties,
            initial_active=initial_active,
        )
        assert frontiers
        for frontier in frontiers:
            assert not np.shares_memory(frontier.active_ids, initial_active)
