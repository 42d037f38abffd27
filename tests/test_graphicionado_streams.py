"""Component-level Graphicionado stream model tests.

Every behavioural test runs twice: the classes below drive the reduce
engines through :class:`StallingReducePipeline`, and their ``...Scalar``
subclasses rerun them with each engine replayed by the in-flight-slot
oracle, the op-by-op EXE/WB scan that the pipeline's last-issue-cycle map
replaced.
"""

import numpy as np
import pytest

import repro.graphicionado.streams as streams_module
from repro.graph import power_law_graph
from repro.graphicionado import GraphicionadoStreams
from repro.vcpm import ALGORITHMS, run_vcpm
from tests.test_core_reduce_pipeline import _original_stalling_run


@pytest.fixture(scope="module")
def stream_graph():
    return power_law_graph(200, 900, seed=41, name="streams")


def _finite_equal(a, b):
    return np.array_equal(
        np.nan_to_num(a, posinf=1e30, neginf=-1e30),
        np.nan_to_num(b, posinf=1e30, neginf=-1e30),
    )


def _streams(algo):
    return GraphicionadoStreams(ALGORITHMS[algo])


class _SlotOracleCase:
    """Swap the streams' reduce engine for the in-flight-slot oracle."""

    @pytest.fixture(autouse=True)
    def _slot_oracle(self, monkeypatch):
        runs = []

        class SlotOraclePipeline:
            def __init__(self, reduce_op):
                self.reduce_op = reduce_op

            def run(self, ops, vb=None):
                runs.append(len(ops))
                return _original_stalling_run(self.reduce_op, ops, vb=vb)

        monkeypatch.setattr(
            streams_module, "StallingReducePipeline", SlotOraclePipeline
        )
        yield
        assert runs, "the streams never reached a reduce engine"


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("algo", ["BFS", "SSSP", "CC", "SSWP"])
    def test_matches_engine(self, algo, stream_graph):
        engine = run_vcpm(stream_graph, ALGORITHMS[algo], source=0)
        streams = _streams(algo).run(stream_graph, source=0)
        assert streams.converged == engine.converged
        assert _finite_equal(streams.properties, engine.properties)

    def test_pagerank_matches(self, stream_graph):
        engine = run_vcpm(
            stream_graph, ALGORITHMS["PR"], max_iterations=4,
            pr_tolerance=0.0,
        )
        streams = _streams("PR").run(stream_graph, max_iterations=4)
        assert np.allclose(streams.properties, engine.properties)

    def test_edges_processed_match_engine(self, stream_graph):
        engine = run_vcpm(stream_graph, ALGORITHMS["SSSP"], source=0)
        streams = _streams("SSSP").run(stream_graph, source=0)
        assert streams.edges_processed == engine.total_edges_processed


class TestFunctionalEquivalenceScalar(_SlotOracleCase, TestFunctionalEquivalence):
    pass


class TestDocumentedInefficiencies:
    def test_sentinel_reads_one_per_active_vertex(self, stream_graph):
        engine = run_vcpm(stream_graph, ALGORITHMS["BFS"], source=0)
        streams = _streams("BFS").run(stream_graph, source=0)
        # One probe per non-terminal active vertex (the last vertex's list
        # ends the edge array, so it has no sentinel).
        assert 0 < streams.sentinel_reads <= engine.total_active_vertices

    def test_per_edge_scheduling(self, stream_graph):
        streams = _streams("BFS").run(stream_graph, source=0)
        assert streams.scheduling_ops == streams.edges_processed

    def test_full_vertex_apply(self, stream_graph):
        streams = _streams("BFS").run(stream_graph, source=0)
        assert streams.apply_operations == (
            streams.num_iterations * stream_graph.num_vertices
        )

    def test_atomic_stalls_on_contended_graph(self):
        # A funnel: many sources update one destination in each round.
        from repro.graph import CSRGraph

        edges = [(i, 50) for i in range(50)]
        graph = CSRGraph.from_edge_list(51, edges)
        streams = _streams("CC").run(graph)
        assert streams.atomic_stall_cycles > 0

    def test_graphdyns_has_fewer_scheduling_ops(self, stream_graph):
        from repro.graphdyns import GraphDynS

        streams = _streams("SSSP").run(stream_graph, source=0)
        _, report = GraphDynS().run(stream_graph, ALGORITHMS["SSSP"], source=0)
        assert report.scheduling_ops < streams.scheduling_ops


class TestDocumentedInefficienciesScalar(
    _SlotOracleCase, TestDocumentedInefficiencies
):
    pass
