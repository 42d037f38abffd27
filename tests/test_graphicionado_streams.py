"""Component-level Graphicionado stream model tests.

Every behavioural test runs once per reduce-engine rendering: the
classes below use the vectorized kernel (the default), and their
``...Scalar`` subclasses rerun them on the scalar reference pipeline.
"""

import dataclasses

import numpy as np
import pytest

from repro.graph import power_law_graph
from repro.graphicionado import GraphicionadoStreams
from repro.vcpm import ALGORITHMS, run_vcpm


@pytest.fixture(scope="module")
def stream_graph():
    return power_law_graph(200, 900, seed=41, name="streams")


def _finite_equal(a, b):
    return np.array_equal(
        np.nan_to_num(a, posinf=1e30, neginf=-1e30),
        np.nan_to_num(b, posinf=1e30, neginf=-1e30),
    )


class _KernelCase:
    kernel = "vectorized"

    def streams(self, algo):
        return GraphicionadoStreams(ALGORITHMS[algo], kernel=self.kernel)


class TestFunctionalEquivalence(_KernelCase):
    @pytest.mark.parametrize("algo", ["BFS", "SSSP", "CC", "SSWP"])
    def test_matches_engine(self, algo, stream_graph):
        engine = run_vcpm(stream_graph, ALGORITHMS[algo], source=0)
        streams = self.streams(algo).run(
            stream_graph, source=0
        )
        assert streams.converged == engine.converged
        assert _finite_equal(streams.properties, engine.properties)

    def test_pagerank_matches(self, stream_graph):
        engine = run_vcpm(
            stream_graph, ALGORITHMS["PR"], max_iterations=4,
            pr_tolerance=0.0,
        )
        streams = self.streams("PR").run(
            stream_graph, max_iterations=4
        )
        assert np.allclose(streams.properties, engine.properties)

    def test_edges_processed_match_engine(self, stream_graph):
        engine = run_vcpm(stream_graph, ALGORITHMS["SSSP"], source=0)
        streams = self.streams("SSSP").run(
            stream_graph, source=0
        )
        assert streams.edges_processed == engine.total_edges_processed


class TestFunctionalEquivalenceScalar(TestFunctionalEquivalence):
    kernel = "scalar"


class TestDocumentedInefficiencies(_KernelCase):
    def test_sentinel_reads_one_per_active_vertex(self, stream_graph):
        engine = run_vcpm(stream_graph, ALGORITHMS["BFS"], source=0)
        streams = self.streams("BFS").run(
            stream_graph, source=0
        )
        # One probe per non-terminal active vertex (the last vertex's list
        # ends the edge array, so it has no sentinel).
        assert 0 < streams.sentinel_reads <= engine.total_active_vertices

    def test_per_edge_scheduling(self, stream_graph):
        streams = self.streams("BFS").run(
            stream_graph, source=0
        )
        assert streams.scheduling_ops == streams.edges_processed

    def test_full_vertex_apply(self, stream_graph):
        streams = self.streams("BFS").run(
            stream_graph, source=0
        )
        assert streams.apply_operations == (
            streams.num_iterations * stream_graph.num_vertices
        )

    def test_atomic_stalls_on_contended_graph(self):
        # A funnel: many sources update one destination in each round.
        from repro.graph import CSRGraph

        edges = [(i, 50) for i in range(50)]
        graph = CSRGraph.from_edge_list(51, edges)
        streams = self.streams("CC").run(graph)
        assert streams.atomic_stall_cycles > 0

    def test_graphdyns_has_fewer_scheduling_ops(self, stream_graph):
        from repro.graphdyns import GraphDynS

        streams = self.streams("SSSP").run(
            stream_graph, source=0
        )
        component = GraphDynS().run_component_level(
            stream_graph, ALGORITHMS["SSSP"], source=0
        )
        assert component.scheduling_ops < streams.scheduling_ops


class TestDocumentedInefficienciesScalar(TestDocumentedInefficiencies):
    kernel = "scalar"


class TestKernelChoice:
    @pytest.mark.parametrize("algo", ["BFS", "SSSP", "CC", "SSWP", "PR"])
    def test_renderings_agree_field_for_field(self, algo, stream_graph):
        runs = [
            GraphicionadoStreams(ALGORITHMS[algo], kernel=kernel).run(
                stream_graph, source=0, max_iterations=4
            )
            for kernel in ("scalar", "vectorized")
        ]
        scalar, vectorized = (dataclasses.asdict(r) for r in runs)
        assert _finite_equal(
            scalar.pop("properties"), vectorized.pop("properties")
        )
        assert scalar == vectorized

    def test_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="compiled"):
            GraphicionadoStreams(ALGORITHMS["BFS"], kernel="compiled")
