"""GraphDynS accelerator facade: what ``GraphDynS.run`` reports."""

import pytest

from repro.graph import power_law_graph
from repro.graphdyns import GraphDynS
from repro.vcpm import ALGORITHMS


@pytest.fixture(scope="module")
def walk_graph():
    return power_law_graph(250, 1200, seed=21, name="walk")


class TestRun:
    def test_scheduling_ops_below_edge_count(self, walk_graph):
        _, report = GraphDynS().run(walk_graph, ALGORITHMS["SSSP"], source=0)
        assert 0 < report.scheduling_ops < report.edges_processed

    def test_max_iterations_respected(self, walk_graph):
        result, report = GraphDynS().run(
            walk_graph, ALGORITHMS["CC"], max_iterations=2
        )
        assert result.num_iterations <= 2
        assert report.iterations == result.num_iterations

    def test_empty_graph(self):
        from repro.graph import CSRGraph

        result, _ = GraphDynS().run(CSRGraph.empty(0), ALGORITHMS["CC"])
        assert result.converged
        assert result.properties.size == 0
