"""Shared fixtures: small deterministic graphs reused across test modules."""

import pytest

from repro.graph import (
    CSRGraph,
    chain_graph,
    grid_graph,
    power_law_graph,
    star_graph,
)


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/ from the current implementation "
        "instead of comparing against it",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    return request.config.getoption("--update-goldens")


@pytest.fixture(scope="session")
def tiny_graph() -> CSRGraph:
    """The 7-vertex example spirit of Fig. 1: small, weighted, irregular."""
    edges = [
        (0, 1), (0, 2), (0, 3),
        (1, 3), (1, 4),
        (2, 4),
        (3, 5),
        (4, 5), (4, 6),
        (5, 6),
    ]
    weights = [3.0, 99.0, 1.0, 2.0, 8.0, 5.0, 4.0, 1.0, 7.0, 2.0]
    return CSRGraph.from_edge_list(7, edges, weights, name="tiny")


@pytest.fixture(scope="session")
def small_powerlaw() -> CSRGraph:
    """500 vertices, 4000 edges; big enough to exercise skew."""
    return power_law_graph(500, 4000, seed=11, name="small_pl")


@pytest.fixture(scope="session")
def medium_powerlaw() -> CSRGraph:
    """5k vertices, 60k edges; used by timing-model integration tests."""
    return power_law_graph(5000, 60000, seed=13, name="medium_pl")


@pytest.fixture(scope="session")
def small_grid() -> CSRGraph:
    return grid_graph(8, 8)


@pytest.fixture(scope="session")
def small_chain() -> CSRGraph:
    return chain_graph(50)


@pytest.fixture(scope="session")
def small_star() -> CSRGraph:
    return star_graph(40)


@pytest.fixture(scope="session")
def disconnected_graph() -> CSRGraph:
    """Two components: a triangle and a 2-cycle, plus an isolated vertex."""
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)]
    return CSRGraph.from_edge_list(6, edges, name="disconnected")
