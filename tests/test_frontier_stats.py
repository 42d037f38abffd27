"""Shared scatter-side statistics: immutable values, read only through the memo."""

import dataclasses
import enum
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import frontier_stats
from repro.graph import power_law_graph
from repro.vcpm import ALGORITHMS, run_vcpm

#: Every shared statistic with the arguments an observer passes.
_STATISTICS = [
    (frontier_stats.balanced_dispatch, (16, 128)),
    (frontier_stats.hash_dispatch, (16,)),
    (frontier_stats.vectorize_workloads, (16, 8)),
    (frontier_stats.vectorize_workloads, (None, 8)),
    (frontier_stats.plan_exact_prefetch, (True,)),
    (frontier_stats.plan_baseline_fetch, (True,)),
    (frontier_stats.grouped_duplicate_count, (8,)),
    (frontier_stats.warp_divergence, (32,)),
    (frontier_stats.mean_nonzero_degree, ()),
]


def _assert_immutable(value, path="value"):
    if isinstance(value, (bool, int, float, str, enum.Enum, type(None))):
        return
    if isinstance(value, np.ndarray):
        assert not value.flags.writeable, path
        if value.size:
            with pytest.raises(ValueError):
                value[0] = value[0]
        return
    if isinstance(value, tuple):
        for i, item in enumerate(value):
            _assert_immutable(item, f"{path}[{i}]")
        return
    assert dataclasses.is_dataclass(value), f"{path}: {type(value).__name__}"
    for field in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, None)
        _assert_immutable(getattr(value, field.name), f"{path}.{field.name}")


def _largest_sssp_frontier(graph):
    seen = []

    class Probe:
        def on_iteration(self, data):
            seen.append(data.frontier)

    run_vcpm(graph, ALGORITHMS["SSSP"], source=0, observers=[Probe()])
    return max(seen, key=lambda f: f.num_edges)


@pytest.fixture(scope="module")
def frontier(small_powerlaw):
    return _largest_sssp_frontier(small_powerlaw)


@pytest.mark.parametrize(
    "fn, args", _STATISTICS, ids=[fn.__name__ for fn, _ in _STATISTICS]
)
def test_memoized_values_are_immutable(frontier, fn, args):
    value = frontier.memo(fn, *args)
    assert frontier.memo(fn, *args) is value
    _assert_immutable(value)


def test_dst_loads_are_read_only(frontier):
    for width in (16, 128):
        loads = frontier.dst_loads(width)
        assert frontier.dst_loads(width) is loads
        _assert_immutable(loads)


@pytest.fixture(scope="module")
def wide_frontier():
    """V = 65,539 (prime): no width divides it."""
    return _largest_sssp_frontier(power_law_graph(65_539, 262_144, seed=5))


def test_dst_loads_match_bincount_on_run_frontier(frontier, wide_frontier):
    # V = 500 and V = 65,539: none of these widths divides either.
    cases = [
        (frontier, (3, 7, 128, 499, 501, 1000)),
        (wide_frontier, (8, 16, 128, 256)),
    ]
    for run_frontier, widths in cases:
        for width in widths:
            expected = np.bincount(run_frontier.edge_dst % width, minlength=width)
            loads = run_frontier.dst_loads(width)
            assert loads.dtype == expected.dtype
            np.testing.assert_array_equal(loads, expected)


_OBSERVER_FILES = (
    "graphdyns/timing.py",
    "dca/timing.py",
    "graphicionado/timing.py",
    "gpu/gunrock.py",
)

_SHARED_HELPERS = re.compile(
    r"\b(balanced_dispatch|hash_dispatch|plan_exact_prefetch|"
    r"plan_baseline_fetch|grouped_duplicate_count|warp_divergence)\s*\("
)


@pytest.mark.parametrize("relative", _OBSERVER_FILES)
def test_observers_read_shared_statistics_through_the_memo(relative):
    """The four timing observers call no shared helper directly.

    Each of these helpers is a function of the frontier alone, and one
    frontier is read by all four observers (and by all ten iterations of
    PR).  Called directly they were recomputed per observer and per
    iteration: on the cold Table-4 matrix of FR, PK and LJ that was 49.6M
    destinations of conflict counting instead of 34.5M, and DCA's observer
    took 0.28 s instead of 0.09 s of host time (median of 3 traced runs,
    2-vCPU Xeon).  ``frontier.memo(frontier_stats.<fn>, ...)`` computes
    each once.
    """
    source = (Path(repro.__file__).parent / relative).read_text()
    calls = [m.group(0) for m in _SHARED_HELPERS.finditer(source)]
    assert not calls, f"{relative} calls {calls}; use frontier.memo instead"
    assert re.search(r"\.memo\(\s*frontier_stats\.", source)
