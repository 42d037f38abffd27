"""Experiment suite: run the evaluation matrix once, reuse everywhere.

Since the backend-registry refactor this module is a thin compatibility
layer over :mod:`repro.harness.service`: systems are resolved through
:mod:`repro.backends` instead of being hard-coded, and the heavy lifting
(memoization, persistent caching, parallel fan-out) lives in
:class:`~repro.harness.service.RunService`.  One functional run per
(algorithm, graph) still drives every backend's timing model
simultaneously, which both guarantees a fair comparison and keeps the
whole 5 x 6 matrix fast enough for the benchmark harness.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..backends.base import Backend
from ..graph.csr import CSRGraph
from ..graphdyns.config import DEFAULT_CONFIG, GraphDynSConfig
from .faults import FaultInjector
from .resilience import RetryPolicy
from .service import (
    REAL_WORLD_KEYS,
    CellResult,
    RunService,
    default_backends,
    execute_cell,
)

__all__ = [
    "CellResult",
    "ExperimentSuite",
    "REAL_WORLD_KEYS",
    "SYSTEMS",
    "run_cell",
]

#: System presentation order of the figures.
SYSTEMS: Tuple[str, ...] = ("Gunrock", "Graphicionado", "GraphDynS")


class ExperimentSuite:
    """Lazily-evaluated, memoized (algorithm x graph) result matrix.

    A facade over :class:`RunService` keeping the historical constructor
    while exposing the new caching/parallelism knobs.  ``resilience`` is
    the service's retry policy; ``faults``, ``manifest_path`` and
    ``resume`` pass straight through to it.
    """

    def __init__(
        self,
        graphdyns_config: GraphDynSConfig = DEFAULT_CONFIG,
        default_source: int = 0,
        *,
        backends: Optional[Sequence[Backend]] = None,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        jobs: int = 1,
        executor: str = "thread",
        storage: str = "memory",
        shards: int = 1,
        resilience: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        manifest_path: Optional[str] = None,
        resume: bool = False,
    ) -> None:
        self.graphdyns_config = graphdyns_config
        self.default_source = default_source
        self.service = RunService(
            backends=backends,
            backend_configs={"graphdyns": graphdyns_config},
            default_source=default_source,
            cache_dir=cache_dir,
            use_cache=use_cache,
            jobs=jobs,
            executor=executor,
            storage=storage,
            shards=shards,
            policy=resilience,
            faults=faults,
            manifest_path=manifest_path,
            resume=resume,
        )

    def cell(self, algorithm: str, graph_key: str) -> CellResult:
        """Run (or recall) one cell of the evaluation matrix."""
        return self.service.cell(algorithm, graph_key)

    def matrix(
        self,
        algorithms: Optional[Sequence[str]] = None,
        graph_keys: Optional[Sequence[str]] = None,
        jobs: Optional[int] = None,
    ) -> List[CellResult]:
        """All cells of the chosen sub-matrix, algorithm-major order."""
        return self.service.matrix(algorithms, graph_keys, jobs=jobs)


def run_cell(
    graph: CSRGraph,
    algorithm: str,
    graph_key: Optional[str] = None,
    source: int = 0,
    graphdyns_config: GraphDynSConfig = DEFAULT_CONFIG,
    backends: Optional[Sequence[Backend]] = None,
) -> CellResult:
    """Run every registered backend on one (graph, algorithm) pair."""
    if backends is None:
        backends = default_backends({"graphdyns": graphdyns_config})
    return execute_cell(
        graph, algorithm, graph_key=graph_key, source=source, backends=backends
    )
