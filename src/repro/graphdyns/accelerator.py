"""GraphDynS top-level accelerator model and public entry point.

:meth:`GraphDynS.run` is the one execution path: the vectorized
functional engine executes the algorithm while
:class:`~repro.graphdyns.timing.GraphDynSTimingModel` observes each
iteration, yielding a :class:`~repro.metrics.counters.RunReport` with
modeled cycles, traffic, utilization, and scheduling statistics.  The
Fig. 3 datapath (Dispatcher -> Prefetcher -> Processor -> crossbar ->
Updater) lives in that timing model's closed forms.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..graph.csr import CSRGraph
from ..metrics.counters import RunReport
from ..vcpm.engine import VCPMResult, run_vcpm
from ..vcpm.spec import AlgorithmSpec
from .config import DEFAULT_CONFIG, GraphDynSConfig
from .timing import GraphDynSTimingModel

__all__ = ["GraphDynS"]


class GraphDynS:
    """The accelerator: hardware/software co-design with dynamic scheduling."""

    def __init__(self, config: GraphDynSConfig = DEFAULT_CONFIG) -> None:
        self.config = config

    def run(
        self,
        graph: CSRGraph,
        spec: AlgorithmSpec,
        source: Optional[int] = 0,
        max_iterations: Optional[int] = None,
    ) -> Tuple[VCPMResult, RunReport]:
        """Execute ``spec`` on ``graph`` and model the hardware timing.

        Returns:
            The functional result (bit-exact properties, iteration trace)
            and the modeled :class:`RunReport`.
        """
        timing = GraphDynSTimingModel(graph, spec, self.config)
        result = run_vcpm(
            graph,
            spec,
            source=source,
            max_iterations=max_iterations,
            observers=[timing],
        )
        return result, timing.report()
