"""Backend abstraction: one uniform surface per modeled system.

A *backend* packages everything the harness needs to evaluate one
accelerator model on one (graph, algorithm) cell:

* a display ``name`` (the key used in figures and reports),
* an observer factory (``make_observer``) producing the system's timing
  model for one run of the functional VCPM engine,
* ``report``/``energy`` hooks turning that observer into the
  :class:`~repro.metrics.counters.RunReport` and
  :class:`~repro.energy.model.EnergyReport` every regenerator consumes,
* a stable ``config_digest`` so cached results are invalidated whenever
  the hardware configuration changes.

The physics stays in the system packages (``repro.graphdyns``,
``repro.graphicionado``, ``repro.gpu``); adapters in
:mod:`repro.backends.builtin` own only naming, config plumbing, and the
energy hookup.  Adding a fourth system is one adapter class plus one
:func:`repro.backends.registry.register` call.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from typing import Any, Optional, Protocol, Tuple, runtime_checkable

from ..energy.model import EnergyReport
from ..graph.csr import CSRGraph
from ..metrics.counters import RunReport
from ..vcpm.engine import IterationObserver, VCPMResult, run_vcpm
from ..vcpm.partitioned import run_vcpm_partitioned
from ..vcpm.spec import AlgorithmSpec

__all__ = ["Backend", "BaseBackend", "config_digest"]


def config_digest(config: Any) -> str:
    """Stable short digest of a (possibly nested) dataclass config.

    Used to key cached results: any field change — bandwidth, UE count,
    ablation switches — yields a different digest, so stale cache entries
    can never be mistaken for current ones.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = dataclasses.asdict(config)
    else:
        payload = config
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@runtime_checkable
class Backend(Protocol):
    """What the run service requires of an accelerator backend."""

    name: str

    def config_digest(self) -> str:
        """Digest of the hardware configuration (cache invalidation key)."""
        ...  # pragma: no cover - protocol

    def make_observer(
        self, graph: CSRGraph, spec: AlgorithmSpec
    ) -> IterationObserver:
        """A fresh timing model observing one functional run."""
        ...  # pragma: no cover - protocol

    def report(self, observer: IterationObserver) -> RunReport:
        """The finished observer's RunReport."""
        ...  # pragma: no cover - protocol

    def energy(self, report: RunReport) -> EnergyReport:
        """This system's energy integration of a RunReport."""
        ...  # pragma: no cover - protocol


class BaseBackend:
    """Shared plumbing for concrete backends.

    Subclasses set :attr:`name`, store their configuration in
    :attr:`config`, and implement :meth:`make_observer` and
    :meth:`energy`; everything else (digesting, reporting, standalone
    runs) is uniform.
    """

    name: str = "?"
    config: Any = None

    def config_digest(self) -> str:
        return config_digest(self.config)

    def make_observer(
        self, graph: CSRGraph, spec: AlgorithmSpec
    ) -> IterationObserver:
        raise NotImplementedError

    def report(self, observer: IterationObserver) -> RunReport:
        return observer.report()  # type: ignore[attr-defined]

    def energy(self, report: RunReport) -> EnergyReport:
        raise NotImplementedError

    def labelled(self, label: str) -> "BaseBackend":
        """A copy of this backend displayed as ``name[label]``.

        Lets one service run several configs of one system side by side
        (Fig. 14's ablation, UE and buffer-scaling studies): the label
        keeps the names in ``CellResult.reports`` unique, and through
        ``RunRequest.backends`` it keeps the cache addresses distinct.
        """
        twin = copy.copy(self)
        twin.name = f"{self.name}[{label}]"
        return twin

    def run(
        self,
        graph: CSRGraph,
        spec: AlgorithmSpec,
        source: Optional[int] = 0,
        max_iterations: Optional[int] = None,
        shards: int = 1,
    ) -> Tuple[VCPMResult, RunReport]:
        """Standalone single-system run (the CLI ``run`` path).

        ``shards > 1`` routes through the destination-sharded engine; the
        observer still sees the full merged iteration stream, so reports
        are identical to the unsharded path.
        """
        observer = self.make_observer(graph, spec)
        if shards > 1:
            result = run_vcpm_partitioned(
                graph,
                spec,
                shards=shards,
                source=source,
                max_iterations=max_iterations,
                observers=[observer],
            )
        else:
            result = run_vcpm(
                graph,
                spec,
                source=source,
                max_iterations=max_iterations,
                observers=[observer],
            )
        return result, self.report(observer)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} cfg={self.config_digest()}>"
