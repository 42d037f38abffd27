"""Cross-engine validation: every execution path computes the same thing.

The repository has four ways to execute a VCPM algorithm:

1. the vectorized functional engine (Algorithm 1),
2. the scalar optimized programming model (Algorithm 2),
3. pull mode,
4. functionally-sliced mode.

They exist for different purposes (speed, fidelity, validation), but they
must agree bit-for-bit on properties.  This module sweeps random graphs
through all four and reports any divergence: the repository's
self-check, exposed as ``python -m repro validate``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.generators import power_law_graph, uniform_random_graph
from ..vcpm.algorithms import ALGORITHMS
from ..vcpm.engine import run_vcpm
from ..vcpm.optimized import run_optimized
from ..vcpm.pull import run_vcpm_pull
from ..vcpm.sliced import run_vcpm_sliced

__all__ = ["ValidationOutcome", "validate_engines", "validate_all"]


@dataclasses.dataclass(frozen=True)
class ValidationOutcome:
    """Result of one (graph, algorithm) cross-engine check."""

    graph_name: str
    algorithm: str
    engines_checked: int
    agreed: bool
    detail: str = ""


def _canon(properties: np.ndarray) -> np.ndarray:
    return np.nan_to_num(properties, posinf=1e30, neginf=-1e30)


def validate_engines(
    graph: CSRGraph,
    algorithm: str,
    source: int = 0,
    max_iterations: Optional[int] = None,
) -> ValidationOutcome:
    """Run every engine on one graph and compare properties."""
    spec = ALGORITHMS[algorithm.upper()]
    kwargs = {}
    if spec.resets_tprop_each_iteration:
        max_iterations = max_iterations or 5
        kwargs["pr_tolerance"] = 0.0

    baseline = run_vcpm(
        graph, spec, source=source, max_iterations=max_iterations, **kwargs
    )
    reference = _canon(baseline.properties)

    candidates = {
        "optimized": run_optimized(
            graph, spec, source=source, max_iterations=max_iterations,
            **({"pr_tolerance": 0.0} if "pr_tolerance" in kwargs else {}),
        ).properties,
        "pull": run_vcpm_pull(
            graph, spec, source=source, max_iterations=max_iterations, **kwargs
        ).properties,
        "sliced": run_vcpm_sliced(
            graph, spec, vb_capacity_bytes=max(graph.num_vertices, 8),
            source=source, max_iterations=max_iterations, **kwargs
        ).properties,
    }

    for name, properties in candidates.items():
        got = _canon(properties)
        if not np.allclose(got, reference, rtol=1e-9, atol=1e-12):
            worst = int(np.argmax(np.abs(got - reference)))
            return ValidationOutcome(
                graph_name=graph.name,
                algorithm=spec.name,
                engines_checked=len(candidates) + 1,
                agreed=False,
                detail=(
                    f"{name} diverges at vertex {worst}: "
                    f"{got[worst]} vs {reference[worst]}"
                ),
            )
    return ValidationOutcome(
        graph_name=graph.name,
        algorithm=spec.name,
        engines_checked=len(candidates) + 1,
        agreed=True,
    )


def validate_all(
    seeds: int = 3,
    vertices: int = 200,
    edges: int = 1000,
) -> List[ValidationOutcome]:
    """The full self-check: every algorithm on a battery of random graphs."""
    outcomes: List[ValidationOutcome] = []
    for seed in range(seeds):
        for make in (power_law_graph, uniform_random_graph):
            graph = make(
                vertices, edges, seed=seed,
                name=f"{make.__name__}-{seed}",
            )
            for algorithm in ALGORITHMS:
                outcomes.append(validate_engines(graph, algorithm))
    return outcomes
