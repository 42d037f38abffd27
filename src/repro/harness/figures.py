"""Regenerators for every figure of the paper's evaluation (Section 7).

Each ``figureN`` function returns a small result object carrying the raw
series plus a ``render()`` producing the rows/series the paper plots.  The
benchmark harness calls these; EXPERIMENTS.md records the outcomes against
the paper's numbers.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backends.builtin import GraphDynSBackend, GraphicionadoBackend
from ..core.scheduling import balanced_dispatch
from ..energy.components import GRAPHDYNS_BUDGET
from ..graph import datasets
from ..graph.properties import DEGREE_INTERVALS, degree_interval_counts
from ..graph.slicing import plan_slices
from ..graphdyns.config import DEFAULT_CONFIG
from ..graphicionado.config import GRAPHICIONADO_CONFIG
from ..vcpm.algorithms import algorithm_names, get_algorithm
from ..vcpm.engine import IterationData, run_vcpm
from .service import REAL_WORLD_KEYS, CellResult, RunService
from .io import geomean, render_table

__all__ = [
    "traffic_breakdown",
    "figure2",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14a",
    "figure14b",
    "figure14c",
    "figure14d",
    "figure14e",
    "figure14f",
]


# ----------------------------------------------------------------------
# Generic result container
# ----------------------------------------------------------------------
@dataclasses.dataclass
class FigureResult:
    """A reproduced figure: titled rows with named columns."""

    figure: str
    headers: List[str]
    rows: List[List[object]]
    notes: str = ""

    def render(self) -> str:
        table = render_table(self.headers, self.rows, title=self.figure)
        if self.notes:
            table += f"\n{self.notes}"
        return table


# ----------------------------------------------------------------------
# Traffic breakdown (supports the Fig. 12 discussion)
# ----------------------------------------------------------------------
def traffic_breakdown(
    service: Optional[RunService] = None,
    algorithm: str = "SSSP",
    graph_key: str = "LJ",
) -> FigureResult:
    """Per-region off-chip traffic of the three systems on one cell.

    Makes the Fig. 12 narrative concrete: GraphDynS pays extra *offset*
    traffic (Algorithm 2 reads the offset array each Apply phase) but wins
    it back several times over on edges (no src_vid) and vertex data
    (selective updates); Gunrock's sector-granular gathers dominate its
    column.
    """
    service = service or RunService()
    cell = service.cell(algorithm, graph_key)
    from ..memory.request import Region

    rows: List[List[object]] = []
    for region in Region:
        row: List[object] = [region.value]
        for system in ("Gunrock", "Graphicionado", "GraphDynS"):
            row.append(
                cell.reports[system].traffic.region_total(region) / 1e6
            )
        if any(isinstance(v, float) and v > 0 for v in row[1:]):
            rows.append(row)
    rows.append(
        [
            "TOTAL",
            *[
                cell.reports[s].traffic.total / 1e6
                for s in ("Gunrock", "Graphicionado", "GraphDynS")
            ],
        ]
    )
    return FigureResult(
        figure=f"Traffic breakdown by region, MB ({algorithm} on {graph_key})",
        headers=["region", "Gunrock", "Graphicionado", "GraphDynS"],
        rows=rows,
    )


# ----------------------------------------------------------------------
# Fig. 2 -- irregularity characterization
# ----------------------------------------------------------------------
class _Fig2Observer:
    """Collects active-degree histograms and update counts per iteration."""

    def __init__(self) -> None:
        self.rows: List[List[object]] = []

    def on_iteration(self, data: IterationData) -> None:
        counts = degree_interval_counts(data.active_degrees)
        self.rows.append([data.iteration + 1, *counts, data.num_modified])


def figure2(
    graph_key: str = "FR", algorithm: str = "SSSP", max_iterations: int = 25
) -> FigureResult:
    """Active vertices per degree interval and updates per iteration.

    The paper plots SSSP on Flickr: degree skew within every iteration
    (workload irregularity) and few updates relative to vertex count
    (update irregularity; 76% of iterations update <10% of vertices).

    Drives the engine directly rather than reading a cached cell: it
    reads each iteration's active-degree array, which no ``RunReport``
    carries.
    """
    graph = datasets.load(graph_key)
    spec = get_algorithm(algorithm)
    observer = _Fig2Observer()
    run_vcpm(
        graph, spec, source=0, observers=[observer], max_iterations=max_iterations
    )
    headers = ["iter"] + [
        f"deg[{lo},{'inf' if hi > 10**9 else hi}]" for lo, hi in DEGREE_INTERVALS
    ] + ["#updates"]
    return FigureResult(
        figure=f"Fig. 2: active-vertex degree intervals + updates "
        f"({algorithm} on {graph_key} proxy)",
        headers=headers,
        rows=observer.rows,
    )


# ----------------------------------------------------------------------
# Figs. 6/7/9/11/12/13 -- matrix figures over (algorithm x graph)
# ----------------------------------------------------------------------
def _matrix_figure(
    service: RunService,
    figure: str,
    value_headers: Sequence[str],
    cell_values,
    algorithms: Optional[Sequence[str]] = None,
    graph_keys: Optional[Sequence[str]] = None,
    gm_positive: bool = True,
) -> FigureResult:
    algorithms = list(algorithms or algorithm_names())
    graph_keys = list(graph_keys or REAL_WORLD_KEYS)
    rows: List[List[object]] = []
    series: Dict[str, List[float]] = {h: [] for h in value_headers}
    cells = iter(service.matrix(algorithms, graph_keys))
    for algorithm in algorithms:
        for graph_key in graph_keys:
            values = cell_values(next(cells))
            rows.append([algorithm, graph_key, *values])
            for header, value in zip(value_headers, values):
                series[header].append(value)
    gm_row: List[object] = ["GM", "-"]
    for header in value_headers:
        vals = [v for v in series[header] if v > 0]
        gm_row.append(geomean(vals) if (gm_positive and vals) else float("nan"))
    rows.append(gm_row)
    return FigureResult(
        figure=figure,
        headers=["algo", "graph", *value_headers],
        rows=rows,
    )


def figure6(
    service: Optional[RunService] = None,
    algorithms: Optional[Sequence[str]] = None,
    graph_keys: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Speedup over Gunrock (paper GM: Graphicionado ~2.3x, GraphDynS 4.4x)."""
    service = service or RunService()
    return _matrix_figure(
        service,
        "Fig. 6: speedup over Gunrock",
        ["Graphicionado", "GraphDynS"],
        lambda cell: [
            cell.speedup_over_gunrock("Graphicionado"),
            cell.speedup_over_gunrock("GraphDynS"),
        ],
        algorithms,
        graph_keys,
    )


def figure7(
    service: Optional[RunService] = None,
    algorithms: Optional[Sequence[str]] = None,
    graph_keys: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Throughput in GTEPS (paper GM: 8 / 21 / 43; peak 128)."""
    service = service or RunService()
    return _matrix_figure(
        service,
        "Fig. 7: throughput (GTEPS)",
        ["Gunrock", "Graphicionado", "GraphDynS"],
        lambda cell: [
            cell.reports["Gunrock"].gteps,
            cell.reports["Graphicionado"].gteps,
            cell.reports["GraphDynS"].gteps,
        ],
        algorithms,
        graph_keys,
    )


def figure8() -> FigureResult:
    """Power and area breakdown of GraphDynS (3.38 W, 12.08 mm^2)."""
    budget = GRAPHDYNS_BUDGET
    budget.validate()
    rows = [
        [
            name,
            budget.power_of(name),
            100.0 * budget.power_shares[name],
            budget.area_of(name),
            100.0 * budget.area_shares[name],
        ]
        for name in budget.power_shares
    ]
    rows.append(
        ["TOTAL", budget.total_power_w, 100.0, budget.total_area_mm2, 100.0]
    )
    return FigureResult(
        figure="Fig. 8: GraphDynS power/area breakdown",
        headers=["component", "power_w", "power_%", "area_mm2", "area_%"],
        rows=rows,
    )


def figure9(
    service: Optional[RunService] = None,
    algorithms: Optional[Sequence[str]] = None,
    graph_keys: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Energy normalized to Gunrock, in percent (paper GM: GraphDynS 8.6%)."""
    service = service or RunService()
    return _matrix_figure(
        service,
        "Fig. 9: energy normalized to Gunrock (%)",
        ["Graphicionado", "GraphDynS"],
        lambda cell: [
            100.0 * cell.energy_vs_gunrock("Graphicionado"),
            100.0 * cell.energy_vs_gunrock("GraphDynS"),
        ],
        algorithms,
        graph_keys,
    )


def figure10(
    service: Optional[RunService] = None,
    algorithms: Optional[Sequence[str]] = None,
    graph_keys: Optional[Sequence[str]] = None,
) -> FigureResult:
    """GraphDynS energy breakdown (paper: ~92% HBM, Processor 4%, Updater 3%)."""
    service = service or RunService()
    algorithms = list(algorithms or algorithm_names())
    graph_keys = list(graph_keys or REAL_WORLD_KEYS)
    components = ["Prefetcher", "Dispatcher", "Processor", "Updater", "HBM"]
    rows: List[List[object]] = []
    series: Dict[str, List[float]] = {c: [] for c in components}
    cells = iter(service.matrix(algorithms, graph_keys))
    for algorithm in algorithms:
        for graph_key in graph_keys:
            breakdown = next(cells).energy["GraphDynS"].breakdown()
            values = [100.0 * breakdown.get(c, 0.0) for c in components]
            rows.append([algorithm, graph_key, *values])
            for c, v in zip(components, values):
                series[c].append(v)
    rows.append(
        ["MEAN", "-", *[float(np.mean(series[c])) for c in components]]
    )
    return FigureResult(
        figure="Fig. 10: GraphDynS energy breakdown (%)",
        headers=["algo", "graph", *components],
        rows=rows,
    )


def figure11(
    service: Optional[RunService] = None,
    algorithms: Optional[Sequence[str]] = None,
    graph_keys: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Off-chip storage normalized to Gunrock (paper GM: 63% / 35%)."""
    service = service or RunService()
    return _matrix_figure(
        service,
        "Fig. 11: off-chip storage normalized to Gunrock (%)",
        ["Graphicionado", "GraphDynS"],
        lambda cell: [
            100.0
            * cell.reports["Graphicionado"].storage_bytes
            / cell.reports["Gunrock"].storage_bytes,
            100.0
            * cell.reports["GraphDynS"].storage_bytes
            / cell.reports["Gunrock"].storage_bytes,
        ],
        algorithms,
        graph_keys,
    )


def figure12(
    service: Optional[RunService] = None,
    algorithms: Optional[Sequence[str]] = None,
    graph_keys: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Memory accesses normalized to Gunrock (paper GM: 53% / 36%)."""
    service = service or RunService()
    return _matrix_figure(
        service,
        "Fig. 12: memory accesses normalized to Gunrock (%)",
        ["Graphicionado", "GraphDynS"],
        lambda cell: [
            100.0
            * cell.reports["Graphicionado"].traffic.normalized_to(
                cell.reports["Gunrock"].traffic
            ),
            100.0
            * cell.reports["GraphDynS"].traffic.normalized_to(
                cell.reports["Gunrock"].traffic
            ),
        ],
        algorithms,
        graph_keys,
    )


def figure13(
    service: Optional[RunService] = None,
    algorithms: Optional[Sequence[str]] = None,
    graph_keys: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Memory bandwidth utilization (paper GM: 31% / ~56% / 56%)."""
    service = service or RunService()
    return _matrix_figure(
        service,
        "Fig. 13: bandwidth utilization (%)",
        ["Gunrock", "Graphicionado", "GraphDynS"],
        lambda cell: [
            100.0 * cell.reports["Gunrock"].bandwidth_utilization,
            100.0 * cell.reports["Graphicionado"].bandwidth_utilization,
            100.0 * cell.reports["GraphDynS"].bandwidth_utilization,
        ],
        algorithms,
        graph_keys,
    )


# ----------------------------------------------------------------------
# Fig. 14 -- scheduling-optimization and scalability studies
# ----------------------------------------------------------------------
def figure14a(
    graph_key: str = "LJ",
    algorithms: Optional[Sequence[str]] = None,
    *,
    service: Optional[RunService] = None,
) -> FigureResult:
    """Scheduling-operation reduction from coarse-grained dispatch (~94%).

    Baseline: one scheduling decision per edge (fine-grained streaming).
    GraphDynS: one decision per whole small list / per sub-list.  Both
    counts are fields of the matrix cells' GraphDynS reports.
    """
    service = service or RunService()
    algorithms = list(algorithms or algorithm_names())
    rows: List[List[object]] = []
    reductions: List[float] = []
    for algorithm, cell in zip(
        algorithms, service.matrix(algorithms, [graph_key])
    ):
        report = cell.reports["GraphDynS"]
        fine_grained = report.edges_processed
        coarse = report.scheduling_ops
        reduction = 100.0 * (1.0 - coarse / max(fine_grained, 1))
        rows.append([algorithm, fine_grained, coarse, reduction])
        reductions.append(reduction)
    rows.append(["GM", "-", "-", geomean(reductions)])
    return FigureResult(
        figure=f"Fig. 14a: scheduling reduction on {graph_key} (%)",
        headers=["algo", "per-edge ops", "GraphDynS ops", "reduction_%"],
        rows=rows,
    )


class _Fig14bObserver:
    """Tracks per-PE normalized loads of the heaviest iterations.

    The paper plots the "several heaviest workload iterations"; iterations
    with only a handful of edges are not meaningful balance samples, so
    anything below ``min_edges`` is excluded.
    """

    def __init__(
        self, num_pes: int = 16, top_k: int = 8, min_edges: int = 4096
    ) -> None:
        self.num_pes = num_pes
        self.top_k = top_k
        self.min_edges = min_edges
        self._iterations: List[Tuple[int, np.ndarray]] = []

    def on_iteration(self, data: IterationData) -> None:
        if data.num_edges < self.min_edges:
            return
        outcome = balanced_dispatch(data.active_degrees, self.num_pes)
        self._iterations.append((data.num_edges, outcome.normalized_loads()))

    def heaviest(self) -> List[np.ndarray]:
        ranked = sorted(self._iterations, key=lambda kv: -kv[0])
        return [loads for _, loads in ranked[: self.top_k]]


def figure14b(
    graph_key: str = "LJ", algorithm: str = "SSWP"
) -> FigureResult:
    """Normalized per-PE workload in the heaviest iterations (~1.0).

    Drives the engine directly, as Fig. 2 does: it reads each iteration's
    active-degree array, which no ``RunReport`` carries.
    """
    graph = datasets.load(graph_key)
    spec = get_algorithm(algorithm)
    observer = _Fig14bObserver()
    run_vcpm(graph, spec, source=0, observers=[observer])
    rows: List[List[object]] = []
    for rank, loads in enumerate(observer.heaviest(), 1):
        rows.append([rank, *[float(x) for x in loads]])
    return FigureResult(
        figure=f"Fig. 14b: normalized per-PE workload ({algorithm} on {graph_key})",
        headers=["iter_rank", *[f"PE{i}" for i in range(16)]],
        rows=rows,
    )


#: The cumulative optimization points of Fig. 14c.
ABLATION_STEPS: List[Tuple[str, Dict[str, bool]]] = [
    ("WB", dict(workload_balance=True, exact_prefetch=False,
                atomic_optimization=False, update_scheduling=False)),
    ("WE", dict(workload_balance=True, exact_prefetch=True,
                atomic_optimization=False, update_scheduling=False)),
    ("WEA", dict(workload_balance=True, exact_prefetch=True,
                 atomic_optimization=True, update_scheduling=False)),
    ("WEAU", dict(workload_balance=True, exact_prefetch=True,
                  atomic_optimization=True, update_scheduling=True)),
]


def _ablation_cells(
    service: Optional[RunService],
    graph_key: str,
    algorithms: Sequence[str],
) -> List[CellResult]:
    """Graphicionado plus ``GraphDynS[<step>]`` per ablation step.

    Figs. 14c and 14d read the same sibling service, so they share one
    functional run per algorithm.
    """
    ablation = (service or RunService()).with_backends(
        [
            GraphicionadoBackend(),
            *[
                GraphDynSBackend(
                    DEFAULT_CONFIG.with_ablation(**switches)
                ).labelled(label)
                for label, switches in ABLATION_STEPS
            ],
        ]
    )
    return ablation.matrix(algorithms, [graph_key])


def figure14c(
    graph_key: str = "LJ",
    algorithms: Optional[Sequence[str]] = None,
    *,
    service: Optional[RunService] = None,
) -> FigureResult:
    """Ablation speedups vs Graphicionado (paper GM: WE 1.39, WEA 1.57, WEAU 1.8)."""
    algorithms = list(algorithms or algorithm_names())
    rows: List[List[object]] = []
    series: Dict[str, List[float]] = {label: [] for label, _ in ABLATION_STEPS}
    for algorithm, cell in zip(
        algorithms, _ablation_cells(service, graph_key, algorithms)
    ):
        base = cell.reports["Graphicionado"]
        values = []
        for label, _ in ABLATION_STEPS:
            speedup = cell.reports[f"GraphDynS[{label}]"].speedup_over(base)
            values.append(speedup)
            series[label].append(speedup)
        rows.append([algorithm, *values])
    rows.append(
        ["GM", *[geomean(series[label]) for label, _ in ABLATION_STEPS]]
    )
    return FigureResult(
        figure=f"Fig. 14c: ablation speedup vs Graphicionado on {graph_key}",
        headers=["algo", *[label for label, _ in ABLATION_STEPS]],
        rows=rows,
    )


def figure14d(
    graph_key: str = "LJ",
    algorithms: Optional[Sequence[str]] = None,
    *,
    service: Optional[RunService] = None,
) -> FigureResult:
    """Off-chip access reduction from EP (~30%) and US (~18%)."""
    algorithms = list(algorithms or algorithm_names())
    rows: List[List[object]] = []
    ep_series: List[float] = []
    us_series: List[float] = []
    for algorithm, cell in zip(
        algorithms, _ablation_cells(service, graph_key, algorithms)
    ):
        traffic = {
            label: cell.reports[f"GraphDynS[{label}]"].total_traffic_bytes
            for label, _ in ABLATION_STEPS
        }
        ep = 100.0 * (1.0 - traffic["WE"] / max(traffic["WB"], 1))
        us = 100.0 * (1.0 - traffic["WEAU"] / max(traffic["WEA"], 1))
        rows.append([algorithm, ep, us])
        ep_series.append(ep)
        us_series.append(us)
    rows.append(
        ["MEAN", float(np.mean(ep_series)), float(np.mean(us_series))]
    )
    return FigureResult(
        figure=f"Fig. 14d: access reduction on {graph_key} (%)",
        headers=["algo", "EP", "US"],
        rows=rows,
    )


def figure14e(
    graph_key: str = "LJ",
    algorithms: Optional[Sequence[str]] = None,
    ue_counts: Sequence[int] = (256, 128, 64, 32),
    *,
    service: Optional[RunService] = None,
) -> FigureResult:
    """Performance vs number of UEs, normalized to 128 (PR/CC degrade most)."""
    algorithms = list(algorithms or algorithm_names())
    scaling = (service or RunService()).with_backends(
        [
            GraphDynSBackend(DEFAULT_CONFIG.with_num_ues(n)).labelled(str(n))
            for n in ue_counts
        ]
    )
    rows: List[List[object]] = []
    for algorithm, cell in zip(
        algorithms, scaling.matrix(algorithms, [graph_key])
    ):
        cycles = {n: cell.reports[f"GraphDynS[{n}]"].cycles for n in ue_counts}
        rows.append(
            [
                algorithm,
                *[100.0 * cycles[128] / max(cycles[n], 1e-9) for n in ue_counts],
            ]
        )
    return FigureResult(
        figure=f"Fig. 14e: performance vs #UEs on {graph_key} (% of 128 UEs)",
        headers=["algo", *[str(n) for n in ue_counts]],
        rows=rows,
    )


def figure14f(
    rmat_keys: Sequence[str] = ("RM22", "RM23", "RM24", "RM25", "RM26"),
    algorithm: str = "PR",
    *,
    service: Optional[RunService] = None,
) -> FigureResult:
    """PR throughput across the RMAT scaling suite.

    The paper's trend: throughput declines gently once the temporary
    properties outgrow the Vertex Buffer and slicing kicks in; Graphicionado
    declines one scale later because its eDRAM is twice as large.  The RMAT
    proxies are 1024x smaller than the paper's scales 22-26 (DESIGN.md), so
    both buffer capacities are scaled by the same factor to stay in the
    same slicing regime.

    V and E come from the dataset registry, which for the RMAT proxies
    equals the built graph's sizes; the slice counts come from
    :func:`~repro.graph.slicing.plan_slices`, the call the timing models
    make.  No graph is built when every cell is cached.
    """
    scale_factor = 1024
    gds_config = dataclasses.replace(
        DEFAULT_CONFIG,
        vb_bytes_per_ue=max(DEFAULT_CONFIG.vb_bytes_per_ue // scale_factor, 64),
    )
    gio_config = dataclasses.replace(
        GRAPHICIONADO_CONFIG,
        edram_bytes=max(GRAPHICIONADO_CONFIG.edram_bytes // scale_factor, 128),
    )
    label = f"VB/{scale_factor}"
    scaled = (service or RunService()).with_backends(
        [
            GraphDynSBackend(gds_config).labelled(label),
            GraphicionadoBackend(gio_config).labelled(label),
        ]
    )
    rows: List[List[object]] = []
    for key, cell in zip(rmat_keys, scaled.matrix([algorithm], rmat_keys)):
        spec = datasets.get_spec(key)
        num_vertices = spec.proxy_vertices
        rows.append(
            [
                key,
                num_vertices,
                spec.proxy_edges,
                cell.reports[f"GraphDynS[{label}]"].gteps,
                cell.reports[f"Graphicionado[{label}]"].gteps,
                plan_slices(num_vertices, gds_config.vb_total_bytes).num_slices,
                plan_slices(num_vertices, gio_config.vb_capacity_bytes).num_slices,
            ]
        )
    return FigureResult(
        figure=f"Fig. 14f: {algorithm} throughput over RMAT scaling (GTEPS)",
        headers=[
            "graph", "V", "E", "GraphDynS", "Graphicionado",
            "GDS_slices", "GIO_slices",
        ],
        rows=rows,
    )
