"""Design-parameter sweeps (the configuration choices of Section 5.1.3).

The paper fixes ``nSIMT = 8``, ``eThreshold = 128``, ``eListSize = 16``,
``vListSize = 8``, and 1 bitmap bit per 256 vertices, each justified by a
sentence of analysis.  These sweeps regenerate the quantitative trade-offs
behind those choices so the ablation benchmarks can check them:

* :func:`sweep_e_threshold`   -- scheduling operations vs PE balance;
* :func:`sweep_n_simt`        -- lane efficiency vs lane count on real
  frontier degree distributions;
* :func:`sweep_bitmap_block`  -- Apply-work slack vs bitmap size;
* :func:`sweep_bandwidth`     -- end-to-end performance vs HBM bandwidth
  (the "half the memory bandwidth" headline);
* :func:`sweep_ue_queue_depth` -- micro-model backpressure vs FIFO depth.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.scheduling import balanced_dispatch
from ..core.update_bitmap import ReadyToUpdateBitmap
from ..core.vectorize import vectorize_workloads
from ..graph import datasets
from ..graphdyns.config import DEFAULT_CONFIG
from ..graphdyns.timing import GraphDynSTimingModel
from ..vcpm.algorithms import get_algorithm
from ..vcpm.engine import IterationData, run_vcpm
from .figures import FigureResult
from .resilience import RetryPolicy, retry_call

__all__ = [
    "SWEEPS",
    "run_sweeps",
    "sweep_e_threshold",
    "sweep_n_simt",
    "sweep_bitmap_block",
    "sweep_bandwidth",
]


class _FrontierCollector:
    """Stores (degrees, modified_ids) of every iteration of one run."""

    def __init__(self) -> None:
        self.degree_sets: List[np.ndarray] = []
        self.modified_sets: List[np.ndarray] = []
        self.num_vertices = 0

    def on_iteration(self, data: IterationData) -> None:
        if data.num_edges:
            self.degree_sets.append(data.active_degrees.copy())
        if data.num_modified:
            self.modified_sets.append(data.modified_ids.copy())
        self.num_vertices = data.num_vertices


def _collect(graph_key: str, algorithm: str) -> _FrontierCollector:
    """One direct engine run: the sweeps read every iteration's degree
    array, which no ``RunReport`` carries."""
    graph = datasets.load(graph_key)
    collector = _FrontierCollector()
    run_vcpm(
        graph, get_algorithm(algorithm), source=0, observers=[collector]
    )
    return collector


def sweep_e_threshold(
    graph_key: str = "LJ",
    algorithm: str = "SSSP",
    thresholds: Sequence[int] = (16, 32, 64, 128, 256, 512),
) -> FigureResult:
    """eThreshold trade-off: fewer scheduling ops vs residual imbalance.

    The paper picks 128 "to reduce the complexity of Dispatcher and
    workload imbalance due to high-degree active vertices": small
    thresholds split everything (many ops, perfect balance); huge
    thresholds never split (few ops, hash-like imbalance).
    """
    collector = _collect(graph_key, algorithm)
    rows: List[List[object]] = []
    for threshold in thresholds:
        total_ops = 0
        worst_imbalance = 1.0
        for degrees in collector.degree_sets:
            outcome = balanced_dispatch(degrees, e_threshold=threshold)
            total_ops += outcome.scheduling_ops
            if degrees.sum() >= 4096:  # balance only meaningful when busy
                worst_imbalance = max(worst_imbalance, outcome.imbalance)
        rows.append([threshold, total_ops, worst_imbalance])
    return FigureResult(
        figure=f"eThreshold sweep ({algorithm} on {graph_key})",
        headers=["eThreshold", "scheduling_ops", "worst_imbalance"],
        rows=rows,
    )


def sweep_n_simt(
    graph_key: str = "LJ",
    algorithm: str = "SSSP",
    lane_counts: Sequence[int] = (2, 4, 8, 16, 32),
    e_list_size: int = 16,
) -> FigureResult:
    """SIMT width trade-off on real frontier degree distributions.

    The paper picks 8 lanes because most active vertices have >5 neighbors
    (Fig. 2): wider vectors idle on short lists even with combining, while
    narrower ones waste peak throughput.
    """
    collector = _collect(graph_key, algorithm)
    rows: List[List[object]] = []
    for lanes in lane_counts:
        slot_sum = 0
        item_sum = 0
        for degrees in collector.degree_sets:
            chunks = np.minimum(degrees, e_list_size)
            stats = vectorize_workloads(chunks, lanes, combine_small=True)
            slot_sum += stats.issue_slots
            item_sum += stats.total_items
        efficiency = item_sum / (slot_sum * lanes) if slot_sum else 1.0
        peak = lanes * DEFAULT_CONFIG.num_pes
        rows.append([lanes, efficiency, peak, efficiency * peak])
    return FigureResult(
        figure=f"nSIMT sweep ({algorithm} on {graph_key})",
        headers=["nSIMT", "lane_efficiency", "peak_lanes", "effective_lanes"],
        rows=rows,
    )


def sweep_bitmap_block(
    graph_key: str = "LJ",
    algorithm: str = "BFS",
    block_sizes: Sequence[int] = (32, 64, 128, 256, 512, 1024),
) -> FigureResult:
    """Bitmap granularity trade-off: selection slack vs bitmap size.

    One bit per 256 vertices is the paper's pick: coarse enough that the
    bitmap stays tiny (256 entries per UE), fine enough that most
    unmodified vertices are still skipped.
    """
    collector = _collect(graph_key, algorithm)
    num_vertices = collector.num_vertices
    rows: List[List[object]] = []
    for block in block_sizes:
        scheduled = 0
        modified = 0
        for ids in collector.modified_sets:
            scheduled += ReadyToUpdateBitmap.scheduled_count(
                ids, num_vertices, block
            )
            modified += ids.size
        slack = scheduled - modified
        bitmap_bits = -(-num_vertices // block)
        reduction = 1.0 - scheduled / (
            len(collector.modified_sets) * num_vertices
        )
        rows.append([block, scheduled, slack, bitmap_bits, 100.0 * reduction])
    return FigureResult(
        figure=f"bitmap block-size sweep ({algorithm} on {graph_key})",
        headers=[
            "block", "scheduled", "slack", "bitmap_bits", "work_reduction_%",
        ],
        rows=rows,
    )


def sweep_bandwidth(
    graph_key: str = "LJ",
    algorithm: str = "PR",
    bandwidths_gbs: Sequence[float] = (128, 256, 512, 1024),
) -> FigureResult:
    """End-to-end GraphDynS performance vs HBM bandwidth.

    The headline claim runs GraphDynS at 512 GB/s against a 900 GB/s GPU;
    this sweep shows where the design saturates.
    """
    graph = datasets.load(graph_key)
    spec = get_algorithm(algorithm)
    models: Dict[float, GraphDynSTimingModel] = {}
    for gbs in bandwidths_gbs:
        hbm = dataclasses.replace(
            DEFAULT_CONFIG.hbm,
            name=f"HBM-{gbs:g}GB/s",
            peak_bytes_per_cycle=float(gbs),
        )
        config = dataclasses.replace(DEFAULT_CONFIG, hbm=hbm)
        models[gbs] = GraphDynSTimingModel(graph, spec, config)
    run_vcpm(
        graph, spec, source=0, observers=list(models.values())
    )
    rows: List[List[object]] = []
    for gbs in bandwidths_gbs:
        report = models[gbs].report()
        rows.append(
            [
                f"{gbs:g}",
                report.gteps,
                100.0 * report.bandwidth_utilization,
            ]
        )
    return FigureResult(
        figure=f"bandwidth sweep ({algorithm} on {graph_key})",
        headers=["GB/s", "GTEPS", "bw_util_%"],
        rows=rows,
    )


#: Named sweep registry consumed by the resilient driver below.
SWEEPS: Dict[str, Callable[..., FigureResult]] = {
    "e_threshold": sweep_e_threshold,
    "n_simt": sweep_n_simt,
    "bitmap_block": sweep_bitmap_block,
    "bandwidth": sweep_bandwidth,
}


def run_sweeps(
    names: Optional[Sequence[str]] = None,
    *,
    policy: Optional[RetryPolicy] = None,
    sleep: Callable[[float], None] = time.sleep,
    **kwargs,
) -> Dict[str, FigureResult]:
    """Run named sweeps under the resilience layer's retry policy.

    Each sweep replays a full functional run, so a transient failure
    (a flaky dataset load, an injected fault in a test) costs one
    retry, not the whole ablation campaign.  ``kwargs`` are forwarded
    to every sweep function (e.g. ``graph_key="FR"``).
    """
    selected = list(names) if names is not None else list(SWEEPS)
    unknown = [name for name in selected if name not in SWEEPS]
    if unknown:
        raise KeyError(
            f"unknown sweeps {unknown}; available: {sorted(SWEEPS)}"
        )
    results: Dict[str, FigureResult] = {}
    for name in selected:
        fn = functools.partial(SWEEPS[name], **kwargs)
        results[name] = retry_call(
            fn, policy=policy, label=f"sweep:{name}", sleep=sleep
        )
    return results
