"""Event-driven micro-model of one Scatter phase.

The per-iteration timing layer (:mod:`repro.graphdyns.timing`) uses
closed-form contention maxima.  This module replays the same Scatter phase
through an explicit cycle-by-cycle pipeline -- PE issue slots, crossbar
arbitration, one-op-per-cycle Reduce Pipelines with elastic FIFOs -- so the
analytic model can be validated against an exact simulation on small
inputs (see ``tests/test_graphdyns_micro.py``).

The model:

* each PE issues up to ``n_simt`` edge results per cycle from its workload
  queue;
* each result routes to UE ``dst % num_ues`` through a bounded FIFO
  (``ue_queue_depth`` entries); a full FIFO back-pressures the PE, which
  re-tries the remaining lanes next cycle;
* each UE retires one result per cycle (the zero-stall Reduce Pipeline).

Cycle counts therefore reflect issue bandwidth, UE serialization, and
finite buffering -- the three effects the elastic crossbar formula
``max(groups, max_ue_load)`` approximates.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, List, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, GraphDynSConfig

__all__ = ["MicroScatterResult", "simulate_scatter_microarch"]


@dataclasses.dataclass(frozen=True)
class MicroScatterResult:
    """Outcome of the event-driven Scatter replay."""

    cycles: int
    results_delivered: int
    backpressure_events: int
    max_ue_queue_occupancy: int

    @property
    def throughput(self) -> float:
        """Edge results retired per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.results_delivered / self.cycles


def simulate_scatter_microarch(
    pe_streams: Sequence[np.ndarray],
    config: GraphDynSConfig = DEFAULT_CONFIG,
    ue_queue_depth: int = 4,
    max_cycles: int = 10_000_000,
) -> MicroScatterResult:
    """Replay destination streams through the issue/crossbar/UE pipeline.

    Args:
        pe_streams: for each PE, the destination vertex ids of its edge
            results in processing order (what the Dispatcher + S2V
            produced).
        config: hardware geometry (lane count, UE count).
        ue_queue_depth: FIFO entries between each crossbar output and its
            Reduce Pipeline.
        max_cycles: safety bound.
    """
    num_ues = config.num_ues
    n_simt = config.n_simt
    queues: List[Deque[int]] = [deque() for _ in range(num_ues)]
    cursors = [0] * len(pe_streams)
    streams = [np.asarray(s, dtype=np.int64) for s in pe_streams]
    total = int(sum(s.size for s in streams))

    delivered = 0
    backpressure = 0
    max_occupancy = 0
    cycle = 0

    while delivered < total:
        if cycle >= max_cycles:
            raise RuntimeError("micro-model exceeded cycle budget")
        # Issue stage: each PE pushes up to n_simt results, stopping at the
        # first full UE queue (in-order lanes).
        for pe, stream in enumerate(streams):
            issued = 0
            while issued < n_simt and cursors[pe] < stream.size:
                dst = int(stream[cursors[pe]])
                queue = queues[dst % num_ues]
                if len(queue) >= ue_queue_depth:
                    backpressure += 1
                    break
                queue.append(dst)
                cursors[pe] += 1
                issued += 1
        # Retire stage: every UE's Reduce Pipeline takes one op per cycle.
        for queue in queues:
            if queue:
                queue.popleft()
                delivered += 1
        max_occupancy = max(
            max_occupancy, max((len(q) for q in queues), default=0)
        )
        cycle += 1

    return MicroScatterResult(
        cycles=cycle,
        results_delivered=delivered,
        backpressure_events=backpressure,
        max_ue_queue_occupancy=max_occupancy,
    )
