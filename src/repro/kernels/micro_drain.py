"""Vectorized drain model for the Scatter micro-architecture replay.

:func:`repro.graphdyns.micro.simulate_scatter_microarch` advances PE
issue slots, crossbar FIFOs, and UE Reduce Pipelines one cycle at a
time.  The feedback in that loop -- back-pressure from a full UE FIFO
stalls the owning PE's remaining lanes -- only exists when some queue
actually fills.  Whenever it does not, the whole simulation collapses
into per-UE order statistics:

* element ``k`` of PE ``p`` arrives at its UE in cycle ``k // n_simt``
  (PEs issue a full ``n_simt`` lanes every cycle);
* a UE retires one op per cycle, so with sorted arrival cycles ``a`` the
  retire cycle of the ``i``-th op is the running-max recurrence
  ``r_i = max(a_i, r_{i-1} + 1)``, i.e. ``cummax(a - i) + i``;
* queue occupancy after the issue (resp. retire) stage of cycle ``t``
  is ``#{a <= t} - #{r < t}`` (resp. ``#{r <= t}``), both of which peak
  at arrival cycles and fall out of two ``searchsorted`` calls.

The kernel first *proves* the no-back-pressure assumption from that
schedule (a push attempt fails exactly when post-issue occupancy would
exceed the FIFO depth); if any queue would fill, it falls back to an
exact event-driven replay over integer queue depths (FIFO contents are
never inspected, only lengths).  Either way the returned
:class:`MicroScatterResult` is bit-identical to the deque-based model.
"""

from __future__ import annotations

import threading
import warnings
from typing import List, Sequence, Set

import numpy as np

from ..graphdyns.config import DEFAULT_CONFIG, GraphDynSConfig
from ..graphdyns.micro import MicroScatterResult

__all__ = ["KernelFallbackWarning", "simulate_scatter_microarch_vectorized"]


class KernelFallbackWarning(RuntimeWarning):
    """A closed-form kernel handed its input to the exact reference path.

    Raised once per distinct cause per process when an input is outside
    a kernel's supported envelope (FIFO back-pressure invalidating the
    closed-form drain schedule).  Results are bit-identical either way;
    the warning only flags that the fast path was not taken.
    """


_warn_lock = threading.Lock()
_warned: Set[str] = set()


def warn_fallback(key: str, message: str) -> None:
    """Emit ``KernelFallbackWarning`` once per distinct ``key`` per process."""
    with _warn_lock:
        if key in _warned:
            return
        _warned.add(key)
    warnings.warn(message, KernelFallbackWarning, stacklevel=3)


def reset_fallback_warnings() -> None:
    """Forget which fallbacks already warned (test isolation hook)."""
    with _warn_lock:
        _warned.clear()


def _drain_closed_form(
    ue: np.ndarray,
    arrival: np.ndarray,
    num_ues: int,
    ue_queue_depth: int,
):
    """``(cycles, max_occupancy)`` of the no-back-pressure schedule.

    Returns ``None`` when some push attempt would find a full FIFO, in
    which case the schedule is invalid and the event loop must run.
    """
    cycles = 0
    max_occupancy = 0
    for u in range(num_ues):
        a = np.sort(arrival[ue == u])
        if a.size == 0:
            continue
        k = np.arange(a.size, dtype=np.int64)
        retire = np.maximum.accumulate(a - k) + k
        cycles = max(cycles, int(retire[-1]) + 1)
        # Occupancy the i-th push leaves behind: pushes so far this
        # schedule minus ops retired in strictly earlier cycles.
        after_issue = (k + 1) - np.searchsorted(retire, a, side="left")
        if int(after_issue.max()) > ue_queue_depth:
            return None
        after_retire = (k + 1) - np.searchsorted(retire, a, side="right")
        max_occupancy = max(max_occupancy, int(after_retire.max()))
    return cycles, max_occupancy


def _drain_event_loop(
    ue_streams: List[List[int]],
    num_ues: int,
    n_simt: int,
    ue_queue_depth: int,
    total: int,
    max_cycles: int,
) -> MicroScatterResult:
    """Exact replay with back-pressure, tracking FIFO lengths only."""
    qlen = np.zeros(num_ues, dtype=np.int64)
    cursors = [0] * len(ue_streams)
    delivered = 0
    backpressure = 0
    max_occupancy = 0
    cycle = 0
    while delivered < total:
        if cycle >= max_cycles:
            raise RuntimeError("micro-model exceeded cycle budget")
        for pe, stream in enumerate(ue_streams):
            cursor = cursors[pe]
            issued = 0
            size = len(stream)
            while issued < n_simt and cursor < size:
                u = stream[cursor]
                if qlen[u] >= ue_queue_depth:
                    backpressure += 1
                    break
                qlen[u] += 1
                cursor += 1
                issued += 1
            cursors[pe] = cursor
        occupied = qlen > 0
        delivered += int(np.count_nonzero(occupied))
        qlen[occupied] -= 1
        occupancy = int(qlen.max()) if num_ues else 0
        if occupancy > max_occupancy:
            max_occupancy = occupancy
        cycle += 1
    return MicroScatterResult(
        cycles=cycle,
        results_delivered=delivered,
        backpressure_events=backpressure,
        max_ue_queue_occupancy=max_occupancy,
    )


def simulate_scatter_microarch_vectorized(
    pe_streams: Sequence[np.ndarray],
    config: GraphDynSConfig = DEFAULT_CONFIG,
    ue_queue_depth: int = 4,
    max_cycles: int = 10_000_000,
) -> MicroScatterResult:
    """Vectorized, bit-identical ``simulate_scatter_microarch``.

    When back-pressure invalidates the closed-form schedule the stream is
    replayed through the exact event loop, and that fallback is reported
    once per process as a :class:`KernelFallbackWarning` -- the closed
    form is the fast path and silently losing it used to be invisible.
    """
    num_ues = config.num_ues
    n_simt = config.n_simt
    streams = [np.asarray(s, dtype=np.int64) for s in pe_streams]
    total = int(sum(s.size for s in streams))
    if total == 0:
        return MicroScatterResult(
            cycles=0,
            results_delivered=0,
            backpressure_events=0,
            max_ue_queue_occupancy=0,
        )
    ue = np.concatenate([s % num_ues for s in streams])
    arrival = np.concatenate(
        [np.arange(s.size, dtype=np.int64) // n_simt for s in streams]
    )
    closed = _drain_closed_form(ue, arrival, num_ues, ue_queue_depth)
    if closed is not None:
        cycles, max_occupancy = closed
        if cycles > max_cycles:
            raise RuntimeError("micro-model exceeded cycle budget")
        return MicroScatterResult(
            cycles=cycles,
            results_delivered=total,
            backpressure_events=0,
            max_ue_queue_occupancy=max_occupancy,
        )
    warn_fallback(
        "micro_drain:closed-form-invalid",
        "Scatter micro-model: FIFO back-pressure invalidated the "
        "closed-form drain schedule; replaying the stream through the "
        "exact event loop instead. Results are identical; only the "
        "fast path was skipped.",
    )
    offsets = np.cumsum([0] + [s.size for s in streams])
    ue_streams = [
        ue[offsets[i]:offsets[i + 1]].tolist() for i in range(len(streams))
    ]
    return _drain_event_loop(
        ue_streams, num_ues, n_simt, ue_queue_depth, total, max_cycles
    )
