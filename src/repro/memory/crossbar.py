"""Crossbar switch model (the Updater's 128-radix switch).

Every cycle the Processor emits up to ``issue_width`` edge results (128 SIMT
lanes); the crossbar routes each to the Updating Element owning the
destination vertex (``ue = dst % num_outputs``).  Each output accepts one
flit per cycle, so a cycle whose batch maps several results onto one UE
serializes on that output.

Two interfaces:

* :meth:`route_batch` -- exact vectorized replay of an iteration's whole
  destination stream, returning the serialization cycles and conflict
  statistics (drives Fig. 14e, the UE-count scaling study).
* :meth:`route` -- per-flit event interface used by the micro-model tests.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

__all__ = ["CrossbarStats", "Crossbar", "grouped_duplicate_count"]


def grouped_duplicate_count(dst: np.ndarray, group_width: int) -> int:
    """Same-address collisions within each issue group of ``group_width``.

    Counts flits whose destination *vertex* (not just UE) already appears in
    the same issue group -- the read-after-write hazards a stall-on-conflict
    reducer pays for and the zero-stall Reduce Pipeline absorbs.

    Only flits of one group can collide, so each group is sorted on its own:
    the full groups as the rows of an ``(n // w, w)`` view sorted along
    axis 1, the ``n % w`` tail separately.  A group of ``k`` distinct
    addresses over ``m`` flits has ``m - k`` equal sorted neighbours, so the
    count is exact at O(n log w) work.
    """
    dst = np.asarray(dst)
    n = dst.size
    if n == 0 or group_width < 2:
        return 0
    full = n - n % group_width
    rows = np.sort(dst[:full].reshape(-1, group_width), axis=1)
    tail = np.sort(dst[full:])
    return int(
        np.count_nonzero(rows[:, 1:] == rows[:, :-1])
        + np.count_nonzero(tail[1:] == tail[:-1])
    )


@dataclasses.dataclass
class CrossbarStats:
    """Outcome of routing a destination stream through the crossbar."""

    cycles: int
    flits: int
    ideal_cycles: int
    max_output_load: int
    conflict_flits: int

    @property
    def efficiency(self) -> float:
        """Ideal/actual cycle ratio; 1.0 means no output conflicts."""
        if self.cycles == 0:
            return 1.0
        return self.ideal_cycles / self.cycles

    @property
    def conflict_rate(self) -> float:
        """Fraction of flits that waited behind a same-output flit."""
        if self.flits == 0:
            return 0.0
        return self.conflict_flits / self.flits


class Crossbar:
    """An ``issue_width`` x ``num_outputs`` crossbar, one flit/output/cycle."""

    def __init__(self, num_outputs: int, issue_width: int, name: str = "xbar") -> None:
        if num_outputs < 1 or issue_width < 1:
            raise ValueError("num_outputs and issue_width must be >= 1")
        self.num_outputs = num_outputs
        self.issue_width = issue_width
        self.name = name
        self.total_flits = 0
        self.total_cycles = 0

    def output_of(self, dst_vertex: int) -> int:
        """Hash route: ``UE = vertex % num_outputs`` (Section 5.2.2)."""
        return dst_vertex % self.num_outputs

    def route_batch(
        self, dst_vertices: np.ndarray, elastic: bool = True
    ) -> CrossbarStats:
        """Route an iteration's destination stream, issue_width per cycle.

        With ``elastic=True`` (the hardware has small FIFOs between crossbar
        outputs and UEs, Fig. 4d), transient per-cycle collisions are
        absorbed and sustained throughput is bound by the *busiest output's
        total load*: ``cycles = max(num_groups, max_total_output_load)``.

        With ``elastic=False`` (no buffering), every issue group serializes
        on its most-contended output: ``cycles = sum(per_group_max)`` -- the
        pessimistic model used for sensitivity checks.
        """
        n = int(dst_vertices.size)
        if n == 0:
            return CrossbarStats(0, 0, 0, 0, 0)
        outputs = dst_vertices % self.num_outputs
        num_groups = -(-n // self.issue_width)
        total_loads = np.bincount(outputs, minlength=self.num_outputs)
        max_total = int(total_loads.max())
        if elastic:
            cycles = max(num_groups, max_total)
            # Conflicts: flits beyond a perfectly even spread.
            conflict_flits = int(
                (total_loads - -(-n // self.num_outputs)).clip(min=0).sum()
            )
            stats = CrossbarStats(
                cycles=cycles,
                flits=n,
                ideal_cycles=num_groups,
                max_output_load=max_total,
                conflict_flits=conflict_flits,
            )
        else:
            pad = num_groups * self.issue_width - n
            padded = outputs
            if pad:
                # Padding flits go to distinct virtual outputs so they
                # never add contention.
                padded = np.concatenate(
                    [outputs, np.full(pad, -1, dtype=np.int64)]
                )
            group_ids = np.repeat(
                np.arange(num_groups, dtype=np.int64), self.issue_width
            )
            valid = padded >= 0
            counts = np.zeros((num_groups, self.num_outputs), dtype=np.int32)
            np.add.at(counts, (group_ids[valid], padded[valid]), 1)
            per_group_max = counts.max(axis=1)
            cycles = int(per_group_max.sum())
            stats = CrossbarStats(
                cycles=cycles,
                flits=n,
                ideal_cycles=num_groups,
                max_output_load=int(per_group_max.max()),
                conflict_flits=int((counts - 1).clip(min=0).sum()),
            )
        self.total_flits += n
        self.total_cycles += stats.cycles
        return stats

    def route(self, cycle: int, dst_vertex: int, busy_until: Dict[int, int]) -> int:
        """Route one flit; ``busy_until`` tracks per-output availability.

        Returns the cycle the flit is delivered.  Used by event-driven
        micro-models and tests.
        """
        out = self.output_of(dst_vertex)
        start = max(cycle, busy_until.get(out, 0))
        busy_until[out] = start + 1
        self.total_flits += 1
        return start + 1
