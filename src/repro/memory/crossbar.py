"""Crossbar switch model (the Updater's 128-radix switch).

Every cycle the Processor emits up to ``issue_width`` edge results (128 SIMT
lanes); the crossbar routes each to the Updating Element owning the
destination vertex (``ue = dst % num_outputs``).  Each output accepts one
flit per cycle, so a cycle whose batch maps several results onto one UE
serializes on that output.

:meth:`Crossbar.route_batch` takes an iteration's per-output load vector --
the destination histogram folded to ``num_outputs`` -- and returns the
serialization cycles and conflict statistics (drives Fig. 14e, the
UE-count scaling study).
"""

from __future__ import annotations

import dataclasses

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

    def route_batch(self, loads: np.ndarray) -> CrossbarStats:
        """Route an iteration's flits, issue_width per cycle.

        ``loads[i]`` is the number of flits hashed to output ``i``
        (``IterationData.dst_loads(num_outputs)``).  The hardware has small
        FIFOs between crossbar outputs and UEs (Fig. 4d), so transient
        per-cycle collisions are absorbed and sustained throughput is bound
        by the *busiest output's total load*:
        ``cycles = max(num_groups, max_total_output_load)``.
        """
        loads = np.asarray(loads)
        if loads.shape != (self.num_outputs,):
            raise ValueError(
                f"{self.name}: expected {self.num_outputs} output loads, "
                f"got shape {loads.shape}"
            )
        n = int(loads.sum())
        if n == 0:
            return CrossbarStats(0, 0, 0, 0, 0)
        num_groups = -(-n // self.issue_width)
        max_total = int(loads.max())
        # Conflicts: flits beyond a perfectly even spread.
        conflict_flits = int((loads - -(-n // self.num_outputs)).clip(min=0).sum())
        return CrossbarStats(
            cycles=max(num_groups, max_total),
            flits=n,
            ideal_cycles=num_groups,
            max_output_load=max_total,
            conflict_flits=conflict_flits,
        )
