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


#: Full issue groups are counted in blocks of about this many flits,
#: copied into one reused scratch array, so the working set stays
#: cache-sized and no array the size of the stream is allocated.
_BLOCK_FLITS = 1 << 16

#: Widest group counted by comparing columns pairwise (``w(w-1)/2``
#: compares per group); wider groups sort each row instead.
_COMPARE_MAX_WIDTH = 16


def grouped_duplicate_count(dst: np.ndarray, group_width: int) -> int:
    """Same-address collisions within each issue group of ``group_width``.

    Counts flits whose destination *vertex* (not just UE) already appears in
    the same issue group -- the read-after-write hazards a stall-on-conflict
    reducer pays for and the zero-stall Reduce Pipeline absorbs.  ``dst``
    holds integer vertex ids.

    Only flits of one group can collide.  The full groups are the rows of
    an ``(n // w, w)`` view, copied ``_BLOCK_FLITS`` at a time into one
    scratch array, which takes the stream's dtype: ``int32`` for a graph's
    ``int32`` ids, with no range check.  A wider stream is copied into an
    ``int32`` scratch until a block holds an id that does not fit (checked
    per block, while the block is in cache), and into ``int64`` from then
    on.

    * ``w <= _COMPARE_MAX_WIDTH``: the block is stored column-major and a
      flit conflicts when it equals an earlier flit of its row, so each
      shift ``d`` compares column ``j`` with column ``j - d`` for every
      ``j >= d`` at once and ORs the result into a per-flit flag;
    * wider groups: each row is sorted in place, and a row of ``k``
      distinct ids over ``w`` flits has ``w - k`` equal neighbours.

    The ``n % w`` tail is sorted on its own.  The count is exact.
    """
    dst = np.asarray(dst)
    n = dst.size
    if n == 0 or group_width < 2:
        return 0
    full = n - n % group_width
    tail = np.sort(dst[full:])
    count = int(np.count_nonzero(tail[1:] == tail[:-1]))
    if not full:
        return count
    rows = dst[:full].reshape(-1, group_width)
    block_rows = min(max(1, _BLOCK_FLITS // group_width), rows.shape[0])
    if group_width <= _COMPARE_MAX_WIDTH:
        count_block = _count_by_compare
        shape = (group_width, block_rows)  # column-major
    else:
        count_block = _count_by_sort
        shape = (block_rows, group_width)
    scratch = np.empty(shape, np.int32)
    checked = not np.can_cast(dst.dtype, np.int32)
    flags = np.empty((2, block_rows * group_width), dtype=bool)
    for start in range(0, rows.shape[0], block_rows):
        block = rows[start : start + block_rows]
        if checked and scratch.dtype == np.int32 and not _fits_int32(block):
            scratch = np.empty(shape, np.int64)  # for this and later blocks
        count += count_block(block, scratch, flags)
    return count


def _fits_int32(values: np.ndarray) -> bool:
    info = np.iinfo(np.int32)
    return bool(values.min() >= info.min and values.max() <= info.max)


def _count_by_compare(rows: np.ndarray, scratch: np.ndarray, flags: np.ndarray) -> int:
    """Flits equal to an earlier flit of their row, by column compares."""
    m, w = rows.shape
    cols = scratch[:, :m]
    cols[...] = rows.T
    equal, seen = flags[:, : w * m].reshape(2, w, m)
    seen[...] = False
    for d in range(1, w):
        # Column j against column j - d, for every j >= d at once.
        np.equal(cols[d:], cols[:-d], out=equal[d:])
        np.logical_or(seen[d:], equal[d:], out=seen[d:])
    return int(np.count_nonzero(seen))


def _count_by_sort(rows: np.ndarray, scratch: np.ndarray, flags: np.ndarray) -> int:
    """Equal neighbours within each row, sorted in place."""
    m, w = rows.shape
    block = scratch[:m]
    block[...] = rows
    block.sort(axis=1)
    flat = block.reshape(-1)
    equal = flags[0, : flat.size - 1]
    np.equal(flat[1:], flat[:-1], out=equal)
    # Pairs that straddle two rows are not in one group.
    return int(np.count_nonzero(equal) - np.count_nonzero(equal[w - 1 :: w]))


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
