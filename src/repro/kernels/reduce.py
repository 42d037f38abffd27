"""Closed-form/array kernels for the Reduce Pipelines (Section 5.2.3).

The scalar models in :mod:`repro.core.reduce_pipeline` replay the op
stream cycle by cycle.  Both pipelines, however, admit exact closed
forms:

* **ZeroStall** never bubbles, so its cycle count is ``n + DEPTH - 1``
  and its Vertex Buffer outcome is the plain sequential fold -- which a
  grouped ``ufunc.at`` computes in the same left-to-right order the
  pipeline retires ops.
* **Stalling** bubbles only for same-address ops at pipeline distance 1
  or 2 (anything further back has already written back), so the stall
  count depends only on *last-occurrence distances*, not on replaying
  the in-flight slots.  Writing ``d_j`` for the cumulative stalls after
  op ``j`` issues, the recurrence is::

      d_j = d_{j-1} + 2                    if addr_j == addr_{j-1}
      d_j = max(d_{j-1}, d_{j-2} + 1)      if addr_j == addr_{j-2} only
      d_j = d_{j-1}                        otherwise

  The distance-2 case adds a bubble exactly when op ``j-1`` did not
  stall, so within a run of consecutive distance-2 conflicts the bubbles
  alternate -- which turns the whole recurrence into run-length
  bookkeeping over two shifted equality masks (the ``np.searchsorted``
  last-occurrence trick specialized to a depth-3 pipeline).

Both kernels return the same :class:`~repro.core.reduce_pipeline.
ReduceResult` as the scalar pipelines; equivalence is asserted
bit-exactly in ``tests/test_kernels_equivalence.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.reduce_pipeline import (
    ReduceResult,
    StallingReducePipeline,
    ZeroStallReducePipeline,
)
from ..vcpm.spec import ReduceOp

__all__ = [
    "split_ops",
    "fold_ops",
    "zero_stall_run",
    "stalling_cycle_model",
    "stalling_run",
]


def split_ops(
    ops: Sequence[Tuple[int, float]]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(address, value)`` tuples -> separate int64/float64 arrays."""
    n = len(ops)
    addrs = np.fromiter((op[0] for op in ops), dtype=np.int64, count=n)
    values = np.fromiter((op[1] for op in ops), dtype=np.float64, count=n)
    return addrs, values


def fold_ops(
    addrs: np.ndarray,
    values: np.ndarray,
    reduce_op: ReduceOp,
    vb: Optional[Dict[int, float]] = None,
    identity: Optional[float] = None,
) -> Dict[int, float]:
    """Sequential fold of an op stream into a Vertex Buffer dict.

    Grouped rendering of ``vb[a] = op.scalar(vb.get(a, identity), v)``:
    ``ufunc.at`` applies repeated indices in element order, so SUM
    accumulation order (and therefore every rounding step) matches the
    scalar loop exactly.
    """
    identity = reduce_op.identity if identity is None else identity
    out = dict(vb) if vb else {}
    addrs = np.asarray(addrs, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if addrs.size == 0:
        return out
    uniq, inverse = np.unique(addrs, return_inverse=True)
    acc = np.full(uniq.size, identity, dtype=np.float64)
    if out:
        keys = np.fromiter(out.keys(), dtype=np.int64, count=len(out))
        vals = np.fromiter(out.values(), dtype=np.float64, count=len(out))
        pos = np.searchsorted(uniq, keys)
        pos_clipped = np.minimum(pos, uniq.size - 1)
        present = uniq[pos_clipped] == keys
        acc[pos_clipped[present]] = vals[present]
    reduce_op.ufunc.at(acc, inverse, values)
    out.update(zip(uniq.tolist(), acc.tolist()))
    return out


def zero_stall_run(
    addrs: np.ndarray,
    values: np.ndarray,
    reduce_op: ReduceOp,
    vb: Optional[Dict[int, float]] = None,
    identity: Optional[float] = None,
) -> ReduceResult:
    """Vectorized :meth:`ZeroStallReducePipeline.run`.

    The forwarding paths make the pipeline sequentially consistent and
    stall-free, so the closed form is immediate: ``n + DEPTH - 1``
    cycles and the sequential fold as the VB outcome.
    """
    n = int(np.asarray(addrs).size)
    total_cycles = n + ZeroStallReducePipeline.DEPTH - 1 if n else 0
    return ReduceResult(
        cycles=total_cycles,
        ops=n,
        stall_cycles=0,
        vb=fold_ops(addrs, values, reduce_op, vb=vb, identity=identity),
    )


def stalling_cycle_model(addrs: np.ndarray) -> Tuple[int, int]:
    """``(cycles, stall_cycles)`` of the stall-on-conflict pipeline.

    Pure array computation over the two last-occurrence masks; see the
    module docstring for the derivation.
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    n = int(addrs.size)
    if n == 0:
        return 0, 0
    bubbles = np.zeros(n, dtype=np.int64)
    dist1 = np.zeros(n, dtype=bool)
    dist2 = np.zeros(n, dtype=bool)
    dist1[1:] = addrs[1:] == addrs[:-1]
    dist2[2:] = (addrs[2:] == addrs[:-2]) & ~dist1[2:]
    # Distance-1 conflicts always bubble twice (wait out EXE and WB).
    bubbles[dist1] = 2
    # Distance-2 conflicts bubble once iff the previous op issued with no
    # bubble of its own; inside a run of consecutive distance-2 conflicts
    # this alternates, seeded by whether the op before the run stalled.
    conflict_idx = np.flatnonzero(dist2)
    if conflict_idx.size:
        new_run = np.ones(conflict_idx.size, dtype=bool)
        new_run[1:] = np.diff(conflict_idx) > 1
        run_id = np.cumsum(new_run) - 1
        run_start = conflict_idx[new_run]
        pos_in_run = conflict_idx - run_start[run_id]
        # A run starts at index >= 2 and its predecessor is never itself
        # a distance-2 conflict, so it stalled iff it was a distance-1 hit.
        seed = np.where(dist1[run_start - 1], 0, 1)
        bubbles[conflict_idx] = (seed[run_id] + pos_in_run) % 2
    stalls = int(bubbles.sum())
    # One issue cycle per op, plus the two-cycle pipeline drain.
    return n + stalls + StallingReducePipeline.DEPTH - 1, stalls


def stalling_run(
    addrs: np.ndarray,
    values: np.ndarray,
    reduce_op: ReduceOp,
    vb: Optional[Dict[int, float]] = None,
    identity: Optional[float] = None,
) -> ReduceResult:
    """Vectorized :meth:`StallingReducePipeline.run`."""
    cycles, stalls = stalling_cycle_model(addrs)
    return ReduceResult(
        cycles=cycles,
        ops=int(np.asarray(addrs).size),
        stall_cycles=stalls,
        vb=fold_ops(addrs, values, reduce_op, vb=vb, identity=identity),
    )
