"""Zero-stall Reduce Pipeline (Fig. 5) tests."""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    StallingReducePipeline,
    ZeroStallReducePipeline,
    count_raw_conflicts,
)
from repro.core.reduce_pipeline import ReduceResult
from repro.vcpm.spec import ReduceOp

op_streams = st.lists(
    st.tuples(st.integers(0, 7), st.floats(0, 100, allow_nan=False)),
    max_size=80,
)

vb_dicts = st.dictionaries(
    st.integers(0, 9), st.floats(0, 100, allow_nan=False), max_size=5
)


def sequential_fold(op: ReduceOp, ops, initial=None):
    vb = dict(initial or {})
    for addr, value in ops:
        vb[addr] = op.scalar(vb.get(addr, op.identity), value)
    return vb


class TestZeroStall:
    @pytest.mark.parametrize("op", list(ReduceOp))
    def test_matches_sequential_fold(self, op):
        rng = np.random.default_rng(1)
        ops = [
            (int(a), float(v))
            for a, v in zip(rng.integers(0, 6, 300), rng.random(300))
        ]
        result = ZeroStallReducePipeline(op).run(ops)
        assert result.vb == sequential_fold(op, ops)

    def test_never_stalls(self):
        ops = [(0, 1.0)] * 100  # worst case: every op hits one address
        result = ZeroStallReducePipeline(ReduceOp.SUM).run(ops)
        assert result.stall_cycles == 0
        assert result.cycles == 100 + 2  # fill + drain only
        assert result.vb == {0: 100.0}

    def test_back_to_back_forwarding(self):
        # Distance-1 hazard: EXE-stage forwarding path.
        ops = [(5, 1.0), (5, 1.0)]
        result = ZeroStallReducePipeline(ReduceOp.SUM).run(ops)
        assert result.vb == {5: 2.0}

    def test_distance_two_forwarding(self):
        # Distance-2 hazard: RD-stage forwarding path.
        ops = [(5, 1.0), (9, 1.0), (5, 1.0)]
        result = ZeroStallReducePipeline(ReduceOp.SUM).run(ops)
        assert result.vb[5] == 2.0

    def test_initial_vb_respected(self):
        result = ZeroStallReducePipeline(ReduceOp.MIN).run(
            [(0, 5.0)], vb={0: 2.0}
        )
        assert result.vb[0] == 2.0

    def test_empty_stream(self):
        result = ZeroStallReducePipeline(ReduceOp.MIN).run([])
        assert result.cycles == 0
        assert result.throughput == 1.0

    def test_throughput_approaches_one(self):
        ops = [(i % 3, 1.0) for i in range(1000)]
        result = ZeroStallReducePipeline(ReduceOp.SUM).run(ops)
        assert result.throughput > 0.99


class TestStalling:
    @pytest.mark.parametrize("op", list(ReduceOp))
    def test_correct_despite_stalls(self, op):
        rng = np.random.default_rng(2)
        ops = [
            (int(a), float(v))
            for a, v in zip(rng.integers(0, 4, 200), rng.random(200))
        ]
        result = StallingReducePipeline(op).run(ops)
        assert result.vb == sequential_fold(op, ops)

    def test_hot_address_stalls_heavily(self):
        ops = [(0, 1.0)] * 50
        result = StallingReducePipeline(ReduceOp.SUM).run(ops)
        assert result.stall_cycles > 50  # ~2 bubbles per op
        assert result.vb == {0: 50.0}

    def test_conflict_free_stream_no_stalls(self):
        ops = [(i, 1.0) for i in range(50)]
        result = StallingReducePipeline(ReduceOp.SUM).run(ops)
        assert result.stall_cycles == 0

    def test_zero_stall_always_at_least_as_fast(self):
        rng = np.random.default_rng(3)
        ops = [
            (int(a), float(v))
            for a, v in zip(rng.integers(0, 8, 300), rng.random(300))
        ]
        fast = ZeroStallReducePipeline(ReduceOp.MIN).run(ops)
        slow = StallingReducePipeline(ReduceOp.MIN).run(ops)
        assert fast.cycles <= slow.cycles
        assert fast.vb == slow.vb


def _original_stalling_run(
    reduce_op: ReduceOp,
    ops: Sequence[Tuple[int, float]],
    vb: Optional[Dict[int, float]] = None,
    identity: Optional[float] = None,
) -> ReduceResult:
    """The in-flight-slot simulator, kept as the oracle.

    Walks the EXE and WB slots op by op (the ``while any(...)`` scan that
    :class:`StallingReducePipeline`'s last-issue-cycle map replaced).
    """
    identity = reduce_op.identity if identity is None else identity
    vb = dict(vb) if vb else {}
    in_flight: List[Optional[Tuple[int, float]]] = [None, None]  # EXE, WB
    cycles = 0
    stalls = 0

    def drain_one() -> None:
        wb = in_flight[1]
        if wb is not None:
            addr, operand_value = wb
            vb[addr] = reduce_op.scalar(vb.get(addr, identity), operand_value)
        in_flight[1] = in_flight[0]
        in_flight[0] = None

    for addr, value in ops:
        while any(slot is not None and slot[0] == addr for slot in in_flight):
            drain_one()
            cycles += 1
            stalls += 1
        drain_one()
        in_flight[0] = (addr, value)
        cycles += 1

    while any(slot is not None for slot in in_flight):
        drain_one()
        cycles += 1

    return ReduceResult(cycles=cycles, ops=len(ops), stall_cycles=stalls, vb=vb)


def _as_tuple(result: ReduceResult):
    return (result.cycles, result.ops, result.stall_cycles, result.vb)


class TestStallingOracle:
    """The O(1)-per-op pipeline equals the in-flight-slot oracle exactly."""

    @pytest.mark.parametrize("reduce_op", list(ReduceOp))
    @settings(max_examples=60, deadline=None)
    @given(ops=op_streams, vb=vb_dicts)
    def test_matches_oracle(self, reduce_op, ops, vb):
        oracle = _original_stalling_run(reduce_op, ops, vb=vb)
        scalar = StallingReducePipeline(reduce_op).run(ops, vb=vb)
        assert _as_tuple(oracle) == _as_tuple(scalar)

    @settings(max_examples=40, deadline=None)
    @given(ops=op_streams)
    def test_custom_identity(self, ops):
        oracle = _original_stalling_run(ReduceOp.MIN, ops, identity=42.0)
        scalar = StallingReducePipeline(ReduceOp.MIN, identity=42.0).run(ops)
        assert _as_tuple(oracle) == _as_tuple(scalar)

    def test_adversarial_distance_patterns(self):
        """Deterministic streams covering every conflict regime."""
        streams = [
            [],
            [(3, 1.0)],
            [(3, 1.0)] * 10,  # solid distance-1 run
            [(1, 1.0), (2, 1.0)] * 10,  # solid distance-2 run
            [(1, 1.0), (1, 2.0), (2, 1.0), (1, 3.0), (2, 2.0)],  # mixed
            [(5, 1.0), (6, 1.0), (5, 2.0), (5, 3.0), (6, 2.0), (7, 1.0)],
        ]
        for ops in streams:
            for reduce_op in ReduceOp:
                oracle = _original_stalling_run(reduce_op, ops)
                scalar = StallingReducePipeline(reduce_op).run(ops)
                assert _as_tuple(oracle) == _as_tuple(scalar), ops


class TestConflictCounting:
    def test_adjacent_conflict(self):
        assert count_raw_conflicts(np.array([1, 1, 2]), depth=2) == 1

    def test_depth_window(self):
        dst = np.array([1, 2, 1])
        assert count_raw_conflicts(dst, depth=1) == 0
        assert count_raw_conflicts(dst, depth=2) == 1

    def test_uniform_stream(self):
        assert count_raw_conflicts(np.full(10, 3), depth=2) == 17

    def test_empty_and_single(self):
        assert count_raw_conflicts(np.array([]), 2) == 0
        assert count_raw_conflicts(np.array([1]), 2) == 0
