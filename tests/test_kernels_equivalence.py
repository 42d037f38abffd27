"""Property-based scalar-vs-vectorized kernel equivalence.

Every vectorized kernel in :mod:`repro.kernels` claims to be
*bit-identical* to its retained scalar reference.  These tests put that
claim under hypothesis: random op streams, random graphs, random PE
streams, and random access-pattern batches replay through every
rendering, and every observable field must match exactly -- no
``approx``.

The stalling pipeline additionally carries an embedded copy of the
*original* in-flight-slot simulator (the ``while any(...)`` walk this
PR replaced), so the O(1)-per-op scalar path and the closed-form kernel
are both checked against the pre-refactor semantics.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import StallingReducePipeline, ZeroStallReducePipeline
from repro.core.reduce_pipeline import ReduceResult
from repro.graph import CSRGraph
from repro.graphdyns.config import GraphDynSConfig
from repro.graphdyns.micro import simulate_scatter_microarch
from repro.kernels import (
    simulate_scatter_microarch_vectorized,
    split_ops,
    stalling_run,
    zero_stall_run,
)
from repro.memory.hbm import HBM1_512GBS, HBMModel
from repro.memory.request import AccessPattern, Region
from repro.vcpm import ALGORITHMS, run_optimized
from repro.vcpm.spec import ReduceOp

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
op_streams = st.lists(
    st.tuples(st.integers(0, 7), st.floats(0, 100, allow_nan=False)),
    max_size=80,
)

vb_dicts = st.dictionaries(
    st.integers(0, 9), st.floats(0, 100, allow_nan=False), max_size=5
)

weighted_graphs = st.integers(2, 16).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(0.1, 10, allow_nan=False),
            ),
            max_size=80,
        ),
    )
)

pe_streams_strategy = st.lists(
    st.lists(st.integers(0, 500), max_size=40), min_size=1, max_size=4
)

pattern_batches = st.lists(
    st.tuples(
        st.sampled_from(list(Region)),
        st.integers(0, 20_000),
        st.floats(1, 4096, allow_nan=False),
        st.booleans(),
    ),
    max_size=30,
)


def _original_stalling_run(
    reduce_op: ReduceOp,
    ops: Sequence[Tuple[int, float]],
    vb: Optional[Dict[int, float]] = None,
    identity: Optional[float] = None,
) -> ReduceResult:
    """The pre-refactor in-flight-slot simulator, kept as the oracle."""
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


# ----------------------------------------------------------------------
# Reduce Pipeline kernels
# ----------------------------------------------------------------------
class TestReduceKernels:
    @pytest.mark.parametrize("reduce_op", list(ReduceOp))
    @settings(max_examples=60, deadline=None)
    @given(ops=op_streams, vb=vb_dicts)
    def test_stalling_three_way(self, reduce_op, ops, vb):
        """Oracle == refactored scalar path == closed-form kernel."""
        oracle = _original_stalling_run(reduce_op, ops, vb=vb)
        scalar = StallingReducePipeline(reduce_op).run(ops, vb=vb)
        addrs, values = split_ops(ops)
        kernel = stalling_run(addrs, values, reduce_op, vb=vb)
        assert _as_tuple(oracle) == _as_tuple(scalar)
        assert _as_tuple(oracle) == _as_tuple(kernel)

    @pytest.mark.parametrize("reduce_op", list(ReduceOp))
    @settings(max_examples=60, deadline=None)
    @given(ops=op_streams, vb=vb_dicts)
    def test_zero_stall(self, reduce_op, ops, vb):
        scalar = ZeroStallReducePipeline(reduce_op).run(ops, vb=vb)
        addrs, values = split_ops(ops)
        kernel = zero_stall_run(addrs, values, reduce_op, vb=vb)
        assert _as_tuple(scalar) == _as_tuple(kernel)

    @settings(max_examples=40, deadline=None)
    @given(ops=op_streams)
    def test_custom_identity(self, ops):
        scalar = StallingReducePipeline(ReduceOp.MIN, identity=42.0).run(ops)
        addrs, values = split_ops(ops)
        kernel = stalling_run(addrs, values, ReduceOp.MIN, identity=42.0)
        assert _as_tuple(scalar) == _as_tuple(kernel)

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
                addrs, values = split_ops(ops)
                kernel = stalling_run(addrs, values, reduce_op)
                assert _as_tuple(oracle) == _as_tuple(scalar), ops
                assert _as_tuple(oracle) == _as_tuple(kernel), ops


# ----------------------------------------------------------------------
# Algorithm 2 batched kernel
# ----------------------------------------------------------------------
class TestBatchedAlgorithm2:
    @pytest.mark.parametrize("algo", ["BFS", "SSSP", "CC", "SSWP"])
    @settings(max_examples=25, deadline=None)
    @given(data=weighted_graphs)
    def test_random_graphs(self, algo, data):
        n, edges = data
        graph = CSRGraph.from_edge_list(
            n, [(s, d) for s, d, _ in edges], [w for _, _, w in edges]
        )
        scalar = run_optimized(graph, ALGORITHMS[algo], source=0)
        batched = run_optimized(graph, ALGORITHMS[algo], source=0, kernel="batched")
        self._assert_identical(scalar, batched)

    @settings(max_examples=15, deadline=None)
    @given(data=weighted_graphs)
    def test_pagerank(self, data):
        n, edges = data
        graph = CSRGraph.from_edge_list(
            n, [(s, d) for s, d, _ in edges], [w for _, _, w in edges]
        )
        scalar = run_optimized(graph, ALGORITHMS["PR"], max_iterations=5)
        batched = run_optimized(
            graph, ALGORITHMS["PR"], max_iterations=5, kernel="batched"
        )
        self._assert_identical(scalar, batched)

    def test_rejects_unknown_kernel(self, tiny_graph):
        with pytest.raises(ValueError):
            run_optimized(tiny_graph, ALGORITHMS["BFS"], kernel="simd")

    @staticmethod
    def _assert_identical(scalar, batched):
        # Bit-exact: infinities replaced only so array_equal treats
        # unreached-vertex sentinels as comparable values.
        assert np.array_equal(
            np.nan_to_num(scalar.properties, posinf=1e30),
            np.nan_to_num(batched.properties, posinf=1e30),
        )
        assert scalar.num_iterations == batched.num_iterations
        assert scalar.converged == batched.converged
        assert scalar.scatter_dispatches == batched.scatter_dispatches
        assert scalar.apply_dispatches == batched.apply_dispatches
        assert scalar.edges_processed == batched.edges_processed


# ----------------------------------------------------------------------
# Scatter micro-model drain kernel
# ----------------------------------------------------------------------
class TestMicroDrainKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        raw=pe_streams_strategy,
        n_simt=st.integers(1, 4),
        num_ues=st.integers(2, 8),
        depth=st.integers(1, 6),
    )
    def test_random_streams(self, raw, n_simt, num_ues, depth):
        streams = [np.asarray(s, dtype=np.int64) for s in raw]
        config = GraphDynSConfig(
            num_pes=len(streams), n_simt=n_simt, num_ues=num_ues
        )
        event = simulate_scatter_microarch(
            streams, config, ue_queue_depth=depth
        )
        fast = simulate_scatter_microarch_vectorized(
            streams, config, ue_queue_depth=depth
        )
        assert event == fast

    def test_cycle_budget_parity(self):
        """Both engines raise (or not) for the same tiny ``max_cycles``."""
        streams = [np.arange(64, dtype=np.int64)]
        config = GraphDynSConfig(num_pes=1, n_simt=2, num_ues=4)
        kwargs = dict(ue_queue_depth=64, max_cycles=3)
        with pytest.raises(RuntimeError):
            simulate_scatter_microarch(streams, config, **kwargs)
        with pytest.raises(RuntimeError):
            simulate_scatter_microarch_vectorized(streams, config, **kwargs)

    def test_engine_dispatch(self):
        streams = [np.arange(16, dtype=np.int64)]
        config = GraphDynSConfig(num_pes=1, n_simt=2, num_ues=4)
        event = simulate_scatter_microarch(streams, config, engine="event")
        routed = simulate_scatter_microarch(
            streams, config, engine="vectorized"
        )
        assert event == routed
        with pytest.raises(ValueError):
            simulate_scatter_microarch(streams, config, engine="fpga")


# ----------------------------------------------------------------------
# HBM batched servicing
# ----------------------------------------------------------------------
class TestHBMBatchKernel:
    @settings(max_examples=60, deadline=None)
    @given(batch=pattern_batches)
    def test_random_batches(self, batch):
        patterns = [
            AccessPattern(
                region=region,
                total_bytes=total,
                run_bytes=run,
                is_write=write,
            )
            for region, total, run, write in batch
        ]
        batched_model = HBMModel(HBM1_512GBS)
        scalar_model = HBMModel(HBM1_512GBS)
        got = batched_model.service(patterns)
        ref = scalar_model.service_scalar(patterns)
        assert got.cycles == ref.cycles
        assert got.total_bytes == ref.total_bytes
        assert got.ideal_cycles == ref.ideal_cycles
        assert got.bytes_by_region == ref.bytes_by_region
        # Accumulated model state must agree too.
        assert batched_model.total_cycles == scalar_model.total_cycles
        assert batched_model.bytes_by_region == scalar_model.bytes_by_region
        assert batched_model.read_bytes == scalar_model.read_bytes
        assert batched_model.write_bytes == scalar_model.write_bytes

    def test_empty_batch(self):
        model = HBMModel(HBM1_512GBS)
        result = model.service([])
        assert result.cycles == 0.0
        assert result.total_bytes == 0
