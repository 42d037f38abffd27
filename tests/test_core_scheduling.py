"""Workload-balanced dispatch (Section 5.1.1) tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import balanced_dispatch, hash_dispatch, per_vertex_dispatch_ops


def _chunk_loop_reference(degrees, num_pes, e_threshold):
    """Oracle: deal every chunk, one at a time, to PE ``k % num_pes``."""
    loads = [0] * num_pes
    k = 0
    for degree in degrees:
        chunks = max(-(-degree // e_threshold), 1)
        base, extra = divmod(degree, chunks)
        for j in range(chunks):
            loads[k % num_pes] += base + (j < extra)
            k += 1
    return loads, k


class TestBalancedDispatch:
    def test_conserves_edges(self):
        degrees = np.array([3, 300, 17, 0, 128, 1000])
        outcome = balanced_dispatch(degrees, num_pes=16, e_threshold=128)
        assert outcome.pe_loads.sum() == degrees.sum()

    def test_small_lists_stay_whole(self):
        outcome = balanced_dispatch(np.array([5, 7, 2]), num_pes=4, e_threshold=16)
        assert outcome.scheduling_ops == 3
        assert outcome.num_splits == 0

    def test_large_list_splits_evenly(self):
        outcome = balanced_dispatch(np.array([100]), num_pes=4, e_threshold=16)
        # ceil(100/16) = 7 chunks of 14-15 edges.
        assert outcome.scheduling_ops == 7
        assert outcome.num_splits == 1
        assert outcome.max_load <= 2 * 15

    def test_chunk_sizes_bounded_by_threshold(self):
        outcome = balanced_dispatch(np.array([129]), num_pes=16, e_threshold=128)
        assert outcome.scheduling_ops == 2
        assert outcome.max_load <= 128

    def test_balances_power_law_frontier(self, medium_powerlaw):
        # All degrees on this proxy sit below eThreshold, so balance comes
        # purely from round-robin chunk placement; residual variance stays
        # modest.
        degrees = medium_powerlaw.out_degree()
        outcome = balanced_dispatch(degrees)
        assert outcome.imbalance < 1.35

    def test_round_robin_avoids_remainder_pileup(self):
        # Many two-chunk vertices must not all land on PE0/PE1.
        degrees = np.full(64, 200)
        outcome = balanced_dispatch(degrees, num_pes=16, e_threshold=128)
        assert outcome.imbalance == pytest.approx(1.0, abs=0.05)

    def test_empty_frontier(self):
        outcome = balanced_dispatch(np.array([], dtype=np.int64))
        assert outcome.pe_loads.sum() == 0
        assert outcome.scheduling_ops == 0
        assert outcome.imbalance == 1.0

    def test_zero_degree_vertices_cost_one_op(self):
        outcome = balanced_dispatch(np.zeros(5, dtype=np.int64))
        assert outcome.scheduling_ops == 5
        assert outcome.pe_loads.sum() == 0

    def test_normalized_loads_mean_one(self):
        outcome = balanced_dispatch(np.array([10, 20, 30, 40]), num_pes=4)
        assert outcome.normalized_loads().mean() == pytest.approx(1.0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        degrees=st.lists(
            st.one_of(st.integers(0, 40), st.integers(0, 2000)), max_size=120
        ),
        num_pes=st.sampled_from([1, 3, 16]),
        e_threshold=st.sampled_from([1, 7, 16, 128]),
    )
    def test_matches_chunk_loop_reference(self, degrees, num_pes, e_threshold):
        loads, chunks = _chunk_loop_reference(degrees, num_pes, e_threshold)
        outcome = balanced_dispatch(
            np.asarray(degrees, dtype=np.int64), num_pes, e_threshold
        )
        assert outcome.pe_loads.dtype == np.int64
        assert outcome.pe_loads.tolist() == loads
        assert outcome.scheduling_ops == chunks

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            balanced_dispatch(np.array([1]), num_pes=0)
        with pytest.raises(ValueError):
            balanced_dispatch(np.array([1]), e_threshold=0)
        with pytest.raises(ValueError):
            balanced_dispatch(np.array([-1]))


class TestHashDispatch:
    def test_conserves_edges(self):
        ids = np.array([0, 1, 2, 17])
        degrees = np.array([5, 10, 15, 20])
        outcome = hash_dispatch(ids, degrees, num_pes=16)
        assert outcome.pe_loads.sum() == degrees.sum()

    def test_vertex_hash_placement(self):
        outcome = hash_dispatch(
            np.array([0, 16]), np.array([10, 20]), num_pes=16
        )
        assert outcome.pe_loads[0] == 30  # both hash to PE0

    def test_every_edge_is_a_scheduling_op(self):
        outcome = hash_dispatch(np.array([1, 2]), np.array([100, 50]))
        assert outcome.scheduling_ops == 150

    def test_hot_vertex_imbalance(self):
        ids = np.arange(16)
        degrees = np.ones(16, dtype=np.int64)
        degrees[3] = 1000
        outcome = hash_dispatch(ids, degrees, num_pes=16)
        assert outcome.imbalance > 10

    def test_balanced_beats_hash_on_skew(self, medium_powerlaw):
        degrees = medium_powerlaw.out_degree()
        ids = np.arange(medium_powerlaw.num_vertices)
        hashed = hash_dispatch(ids, degrees)
        balanced = balanced_dispatch(degrees)
        assert balanced.imbalance <= hashed.imbalance

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            hash_dispatch(np.array([1]), np.array([1, 2]))


class TestDispatchOpsClosedForm:
    def test_matches_full_dispatch(self):
        degrees = np.array([3, 300, 17, 0, 128, 1000, 127, 129])
        full = balanced_dispatch(degrees, e_threshold=128).scheduling_ops
        fast = per_vertex_dispatch_ops(degrees, e_threshold=128)
        assert fast == full

    def test_reduction_ratio_is_large_on_real_degrees(self, medium_powerlaw):
        degrees = medium_powerlaw.out_degree()
        ops = per_vertex_dispatch_ops(degrees)
        # Fig. 14a: ~94% fewer scheduling operations than per-edge.
        assert ops < 0.15 * degrees.sum()
