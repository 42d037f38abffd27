"""S2V vectorization and exact-prefetch planner tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ACTIVE_RECORD_BYTES,
    EDGE_BYTES_EXACT,
    EDGE_BYTES_WITH_SRC,
    PrefetchPlan,
    coalesced_run_lengths,
    plan_baseline_fetch,
    plan_exact_prefetch,
    simt_issue_slots,
    vectorize_workloads,
)
from repro.memory import AccessPattern, Region


class TestVectorize:
    def test_exact_multiple_full_efficiency(self):
        stats = vectorize_workloads([8, 16, 24], n_simt=8)
        assert stats.issue_slots == 6
        assert stats.lane_efficiency == 1.0

    def test_combining_packs_remainders(self):
        # Four 3-edge lists: combined they need 2 slots, not 4.
        combined = vectorize_workloads([3, 3, 3, 3], n_simt=8)
        naive = vectorize_workloads([3, 3, 3, 3], n_simt=8, combine_small=False)
        assert combined.issue_slots == 2
        assert naive.issue_slots == 4
        assert combined.lane_efficiency > naive.lane_efficiency

    def test_empty(self):
        stats = vectorize_workloads([], n_simt=8)
        assert stats.issue_slots == 0
        assert stats.lane_efficiency == 1.0

    def test_zero_sized_lists_free(self):
        stats = vectorize_workloads([0, 0, 8], n_simt=8)
        assert stats.issue_slots == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            vectorize_workloads([-1])

    def test_compute_cycles_alias(self):
        stats = vectorize_workloads([16], n_simt=8)
        assert stats.compute_cycles == stats.issue_slots == 2

    def test_closed_form_slots(self):
        assert simt_issue_slots(64, 1.0, 8) == 8
        assert simt_issue_slots(64, 0.5, 8) == 16
        assert simt_issue_slots(0, 1.0, 8) == 0


class TestCoalescedRuns:
    def test_adjacent_extents_merge(self):
        runs = coalesced_run_lengths(np.array([0, 5, 10]), np.array([5, 5, 5]))
        assert runs.tolist() == [15]

    def test_gap_breaks_run(self):
        runs = coalesced_run_lengths(np.array([0, 8]), np.array([5, 5]))
        assert runs.tolist() == [5, 5]

    def test_zero_count_vertices_skipped(self):
        runs = coalesced_run_lengths(np.array([0, 5, 5]), np.array([5, 0, 5]))
        assert runs.tolist() == [10]

    def test_unsorted_offsets_handled(self):
        runs = coalesced_run_lengths(np.array([10, 0]), np.array([5, 10]))
        assert runs.tolist() == [15]

    def test_empty(self):
        assert coalesced_run_lengths(np.array([]), np.array([])).size == 0

    def test_total_preserved(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 20, size=100)
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        keep = rng.random(100) < 0.5
        runs = coalesced_run_lengths(offsets[keep], counts[keep])
        assert runs.sum() == counts[keep].sum()


class TestExactPrefetch:
    def test_edge_bytes_exact(self):
        plan = plan_exact_prefetch(np.array([0]), np.array([10]), weighted=True)
        edge = next(p for p in plan.patterns if p.region is Region.EDGE)
        assert edge.total_bytes == 10 * EDGE_BYTES_EXACT

    def test_unweighted_halves_edge_bytes(self):
        plan = plan_exact_prefetch(np.array([0]), np.array([10]), weighted=False)
        edge = next(p for p in plan.patterns if p.region is Region.EDGE)
        assert edge.total_bytes == 10 * 4

    def test_no_offset_region_traffic(self):
        plan = plan_exact_prefetch(np.array([0, 10]), np.array([10, 5]))
        assert all(p.region is not Region.OFFSET for p in plan.patterns)

    def test_adjacent_lists_coalesce_into_one_run(self):
        plan = plan_exact_prefetch(np.array([0, 10]), np.array([10, 10]))
        assert plan.coalesced_runs == 1

    def test_empty_frontier(self):
        plan = plan_exact_prefetch(np.array([]), np.array([]))
        assert plan.patterns == ()
        assert plan.total_bytes == 0


class TestBaselineFetch:
    def test_src_vid_inflates_edge_bytes(self):
        exact = plan_exact_prefetch(np.array([0]), np.array([100]))
        base = plan_baseline_fetch(np.array([0]), np.array([100]))
        edge_e = next(p for p in exact.patterns if p.region is Region.EDGE)
        edge_b = next(p for p in base.patterns if p.region is Region.EDGE)
        assert base.edge_bytes == EDGE_BYTES_WITH_SRC
        # 12B records + one sentinel edge.
        assert edge_b.total_bytes == 101 * 12
        assert edge_b.total_bytes > 1.4 * edge_e.total_bytes

    def test_sentinel_reads_per_vertex(self):
        base = plan_baseline_fetch(np.array([0, 5, 9]), np.array([5, 4, 7]))
        edge = next(p for p in base.patterns if p.region is Region.EDGE)
        assert edge.total_bytes == (16 + 3) * 12

    def test_offset_traffic_when_not_cached(self):
        base = plan_baseline_fetch(
            np.array([0]), np.array([5]), offset_cached_on_chip=False
        )
        assert any(p.region is Region.OFFSET for p in base.patterns)

    def test_offset_free_when_cached(self):
        base = plan_baseline_fetch(
            np.array([0]), np.array([5]), offset_cached_on_chip=True
        )
        assert all(p.region is not Region.OFFSET for p in base.patterns)

    def test_empty_frontier(self):
        base = plan_baseline_fetch(np.array([]), np.array([]))
        assert base.total_bytes == 0


def _plans_from_run_lengths(offsets, counts, weighted):
    """Both plans with each mean run read off ``coalesced_run_lengths``."""
    num_active, total = counts.size, int(counts.sum())
    edge_bytes = EDGE_BYTES_EXACT if weighted else EDGE_BYTES_EXACT // 2
    runs = coalesced_run_lengths(offsets, counts)
    patterns = []
    if num_active:
        record = num_active * ACTIVE_RECORD_BYTES
        patterns.append(AccessPattern(Region.ACTIVE_VERTEX, record, float(record)))
    if total:
        run_bytes = float(runs.mean()) * edge_bytes if runs.size else edge_bytes
        patterns.append(AccessPattern(Region.EDGE, total * edge_bytes, run_bytes))
    exact = PrefetchPlan(tuple(patterns), edge_bytes, int(runs.size))

    edge_bytes = EDGE_BYTES_WITH_SRC if weighted else EDGE_BYTES_WITH_SRC - 4
    patterns = []
    if num_active:
        patterns.append(
            AccessPattern(Region.ACTIVE_VERTEX, num_active * 8, float(num_active * 8))
        )
        runs = coalesced_run_lengths(offsets, counts + 1)
        mean_run = float(runs.mean()) if runs.size else 1.0
        patterns.append(
            AccessPattern(
                Region.EDGE, (total + num_active) * edge_bytes, mean_run * edge_bytes
            )
        )
    baseline = PrefetchPlan(tuple(patterns), edge_bytes, num_active)
    return exact, baseline


@st.composite
def _extents(draw):
    """``(offsets, counts)``: packed, gapped, shuffled or random extents."""
    counts = np.asarray(
        draw(st.lists(st.integers(0, 40), max_size=60)), dtype=np.int64
    )
    layout = draw(st.sampled_from(["packed", "gapped", "shuffled", "random"]))
    if layout == "random":  # unsorted, possibly overlapping
        offsets = draw(
            st.lists(st.integers(0, 500), min_size=counts.size, max_size=counts.size)
        )
        return np.asarray(offsets, dtype=np.int64), counts
    gaps = np.zeros(counts.size, dtype=np.int64)
    if layout != "packed":
        gaps = np.asarray(
            draw(st.lists(st.integers(0, 3), min_size=counts.size, max_size=counts.size)),
            dtype=np.int64,
        )
    offsets = np.cumsum(counts + gaps) - counts
    if layout == "shuffled":
        order = np.asarray(draw(st.permutations(range(counts.size))), dtype=np.int64)
        offsets, counts = offsets[order], counts[order]
    return offsets, counts


class TestRunCountPlans:
    """The plans count run breaks; the run lengths are only the reference."""

    @given(_extents(), st.booleans())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_match_plans_from_run_lengths(self, extents, weighted):
        offsets, counts = extents
        exact, baseline = _plans_from_run_lengths(offsets, counts, weighted)
        # repr, not ==: the run lengths must agree bit for bit.
        assert repr(plan_exact_prefetch(offsets, counts, weighted)) == repr(exact)
        assert repr(plan_baseline_fetch(offsets, counts, weighted)) == repr(baseline)
