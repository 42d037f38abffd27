"""Graph slicing (Section 4.2.1) and destination-shard partitioning tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import plan_partitions, plan_slices
from repro.graph.slicing import PartitionPlan, Shard, Slice


class TestPlanSlices:
    def test_single_slice_when_vb_fits(self):
        plan = plan_slices(num_vertices=1000, vb_capacity_bytes=8000)
        assert plan.num_slices == 1
        assert not plan.is_sliced

    def test_slice_count(self):
        # 1000 vertices x 4B with 1000B VB -> 250 vertices/slice -> 4 slices.
        plan = plan_slices(1000, 1000)
        assert plan.num_slices == 4

    def test_uneven_last_slice(self):
        plan = plan_slices(1001, 1000)
        assert plan.num_slices == 5
        assert plan.slices[-1].num_vertices == 1

    def test_slices_cover_vertex_space(self):
        plan = plan_slices(997, 512)
        covered = sum(s.num_vertices for s in plan)
        assert covered == 997
        boundaries = [s.vertex_lo for s in plan] + [plan.slices[-1].vertex_hi]
        assert boundaries == sorted(boundaries)

    def test_slice_of(self):
        plan = plan_slices(1000, 1000)
        assert plan.slice_of(0).index == 0
        assert plan.slice_of(250).index == 1
        assert plan.slice_of(999).index == 3

    def test_contains(self):
        s = Slice(index=0, vertex_lo=10, vertex_hi=20)
        assert s.contains(10)
        assert s.contains(19)
        assert not s.contains(20)
        assert not s.contains(9)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            plan_slices(10, 0)

    def test_zero_vertices(self):
        plan = plan_slices(0, 1024)
        assert plan.num_slices == 1
        assert plan.slices[0].num_vertices == 0


class TestPlanSlicesEdgeCases:
    def test_capacity_below_one_property_clamps_to_one_vertex(self):
        # VB capacity smaller than a single temporary property (S3):
        # the plan degrades to one vertex per slice instead of dividing
        # by zero or emitting empty slices.
        plan = plan_slices(5, vb_capacity_bytes=1, tprop_bytes=4)
        assert plan.vb_capacity_vertices == 1
        assert plan.num_slices == 5
        assert all(s.num_vertices == 1 for s in plan)

    def test_origin_offsets_slice_bounds(self):
        plan = plan_slices(10, 12, origin=100)  # 3 vertices per slice
        assert plan.slices[0].vertex_lo == 100
        assert plan.slices[-1].vertex_hi == 110
        assert plan.slice_of(100).index == 0
        assert plan.slice_of(109).index == 3

    def test_origin_plan_tiles_interval(self):
        plan = plan_slices(17, 8, origin=40)  # 2 vertices per slice
        lo = 40
        for s in plan:
            assert s.vertex_lo == lo
            lo = s.vertex_hi
        assert lo == 57


class TestPlanPartitions:
    def test_even_split(self):
        plan = plan_partitions(12, 4)
        assert plan.num_shards == 4
        assert [s.num_vertices for s in plan] == [3, 3, 3, 3]

    def test_uneven_split_differs_by_at_most_one(self):
        plan = plan_partitions(10, 3)
        sizes = [s.num_vertices for s in plan]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_single_vertex_shards(self):
        plan = plan_partitions(4, 4)
        assert [s.num_vertices for s in plan] == [1, 1, 1, 1]

    def test_more_shards_than_vertices_clamps(self):
        plan = plan_partitions(3, 100)
        assert plan.num_shards == 3
        assert all(s.num_vertices == 1 for s in plan)

    def test_empty_graph_single_empty_shard(self):
        plan = plan_partitions(0, 4)
        assert plan.num_shards == 1
        assert plan.shards[0].num_vertices == 0
        assert not plan.is_partitioned

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            plan_partitions(10, 0)
        with pytest.raises(ValueError):
            plan_partitions(-1, 2)

    def test_shard_of_and_shard_ids_agree(self):
        plan = plan_partitions(10, 3)
        for v in range(10):
            assert plan.shard_of(v).contains(v)
        ids = plan.shard_ids(np.arange(10))
        assert ids.tolist() == [plan.shard_of(v).index for v in range(10)]

    def test_shard_of_rejects_out_of_range(self):
        plan = plan_partitions(10, 3)
        with pytest.raises(IndexError):
            plan.shard_of(10)
        with pytest.raises(IndexError):
            plan.shard_of(-1)

    def test_edges_per_shard_sums_to_total(self, tiny_graph):
        plan = plan_partitions(tiny_graph.num_vertices, 3)
        per_shard = plan.edges_per_shard(tiny_graph)
        assert per_shard.sum() == tiny_graph.num_edges

    def test_vb_plan_tiles_shard_interval(self):
        plan = plan_partitions(100, 3)
        for shard in plan:
            vb = plan.vb_plan(shard, vb_capacity_bytes=28)  # 7 vertices
            assert vb.origin == shard.vertex_lo
            assert vb.slices[0].vertex_lo == shard.vertex_lo
            assert vb.slices[-1].vertex_hi == shard.vertex_hi
            covered = sum(s.num_vertices for s in vb)
            assert covered == shard.num_vertices

    def test_vb_plan_single_slice_when_shard_fits(self):
        plan = plan_partitions(100, 4)
        vb = plan.vb_plan(plan.shards[0], vb_capacity_bytes=1 << 20)
        assert vb.num_slices == 1

    @given(
        num_vertices=st.integers(min_value=0, max_value=2000),
        num_shards=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_shards_tile_vertex_space_exactly(self, num_vertices, num_shards):
        # S3 property: shards are contiguous, non-overlapping, and cover
        # [0, num_vertices) exactly for every (V, shards) combination.
        plan = plan_partitions(num_vertices, num_shards)
        assert isinstance(plan, PartitionPlan)
        assert plan.num_vertices == num_vertices
        lo = 0
        for index, shard in enumerate(plan):
            assert isinstance(shard, Shard)
            assert shard.index == index
            assert shard.vertex_lo == lo
            assert shard.vertex_hi >= shard.vertex_lo
            lo = shard.vertex_hi
        assert lo == num_vertices
        if num_vertices:
            assert all(s.num_vertices >= 1 for s in plan)
            assert plan.num_shards == min(num_shards, num_vertices)
