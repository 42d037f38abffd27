"""Ready-to-Update Bitmap and activation coalescing tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    ActivationCoalescer,
    ReadyToUpdateBitmap,
    coalesced_store_bursts,
)


class TestBitmap:
    def test_mark_and_query(self):
        bitmap = ReadyToUpdateBitmap(1024, block_size=256)
        bitmap.mark(np.array([300]))
        assert bitmap.is_marked(256)
        assert bitmap.is_marked(511)
        assert not bitmap.is_marked(512)

    def test_block_granularity_schedules_whole_block(self):
        bitmap = ReadyToUpdateBitmap(1024, block_size=256)
        bitmap.mark(np.array([0]))
        scheduled = bitmap.scheduled_vertices()
        assert scheduled.size == 256
        assert scheduled[0] == 0 and scheduled[-1] == 255

    def test_scheduled_superset_of_modified(self):
        bitmap = ReadyToUpdateBitmap(5000, block_size=256)
        modified = np.array([3, 900, 4999])
        bitmap.mark(modified)
        scheduled = set(bitmap.scheduled_vertices().tolist())
        assert set(modified.tolist()).issubset(scheduled)

    def test_last_block_truncated(self):
        bitmap = ReadyToUpdateBitmap(300, block_size=256)
        bitmap.mark(np.array([299]))
        scheduled = bitmap.scheduled_vertices()
        assert scheduled.max() == 299
        assert scheduled.size == 44

    def test_clear(self):
        bitmap = ReadyToUpdateBitmap(512, block_size=256)
        bitmap.mark(np.array([0, 511]))
        bitmap.clear()
        assert bitmap.blocks_set == 0
        assert bitmap.scheduled_vertices().size == 0

    def test_stats(self):
        bitmap = ReadyToUpdateBitmap(1024, block_size=256)
        modified = np.array([0, 1, 2])
        bitmap.mark(modified)
        stats = bitmap.stats(modified)
        assert stats.vertices_scheduled == 256
        assert stats.vertices_modified == 3
        assert stats.slack == 253
        assert stats.work_reduction == pytest.approx(0.75)

    def test_empty_mark_is_noop(self):
        bitmap = ReadyToUpdateBitmap(1024)
        bitmap.mark(np.array([], dtype=np.int64))
        assert bitmap.blocks_set == 0

    def test_out_of_range_rejected(self):
        bitmap = ReadyToUpdateBitmap(100)
        with pytest.raises(IndexError):
            bitmap.mark(np.array([100]))
        with pytest.raises(IndexError):
            bitmap.is_marked(100)

    def test_closed_form_matches_object(self):
        rng = np.random.default_rng(4)
        for num_vertices in (100, 1000, 5000):
            modified = rng.choice(num_vertices, size=30, replace=False)
            bitmap = ReadyToUpdateBitmap(num_vertices, 256)
            bitmap.mark(modified)
            assert ReadyToUpdateBitmap.scheduled_count(
                modified, num_vertices, 256
            ) == bitmap.scheduled_vertices().size

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ReadyToUpdateBitmap(10, block_size=0)
        with pytest.raises(ValueError):
            ReadyToUpdateBitmap(-1)


@st.composite
def marked_ids(draw):
    """Unsorted vertex ids with duplicates, V often not a block multiple."""
    block_size = draw(st.sampled_from([1, 3, 7, 64, 256]))
    num_vertices = draw(st.integers(min_value=1, max_value=2000))
    ids = draw(
        st.lists(st.integers(0, num_vertices - 1), max_size=80)
    )
    ids += draw(st.lists(st.sampled_from(ids), max_size=20) if ids else st.just([]))
    ids = draw(st.permutations(ids))
    return np.asarray(ids, dtype=np.int64), num_vertices, block_size


class TestBitmapOracle:
    """``mark``/``blocks_set`` and ``scheduled_count`` against np.unique."""

    @settings(max_examples=150, deadline=None)
    @given(case=marked_ids())
    @example(case=(np.array([299, 3, 299, 0], dtype=np.int64), 300, 256))
    @example(case=(np.array([6, 6, 1], dtype=np.int64), 7, 3))
    def test_matches_unique_blocks(self, case):
        ids, num_vertices, block_size = case
        blocks = np.unique(ids // block_size)
        expected = int(
            sum(min(block_size, num_vertices - b * block_size) for b in blocks)
        )
        bitmap = ReadyToUpdateBitmap(num_vertices, block_size=block_size)
        bitmap.mark(ids)
        assert bitmap.blocks_set == blocks.size
        np.testing.assert_array_equal(np.flatnonzero(bitmap._bits), blocks)
        assert bitmap.scheduled_vertices().size == expected
        assert (
            ReadyToUpdateBitmap.scheduled_count(ids, num_vertices, block_size)
            == expected
        )


class TestScheduledCountOrder:
    """The observers pass sorted ids; ``harness/sweeps.py`` may not."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=marked_ids(), seed=st.integers(0, 2**32 - 1))
    def test_shuffled_equals_sorted(self, case, seed):
        ids, num_vertices, block_size = case
        shuffled = np.random.default_rng(seed).permutation(ids)
        assert ReadyToUpdateBitmap.scheduled_count(
            shuffled, num_vertices, block_size
        ) == ReadyToUpdateBitmap.scheduled_count(
            np.sort(ids), num_vertices, block_size
        )


class TestCoalescer:
    def test_bursts_on_queue_fill(self):
        au = ActivationCoalescer(queue_entries=4, record_bytes=12)
        for v in range(9):
            au.activate(v)
        au.flush()
        stats = au.stats()
        assert stats.activations == 9
        assert sum(stats.burst_bytes) == 9 * 12
        # Two full 4-entry bursts plus one residue.
        assert stats.bursts == 3
        assert max(stats.burst_bytes) == 4 * 12

    def test_flush_without_activity(self):
        au = ActivationCoalescer(queue_entries=4)
        au.flush()
        assert au.stats().bursts == 0

    def test_single_activation(self):
        au = ActivationCoalescer(queue_entries=16, record_bytes=12)
        au.activate(7)
        au.flush()
        assert au.stats().burst_bytes == [12]

    def test_rejects_bad_queue(self):
        with pytest.raises(ValueError):
            ActivationCoalescer(queue_entries=0)


class TestClosedFormBursts:
    def test_zero_activations(self):
        assert coalesced_store_bursts(0) == (0, 0.0)

    def test_conserves_bytes(self):
        bursts, mean = coalesced_store_bursts(
            1000, num_units=128, queue_entries=16, record_bytes=12
        )
        assert bursts * mean == pytest.approx(1000 * 12)

    def test_mean_burst_grows_with_activations(self):
        _, few = coalesced_store_bursts(128, num_units=128)
        _, many = coalesced_store_bursts(128 * 64, num_units=128)
        assert many > few
