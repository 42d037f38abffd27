"""Crossbar contention model tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.memory import Crossbar, crossbar, grouped_duplicate_count


def _lexsort_reference(dst, group_width: int) -> int:
    """Oracle: one global sort on (group, address), count equal neighbours."""
    dst = np.asarray(dst, dtype=np.int64)
    n = dst.size
    if n == 0 or group_width < 2:
        return 0
    group_ids = np.arange(n, dtype=np.int64) // group_width
    order = np.lexsort((dst, group_ids))
    sorted_groups = group_ids[order]
    sorted_dst = dst[order]
    same = (sorted_groups[1:] == sorted_groups[:-1]) & (
        sorted_dst[1:] == sorted_dst[:-1]
    )
    return int(np.count_nonzero(same))


def _naive_count(dst, group_width: int) -> int:
    """Oracle: ``len(g) - len(set(g))`` summed over the issue groups."""
    values = np.asarray(dst).tolist()
    return sum(
        len(group) - len(set(group))
        for group in (
            values[i : i + group_width] for i in range(0, len(values), group_width)
        )
    )


def _loads(dst, num_outputs: int) -> np.ndarray:
    """Per-output load vector of a destination stream (the hash route)."""
    return np.bincount(np.asarray(dst, dtype=np.int64) % num_outputs, minlength=num_outputs)


class TestElasticRouting:
    def test_balanced_stream_hits_ideal(self):
        xbar = Crossbar(num_outputs=4, issue_width=4)
        dst = np.arange(16) % 4  # perfectly spread
        stats = xbar.route_batch(_loads(dst, 4))
        assert stats.cycles == stats.ideal_cycles == 4
        assert stats.efficiency == 1.0

    def test_hot_output_binds_throughput(self):
        xbar = Crossbar(num_outputs=4, issue_width=4)
        dst = np.zeros(16, dtype=np.int64)  # everything to output 0
        stats = xbar.route_batch(_loads(dst, 4))
        assert stats.cycles == 16  # one per cycle on the hot output
        assert stats.max_output_load == 16

    def test_elastic_absorbs_transient_imbalance(self):
        xbar = Crossbar(num_outputs=2, issue_width=2)
        # Alternating bursts: [0,0] then [1,1]; totals are balanced.
        dst = np.array([0, 0, 1, 1] * 8)
        stats = xbar.route_batch(_loads(dst, 2))
        assert stats.cycles == stats.ideal_cycles  # buffering hides it

    def test_empty_stream(self):
        stats = Crossbar(4, 4).route_batch(_loads(np.zeros(0, dtype=np.int64), 4))
        assert stats.cycles == 0
        assert stats.conflict_rate == 0.0

    def test_fewer_outputs_than_lanes_floor(self):
        xbar = Crossbar(num_outputs=2, issue_width=8)
        dst = np.arange(64) % 2
        stats = xbar.route_batch(_loads(dst, 2))
        # 8 groups but 32 flits per output -> at least 32 cycles.
        assert stats.cycles == 32


class TestGroupedDuplicates:
    def test_no_duplicates(self):
        assert grouped_duplicate_count(np.array([1, 2, 3, 4]), 4) == 0

    def test_all_same(self):
        assert grouped_duplicate_count(np.array([7, 7, 7, 7]), 4) == 3

    def test_duplicates_across_groups_ignored(self):
        # Width 2: groups [5,6] and [5,6] -- no intra-group repeats.
        assert grouped_duplicate_count(np.array([5, 6, 5, 6]), 2) == 0

    def test_mixed(self):
        # Groups [1,1,2] and [3,3,3]: 1 + 2 repeated flits.
        dst = np.array([1, 1, 2, 3, 3, 3])
        assert grouped_duplicate_count(dst, 3) == 3

    def test_degenerate_width(self):
        assert grouped_duplicate_count(np.array([1, 1]), 1) == 0

    def test_empty(self):
        assert grouped_duplicate_count(np.zeros(0, dtype=np.int64), 8) == 0

    @settings(max_examples=400, deadline=None)
    @given(
        width=st.integers(1, 300),
        values=st.integers(1, 16),
        kind=st.sampled_from(["int32", "int64", "list"]),
        data=st.data(),
    )
    def test_matches_lexsort_reference(self, width, values, kind, data):
        # n = width * groups + tail covers n < w, n == w and a ragged tail.
        groups = data.draw(st.integers(0, 2000 // width), label="groups")
        tail = data.draw(st.integers(0, min(width - 1, 2000 - groups * width)), label="tail")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        dst = np.random.default_rng(seed).integers(0, values, size=groups * width + tail)
        dst = dst.tolist() if kind == "list" else dst.astype(kind)
        assert grouped_duplicate_count(dst, width) == _lexsort_reference(dst, width)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        width=st.one_of(
            st.sampled_from([2, 8, 16, 17, 256, 300]), st.integers(1, 300)
        ),
        blocks=st.sampled_from([0, 1, 2]),
        shift=st.integers(-1, 1),
        tail=st.integers(0, 299),
        ids=st.sampled_from(["small", "negative", "wide", "negative_wide", "wide_last"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(width=8, blocks=1, shift=0, tail=0, ids="small", seed=1)
    @example(width=16, blocks=2, shift=-1, tail=5, ids="negative", seed=2)
    @example(width=17, blocks=2, shift=1, tail=16, ids="wide", seed=3)
    @example(width=256, blocks=1, shift=1, tail=255, ids="wide", seed=4)
    @example(width=8, blocks=0, shift=1, tail=3, ids="negative_wide", seed=5)
    @example(width=8, blocks=2, shift=0, tail=0, ids="wide_last", seed=6)
    @example(width=300, blocks=2, shift=1, tail=7, ids="wide_last", seed=7)
    def test_matches_naive_oracle_across_blocks(
        self, width, blocks, shift, tail, ids, seed
    ):
        # Lengths sit on either side of the block boundaries (whole
        # groups of ``_BLOCK_FLITS // width`` rows), with or without a
        # tail.  Small negative ids still fit int32; ids at or beyond
        # +-2**31 force the int64 scratch, from the first block that holds
        # one (``wide_last``: only the last whole group).
        block_rows = max(1, crossbar._BLOCK_FLITS // width)
        groups = max(blocks * block_rows + shift, 0)
        rng = np.random.default_rng(seed)
        spread = int(rng.integers(1, 3 * width + 2))
        dst = rng.integers(0, spread, size=groups * width + tail % width)
        if ids == "negative":
            dst = -1 - dst
        elif ids == "wide":
            dst = dst * (1 << 32) + (1 << 31)
        elif ids == "negative_wide":
            dst = -dst * (1 << 32) - (1 << 31) - 1
        elif ids == "wide_last" and groups:
            last = slice((groups - 1) * width, groups * width)
            dst[last] = dst[last] * (1 << 32) + (1 << 31)
        assert grouped_duplicate_count(dst, width) == _naive_count(dst, width)

    @pytest.mark.parametrize("width", [8, 256])
    def test_int32_stream_skips_the_range_check(self, width, monkeypatch):
        # A graph's int32 ids fit the int32 scratch by their dtype; an
        # int64 stream keeps the per-block check.
        calls = []
        real = crossbar._fits_int32

        def counted(values):
            calls.append(values.dtype)
            return real(values)

        monkeypatch.setattr(crossbar, "_fits_int32", counted)
        dst = np.random.default_rng(width).integers(0, 3 * width, size=200_000)
        narrow = grouped_duplicate_count(dst.astype(np.int32), width)
        assert calls == []
        assert grouped_duplicate_count(dst, width) == narrow
        assert calls and set(calls) == {np.dtype(np.int64)}

    @pytest.mark.parametrize("width", [8, 256])
    def test_matches_reference_on_zipf_stream(self, width):
        # A power-law destination stream, the irregularity AO targets.
        dst = np.random.default_rng(width).zipf(1.3, size=1_000_000) % 50_000
        dst = dst.astype(np.int32)
        expected = _lexsort_reference(dst, width)
        assert expected > 0
        assert grouped_duplicate_count(dst, width) == expected


class TestValidation:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Crossbar(0, 4)
        with pytest.raises(ValueError):
            Crossbar(4, 0)

    @pytest.mark.parametrize("length", [0, 3, 5, 128])
    def test_rejects_load_vector_of_wrong_length(self, length):
        with pytest.raises(ValueError, match="expected 4 output loads"):
            Crossbar(4, 4).route_batch(np.zeros(length, dtype=np.int64))

    def test_rejects_stream_shaped_input(self):
        # A 2-D array is not a load vector, even with num_outputs elements.
        with pytest.raises(ValueError):
            Crossbar(4, 4).route_batch(np.zeros((2, 2), dtype=np.int64))
