"""HBM timing/energy model tests."""

import pytest

from repro.memory import (
    HBM1_512GBS,
    HBM2_900GBS,
    AccessPattern,
    HBMModel,
    Region,
)


def _stream(total, run=None, region=Region.EDGE, write=False):
    return AccessPattern(
        region=region,
        total_bytes=total,
        run_bytes=float(run if run is not None else total),
        is_write=write,
    )


class TestPatternCycles:
    def test_zero_bytes_zero_cycles(self):
        hbm = HBMModel(HBM1_512GBS)
        assert hbm.pattern_cycles(_stream(0, 1)) == 0.0

    def test_sequential_approaches_peak(self):
        hbm = HBMModel(HBM1_512GBS)
        total = 16 * 1024 * 1024
        cycles = hbm.pattern_cycles(_stream(total))
        ideal = total / HBM1_512GBS.peak_bytes_per_cycle
        assert cycles == pytest.approx(ideal, rel=0.05)

    def test_random_much_slower_than_sequential(self):
        hbm = HBMModel(HBM1_512GBS)
        total = 1024 * 1024
        sequential = hbm.pattern_cycles(_stream(total))
        random = hbm.pattern_cycles(_stream(total, run=8))
        assert random > 3 * sequential

    def test_short_runs_padded_to_burst(self):
        hbm = HBMModel(HBM1_512GBS)
        # 8-byte runs transfer 32-byte bursts: 4x the transfer work.
        eight = hbm.pattern_cycles(_stream(1024, run=8))
        thirty_two = hbm.pattern_cycles(_stream(1024, run=32))
        assert eight > thirty_two

    def test_monotonic_in_run_length(self):
        hbm = HBMModel(HBM1_512GBS)
        total = 256 * 1024
        cycles = [
            hbm.pattern_cycles(_stream(total, run=r))
            for r in (32, 128, 1024, 8192, total)
        ]
        assert all(a >= b for a, b in zip(cycles, cycles[1:]))

    def test_ideal_cycles(self):
        hbm = HBMModel(HBM1_512GBS)
        assert hbm.ideal_cycles(512.0) == 1.0


class TestService:
    def test_accumulates_traffic_by_region(self):
        hbm = HBMModel(HBM1_512GBS)
        hbm.service([_stream(100, region=Region.EDGE)])
        hbm.service([_stream(50, region=Region.OFFSET)])
        assert hbm.bytes_by_region[Region.EDGE] == 100
        assert hbm.bytes_by_region[Region.OFFSET] == 50
        assert hbm.total_bytes == 150

    def test_reads_and_writes_separated(self):
        hbm = HBMModel(HBM1_512GBS)
        hbm.service([_stream(100), _stream(40, write=True)])
        assert hbm.read_bytes == 100
        assert hbm.write_bytes == 40

    def test_service_result_fields(self):
        hbm = HBMModel(HBM1_512GBS)
        result = hbm.service([_stream(5120)])
        assert result.total_bytes == 5120
        assert result.ideal_cycles == pytest.approx(10.0)
        assert result.cycles >= result.ideal_cycles
        assert 0 < result.bandwidth_utilization <= 1.0

    def test_patterns_share_bandwidth(self):
        hbm = HBMModel(HBM1_512GBS)
        one = hbm.pattern_cycles(_stream(1024))
        combined = HBMModel(HBM1_512GBS).service([_stream(1024), _stream(1024)])
        assert combined.cycles == pytest.approx(2 * one)

    def test_pins_fixed_batch(self):
        # Exact cycles and bytes of one mixed batch (a zero-byte pattern,
        # sub-burst runs, a multi-row run): the per-pattern loop summed
        # left to right, pinned to the last bit.
        batch = [
            AccessPattern(Region.OFFSET, 4096, 64.0, False),
            AccessPattern(Region.EDGE, 123456, 2048.0, False),
            AccessPattern(Region.VERTEX_PROP, 777, 8.0, True),
            AccessPattern(Region.EDGE, 0, 8.0, False),
            AccessPattern(Region.METADATA, 50000, 24.0, True),
        ]
        hbm = HBMModel(HBM1_512GBS)
        result = hbm.service(batch)
        assert result.cycles == 781.53076171875
        assert result.ideal_cycles == 348.298828125
        assert result.total_bytes == 178329
        assert result.bytes_by_region == {
            Region.OFFSET: 4096,
            Region.EDGE: 123456,
            Region.VERTEX_PROP: 777,
            Region.METADATA: 50000,
        }
        assert hbm.service(batch[:2]).cycles == 270.48583984375
        assert hbm.total_cycles == 1052.0166015625
        assert (hbm.read_bytes, hbm.write_bytes) == (255104, 50777)
        gpu = HBMModel(HBM2_900GBS).service(batch)
        assert gpu.cycles == 472.12837275752315
        assert gpu.ideal_cycles == 247.67916666666667
        empty = HBMModel(HBM1_512GBS).service([])
        assert (empty.cycles, empty.total_bytes, empty.bytes_by_region) == (0.0, 0, {})

    def test_reset(self):
        hbm = HBMModel(HBM1_512GBS)
        hbm.service([_stream(100)])
        hbm.reset()
        assert hbm.total_bytes == 0
        assert hbm.total_cycles == 0.0


class TestEnergy:
    def test_seven_pj_per_bit(self):
        hbm = HBMModel(HBM1_512GBS)
        hbm.service([_stream(1000)])
        assert hbm.energy_pj == pytest.approx(1000 * 8 * 7.0)

    def test_writes_cost_same_as_reads(self):
        a = HBMModel(HBM1_512GBS)
        a.service([_stream(1000)])
        b = HBMModel(HBM1_512GBS)
        b.service([_stream(1000, write=True)])
        assert a.energy_pj == b.energy_pj


class TestConfigs:
    def test_table3_bandwidths(self):
        assert HBM1_512GBS.peak_bytes_per_cycle == 512.0
        # 900 GB/s at the V100's 1.25 GHz clock.
        assert HBM2_900GBS.peak_bytes_per_cycle == pytest.approx(720.0)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            AccessPattern(Region.EDGE, total_bytes=-1, run_bytes=8)
        with pytest.raises(ValueError):
            AccessPattern(Region.EDGE, total_bytes=10, run_bytes=0)

    def test_num_runs(self):
        assert _stream(100, run=10).num_runs == pytest.approx(10.0)
        assert _stream(0, run=10).num_runs == 0.0
