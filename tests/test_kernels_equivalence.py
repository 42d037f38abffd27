"""Property-based check of batched HBM servicing against a per-pattern fold.

:meth:`HBMModel.service` prices a batch of access patterns concurrently:
their service times add, and the ideal time is that of the batch's total
bytes.  These tests put that under hypothesis against an independent fold
of :meth:`HBMModel.pattern_cycles` and :meth:`HBMModel.ideal_cycles`,
summed left to right: every observable field and the accumulated model
state must match exactly -- no ``approx``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.hbm import HBM1_512GBS, HBMModel
from repro.memory.request import AccessPattern, Region

pattern_batches = st.lists(
    st.tuples(
        st.sampled_from(list(Region)),
        st.integers(0, 20_000),
        st.floats(1, 4096, allow_nan=False),
        st.booleans(),
    ),
    max_size=30,
)


# ----------------------------------------------------------------------
# HBM batched servicing
# ----------------------------------------------------------------------
class TestHBMBatchKernel:
    @settings(max_examples=60, deadline=None, derandomize=True)
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
        reference = HBMModel(HBM1_512GBS)
        cycles = 0.0
        by_region = {}
        for p in patterns:
            cycles += reference.pattern_cycles(p)
            by_region[p.region] = by_region.get(p.region, 0) + p.total_bytes
        total = sum(p.total_bytes for p in patterns)
        reads = sum(p.total_bytes for p in patterns if not p.is_write)

        model = HBMModel(HBM1_512GBS)
        got = model.service(patterns)
        assert got.cycles == cycles
        assert got.total_bytes == total
        assert got.ideal_cycles == reference.ideal_cycles(total)
        assert got.bytes_by_region == by_region
        # Accumulated model state must agree too.
        assert model.total_cycles == cycles
        assert model.total_ideal_cycles == got.ideal_cycles
        assert model.bytes_by_region == {r: by_region.get(r, 0) for r in Region}
        assert model.read_bytes == reads
        assert model.write_bytes == total - reads

    def test_empty_batch(self):
        model = HBMModel(HBM1_512GBS)
        result = model.service([])
        assert result.cycles == 0.0
        assert result.total_bytes == 0
