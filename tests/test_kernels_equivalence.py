"""Property-based scalar-vs-batched HBM servicing equivalence.

:meth:`HBMModel.service` prices a batch of access patterns through the
array kernel in :mod:`repro.kernels.hbm_batch`; it claims to be
*bit-identical* to the retained per-pattern reference
:meth:`HBMModel.service_scalar`.  These tests put that claim under
hypothesis: every observable field and the accumulated model state must
match exactly -- no ``approx``.
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
