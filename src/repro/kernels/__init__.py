"""Vectorized simulation kernels.

One kernel remains: :mod:`repro.kernels.hbm_batch`, the array rendering
of :meth:`HBMModel.pattern_cycles` that :meth:`HBMModel.service` uses on
every timing model's memory path.  Its retained scalar reference is
:meth:`HBMModel.service_scalar`; the contract is *bit-exact
equivalence* of cycles, bytes and accumulated model state
(``tests/test_kernels_equivalence.py`` enforces it with property-based
pattern batches, and ``benchmarks/bench_kernels.py --check`` times both
renderings and asserts they agree).

The other component models (the Reduce Pipelines, Algorithm 2, the
Scatter micro-model) have a single, scalar rendering: none of them is on
the reported path, so they stay as the readable specification.
"""

from .hbm_batch import batch_cycles_sum, pattern_cycles_batch

__all__ = [
    "batch_cycles_sum",
    "pattern_cycles_batch",
]
