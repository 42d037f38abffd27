"""Vectorized simulation kernels.

Every timing-side hot path in the reproduction has two renderings:

* a **retained scalar reference** that follows the paper's pseudocode or
  pipeline diagram cycle by cycle (``repro.core.reduce_pipeline``,
  ``repro.vcpm.optimized``, ``repro.graphdyns.micro``,
  ``HBMModel.service_scalar``), and
* a **vectorized kernel** in this package that computes the identical
  result with numpy array operations -- closed-form cycle models, grouped
  ``ufunc.at`` folds, and batched pattern servicing.

Each component model picks its rendering through a local argument
(``GraphicionadoStreams(kernel=)``, ``run_optimized(kernel=)``,
``simulate_scatter_microarch(engine=)``); there is no ambient or
process-wide selection.  The contract is *bit-exact equivalence*:
cycles, stalls, properties and queue occupancies from the vectorized
kernel must equal the scalar rendering on every input
(``tests/test_kernels_equivalence.py`` enforces this with property-based
streams and graphs).  The kernels exist purely for speed --
``benchmarks/bench_kernels.py`` records the scalar/vectorized gaps in
``BENCH_kernels.json`` -- so paper-scale proxies stop being bounded by
Python interpreter throughput.
"""

from .hbm_batch import batch_cycles_sum, pattern_cycles_batch
from .micro_drain import KernelFallbackWarning, simulate_scatter_microarch_vectorized
from .reduce import (
    fold_ops,
    split_ops,
    stalling_cycle_model,
    stalling_run,
    zero_stall_run,
)
from .scatter_apply import run_optimized_batched

__all__ = [
    "batch_cycles_sum",
    "pattern_cycles_batch",
    "simulate_scatter_microarch_vectorized",
    "fold_ops",
    "split_ops",
    "stalling_cycle_model",
    "stalling_run",
    "zero_stall_run",
    "run_optimized_batched",
    "KernelFallbackWarning",
]
