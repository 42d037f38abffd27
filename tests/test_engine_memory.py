"""An engine holds at most one iteration's edge streams.

numpy reports every array buffer to ``tracemalloc``, so a cell's traced
peak counts live arrays, not heap layout.  Keeping the previous
iteration's gathers and Scatter results alive while the next iteration
gathers read 51 bytes per edge on SSSP x FR; one iteration's ``int64``
streams read about 33, and its ``int32`` blocked streams about 20
(``benchmarks/bench_cell_memory.py`` has every cell).
"""

import gc
import tracemalloc

from repro.graph import datasets
from repro.harness.service import RunService

#: The same bound as ``bench_cell_memory.MAX_BYTES_PER_EDGE``.
MAX_BYTES_PER_EDGE = 40

#: Interpreter bookkeeping moves a repeated cell's peak by a few KB; one
#: retained iteration of SSSP x FR is about 2.6 MB.
REPEAT_TOLERANCE_BYTES = 64 * 1024


def _cell_peak_bytes(algorithm: str, key: str) -> int:
    service = RunService(use_cache=False)
    gc.collect()
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        service.cell(algorithm, key)
        return tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()


def test_sssp_fr_cell_peaks_at_one_iteration_of_edge_streams():
    edges = datasets.load("FR").num_edges
    # Warm-up, untraced: first-call imports and caches stay out of the peaks.
    RunService(use_cache=False).cell("SSSP", "FR")
    first = _cell_peak_bytes("SSSP", "FR")
    second = _cell_peak_bytes("SSSP", "FR")
    assert abs(first - second) <= REPEAT_TOLERANCE_BYTES
    assert max(first, second) <= MAX_BYTES_PER_EDGE * edges, (
        f"SSSP x FR peaks at {max(first, second) / edges:.1f} B/edge"
    )
