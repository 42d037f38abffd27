"""Shared state for the benchmark harness.

One :class:`~repro.harness.service.RunService` is shared by every
benchmark in the session so the 5-algorithm x 6-graph matrix is executed
once; individual benchmarks then regenerate their table/figure from the
memoized cells.  The service is additionally backed by one *persistent*
run-service cache (``benchmarks/.run_cache`` by default, override with
``REPRO_BENCH_CACHE_DIR``), so a second benchmark invocation replays the
matrix from disk instead of re-simulating it; ``REPRO_BENCH_JOBS``
controls parallel fan-out of cold cells.  Each benchmark prints the
reproduced rows so `pytest benchmarks/ --benchmark-only -s` doubles as
the paper-reproduction report.
"""

import os

import pytest

from repro.harness import RunService

_CACHE_DIR = os.environ.get(
    "REPRO_BENCH_CACHE_DIR",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), ".run_cache"),
)
_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


@pytest.fixture(scope="session")
def service() -> RunService:
    shared = RunService(cache_dir=_CACHE_DIR, jobs=_JOBS)
    yield shared
    stats = shared.stats
    if stats.requests:
        print(
            f"\n[run-service cache] dir={shared.cache_dir} "
            f"hits={stats.hits} misses={stats.misses} "
            f"memory_hits={stats.memory_hits} stores={stats.stores} "
            f"hit_rate={stats.hit_rate:.0%}"
        )


def run_once(benchmark, fn):
    """Benchmark a regenerator with a single timed round.

    Figure regenerators run full accelerator models (seconds to minutes);
    statistical repetition would add nothing but wall-clock.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
