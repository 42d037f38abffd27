#!/usr/bin/env python
"""Evolving-graph benchmarks -> ``BENCH_dynamic.json``.

Measures what the incremental engine buys on churning graphs: for each
(dataset, algorithm, churn rate) cell, a converged baseline absorbs a
trace of insert-only batches, and every batch is recomputed twice —
once through :func:`repro.vcpm.run_vcpm_incremental` (frontier deltas
seeded from the inserted-edge sources) and once through the retained
full-rerun reference.  The ratio of those times is the speedup column;
the *bit-identity* of their property arrays is the correctness gate.
``apply_s`` is the time spent mutating the graph itself
(``DynamicGraph.apply``), which a user pays on every batch as well::

    PYTHONPATH=src python benchmarks/bench_dynamic.py              # RM22
    PYTHONPATH=src python benchmarks/bench_dynamic.py --quick --check
    PYTHONPATH=src python benchmarks/bench_dynamic.py --datasets RM22 RM23

``--check`` exits non-zero unless every incremental result is
byte-identical to its full rerun AND every insert-only batch of a
monotone algorithm actually took the delta path (a silent fallback
would fake correctness while voiding the benchmark's premise).  Mixed
insert/delete traces are benchmarked too — their rows document the
fallback cost rather than a win.

Run standalone; not collected by pytest (no ``test_`` functions).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Dict, List

import numpy as np

from repro import __version__
from repro.graph import datasets
from repro.graph.dynamic import DynamicGraph, churn_batches
from repro.metrics.counters import ChurnStats
from repro.vcpm import get_algorithm, run_vcpm
from repro.vcpm.incremental import run_vcpm_incremental

DEFAULT_OUTPUT = "BENCH_dynamic.json"

#: Batch size as a fraction of the dataset's edge count.
CHURN_RATES = (0.001, 0.01, 0.05)

MONOTONE_ALGORITHMS = ("BFS", "SSSP")


def bench_cell(
    graph_key: str,
    algorithm: str,
    churn_rate: float,
    num_batches: int,
    insert_fraction: float,
    seed: int = 42,
) -> Dict:
    """One (dataset, algorithm, churn-rate) row of the report."""
    base = datasets.load(graph_key)
    spec = get_algorithm(algorithm)
    batch_edges = max(1, int(round(base.num_edges * churn_rate)))
    dynamic = DynamicGraph(base, key=f"BENCH-{graph_key}")

    previous = run_vcpm(dynamic.graph, spec, source=0)
    stats = ChurnStats()
    apply_s = 0.0
    incremental_s = 0.0
    full_s = 0.0
    bit_identical = True
    for batch in churn_batches(
        dynamic.graph,
        num_batches=num_batches,
        batch_edges=batch_edges,
        insert_fraction=insert_fraction,
        seed=seed,
    ):
        start = time.perf_counter()
        dynamic.apply(batch)
        apply_s += time.perf_counter() - start
        stats.record_batch(batch)

        start = time.perf_counter()
        outcome = run_vcpm_incremental(
            dynamic.graph, spec, batch, previous, source=0
        )
        incremental_s += time.perf_counter() - start
        stats.record(outcome)

        start = time.perf_counter()
        reference = run_vcpm(dynamic.graph, spec, source=0)
        full_s += time.perf_counter() - start

        if (
            outcome.result.properties.tobytes()
            != reference.properties.tobytes()
        ):
            bit_identical = False
        previous = outcome.result

    return {
        "dataset": graph_key,
        "algorithm": algorithm,
        "churn_rate": churn_rate,
        "batch_edges": batch_edges,
        "batches": num_batches,
        "insert_fraction": insert_fraction,
        "delta_runs": stats.delta_runs,
        "full_runs": stats.full_runs,
        "delta_fraction": round(stats.delta_fraction, 4),
        "edges_inserted": stats.edges_inserted,
        "edges_deleted": stats.edges_deleted,
        "delta_iterations": stats.delta_iterations,
        "full_iterations": stats.full_iterations,
        "apply_s": round(apply_s, 6),
        "incremental_s": round(incremental_s, 6),
        "full_rerun_s": round(full_s, 6),
        "speedup": (
            round(full_s / incremental_s, 3) if incremental_s > 0 else None
        ),
        "bit_identical": bit_identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=["RM22"],
        choices=sorted(datasets.available()),
        help="dataset keys to benchmark (default: RM22)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smallest proxy, fewest batches (CI smoke)",
    )
    parser.add_argument(
        "--batches",
        type=int,
        default=8,
        help="churn batches per cell (default: 8)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on any bit divergence or any insert-only batch of a "
        "monotone algorithm that failed to take the delta path",
    )
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    keys = ["RM22"] if args.quick else args.datasets
    num_batches = 4 if args.quick else max(1, args.batches)

    entries: List[Dict] = []
    for key in keys:
        for algorithm in MONOTONE_ALGORITHMS:
            for rate in CHURN_RATES:
                entries.append(
                    bench_cell(
                        key, algorithm, rate, num_batches,
                        insert_fraction=1.0,
                    )
                )
        # One mixed-trace row: documents the full-rerun fallback cost.
        entries.append(
            bench_cell(
                key, "SSSP", CHURN_RATES[1], num_batches,
                insert_fraction=0.5,
            )
        )

    payload = {
        "schema": 1,
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "datasets": {
            key: {
                "vertices": datasets.get_spec(key).proxy_vertices,
                "edges": datasets.get_spec(key).proxy_edges,
            }
            for key in keys
        },
        "benchmarks": entries,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    for e in entries:
        speedup = f"{e['speedup']:8.2f}x" if e["speedup"] else "      --"
        print(
            f"{e['dataset']}  {e['algorithm']:<5} "
            f"rate={e['churn_rate']:<6} "
            f"delta {e['delta_runs']}/{e['delta_runs'] + e['full_runs']}  "
            f"apply {e['apply_s'] * 1e3:9.2f} ms  "
            f"incr {e['incremental_s'] * 1e3:9.2f} ms  "
            f"full {e['full_rerun_s'] * 1e3:9.2f} ms  {speedup}  "
            f"{'bit-identical' if e['bit_identical'] else 'DIVERGED'}"
        )

    if args.check:
        failures = []
        for e in entries:
            if not e["bit_identical"]:
                failures.append(
                    f"{e['dataset']}/{e['algorithm']}@{e['churn_rate']}: "
                    "incremental result diverged from full rerun"
                )
            if e["insert_fraction"] >= 1.0 and e["full_runs"] > 0:
                failures.append(
                    f"{e['dataset']}/{e['algorithm']}@{e['churn_rate']}: "
                    f"{e['full_runs']} insert-only batch(es) fell back "
                    "to full rerun"
                )
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("check passed: all cells bit-identical, delta path held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
