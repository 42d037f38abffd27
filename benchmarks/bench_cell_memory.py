#!/usr/bin/env python
"""Per-cell and per-build host memory benchmark -> ``BENCH_memory.json``.

Runs every (algorithm, dataset) cell of the Table 4 matrix through
``RunService(use_cache=False).cell`` -- the functional run plus all four
timing backends -- under ``tracemalloc`` and reports each cell's peak
traced bytes over its starting baseline, in MB and in bytes per graph
edge.  numpy reports every array buffer to ``tracemalloc``, so the peak
is deterministic: it counts live arrays, not heap layout, and two runs
of one cell read the same bytes.  The graph is built before tracing
starts, so only what the cell allocates counts.  Each graph's build
(``datasets.get_spec(key).build()``) is traced the same way and
reported as a build peak::

    PYTHONPATH=src python benchmarks/bench_cell_memory.py              # all Table 4 graphs
    PYTHONPATH=src python benchmarks/bench_cell_memory.py --datasets OR IN
    PYTHONPATH=src python benchmarks/bench_cell_memory.py --quick --check

``--check`` exits non-zero if any cell peaks above
:data:`MAX_BYTES_PER_EDGE` -- the CI smoke gate that keeps an engine
from holding more than one iteration's edge streams -- or if any build
peaks above :data:`MAX_BUILD_BYTES_PER_EDGE`.

Run standalone; not collected by pytest (no ``test_`` functions).
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import tracemalloc
from typing import Dict, List

import numpy as np

from repro import __version__
from repro.graph import datasets
from repro.harness.service import RunService
from repro.vcpm import ALGORITHMS

DEFAULT_OUTPUT = "BENCH_memory.json"

#: Bound on any cell's traced peak per graph edge.  One iteration's edge
#: streams cost about 32 bytes per edge on SSSP x OR with ``int64`` ids
#: and whole-stream gathers, and 16.5 with ``int32`` ids and blocked
#: Scatter (21 on the worst cell); keeping a second iteration's alive
#: read about 51.
MAX_BYTES_PER_EDGE = 40.0

#: Bound on a Table 4 proxy's build peak per edge.  Built in ``int32``
#: they peak at 28.6-37.6 bytes per edge; with ``int64`` ids, 42.7-69.1.
MAX_BUILD_BYTES_PER_EDGE = 44.0

QUICK_DATASETS = ("FR", "PK", "LJ")


def cell_peak_bytes(algorithm: str, key: str) -> int:
    """Traced peak of one uncached cell over its starting baseline."""
    datasets.load(key)  # built (and memoized) outside the traced window
    service = RunService(use_cache=False)
    gc.collect()
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        service.cell(algorithm, key)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - baseline


def build_peak_bytes(key: str) -> int:
    """Traced peak of building ``key`` in memory, over its baseline."""
    spec = datasets.get_spec(key)
    gc.collect()
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        graph = spec.build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del graph
    return peak - baseline


def bench_builds(keys) -> List[Dict]:
    entries = []
    for key in keys:
        edges = datasets.get_spec(key).proxy_edges
        peak = build_peak_bytes(key)
        entries.append(
            {
                "dataset": key,
                "edges": edges,
                "peak_mb": round(peak / 2**20, 2),
                "bytes_per_edge": round(peak / max(edges, 1), 2),
            }
        )
    return entries


def bench_cells(keys) -> List[Dict]:
    entries = []
    for key in keys:
        edges = datasets.load(key).num_edges
        for algorithm in ALGORITHMS:
            peak = cell_peak_bytes(algorithm, key)
            entries.append(
                {
                    "algorithm": algorithm,
                    "dataset": key,
                    "edges": edges,
                    "peak_mb": round(peak / 2**20, 2),
                    "bytes_per_edge": round(peak / max(edges, 1), 2),
                }
            )
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=datasets.available(),
        choices=datasets.available(),
        metavar="KEY",
        help="Table 4 dataset keys to run (default: all eleven)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="FR, PK and LJ only (CI smoke)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            f"exit 1 if a cell peaks above {MAX_BYTES_PER_EDGE:g} bytes per "
            f"edge or a build above {MAX_BUILD_BYTES_PER_EDGE:g}"
        ),
    )
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    keys = list(QUICK_DATASETS) if args.quick else args.datasets
    builds = bench_builds(keys)
    entries = bench_cells(keys)

    payload = {
        "schema": 2,
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "max_bytes_per_edge": MAX_BYTES_PER_EDGE,
        "max_build_bytes_per_edge": MAX_BUILD_BYTES_PER_EDGE,
        "builds": builds,
        "cells": entries,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    for e in builds:
        print(
            f"build {e['dataset']:<4} {e['edges']:>10,} edges  "
            f"peak {e['peak_mb']:8.2f} MB  {e['bytes_per_edge']:6.2f} B/edge"
        )
    for e in entries:
        print(
            f"{e['algorithm']:<5} {e['dataset']:<4} {e['edges']:>10,} edges  "
            f"peak {e['peak_mb']:8.2f} MB  {e['bytes_per_edge']:6.2f} B/edge"
        )
    print(f"wrote {args.output} ({len(builds)} builds, {len(entries)} cells)")

    if args.check:
        over = [
            (f"{e['algorithm']} x {e['dataset']}", e, MAX_BYTES_PER_EDGE)
            for e in entries
            if e["bytes_per_edge"] > MAX_BYTES_PER_EDGE
        ] + [
            (f"build of {e['dataset']}", e, MAX_BUILD_BYTES_PER_EDGE)
            for e in builds
            if e["bytes_per_edge"] > MAX_BUILD_BYTES_PER_EDGE
        ]
        for what, e, bound in over:
            print(
                f"CHECK FAILED: {what} peaks at "
                f"{e['bytes_per_edge']:.2f} B/edge > {bound:g}",
                file=sys.stderr,
            )
        if over:
            return 1
        print(
            f"check ok: every cell peaks at <= {MAX_BYTES_PER_EDGE:g} B/edge, "
            f"every build at <= {MAX_BUILD_BYTES_PER_EDGE:g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
