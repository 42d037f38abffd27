#!/usr/bin/env python
"""HBM batch-kernel benchmark -> ``BENCH_kernels.json``.

Times :meth:`HBMModel.service_scalar` (the per-pattern reference)
against :meth:`HBMModel.service` (the array kernel in
:mod:`repro.kernels.hbm_batch` that every timing model uses) on Table 4
RMAT proxies and records the speedup::

    PYTHONPATH=src python benchmarks/bench_kernels.py                # RM22
    PYTHONPATH=src python benchmarks/bench_kernels.py --datasets RM22 RM23
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick --check

Each benchmark asserts the renderings produce identical results before
timing them (a wrong kernel must never produce a speedup number).
``--check`` exits non-zero unless the kernel is at least as fast as its
scalar reference -- the CI smoke gate.

Run standalone; not collected by pytest (no ``test_`` functions).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Callable, Dict, List

import numpy as np

from repro import __version__
from repro.graph import datasets
from repro.memory.hbm import HBM1_512GBS, HBMModel
from repro.memory.request import AccessPattern, Region

DEFAULT_OUTPUT = "BENCH_kernels.json"


def _best_of(fn: Callable[[], object], repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _entry(name, dataset, scalar_s, vectorized_s, detail):
    return {
        "name": name,
        "dataset": dataset,
        "scalar_s": round(scalar_s, 6),
        "vectorized_s": round(vectorized_s, 6),
        "speedup": round(scalar_s / max(vectorized_s, 1e-9), 2),
        "equal": True,  # asserted before timing
        "detail": detail,
    }


def bench_hbm_service(key: str, repeat: int) -> List[Dict]:
    """Per-pattern HBM servicing vs the batched kernel."""
    graph = datasets.load(key)
    degrees = np.maximum(graph.out_degree(), 1)
    regions = list(Region)
    patterns = [
        AccessPattern(
            region=regions[int(v) % len(regions)],
            total_bytes=int(d) * 8,
            run_bytes=float(min(int(d) * 8, 256)),
            is_write=bool(v % 2),
        )
        for v, d in enumerate(degrees)
    ]
    scalar_model = HBMModel(HBM1_512GBS)
    batch_model = HBMModel(HBM1_512GBS)
    ref = scalar_model.service_scalar(patterns)
    got = batch_model.service(patterns)
    assert ref.cycles == got.cycles
    assert ref.bytes_by_region == got.bytes_by_region
    model = HBMModel(HBM1_512GBS)
    scalar_s = _best_of(lambda: model.service_scalar(patterns), repeat)
    vector_s = _best_of(lambda: model.service(patterns), repeat)
    return [
        _entry(
            "hbm_service",
            key,
            scalar_s,
            vector_s,
            f"{len(patterns)} access patterns",
        )
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=["RM22"],
        choices=[s.key for s in datasets.RMAT_SCALING],
        help="RMAT proxy keys to benchmark (default: RM22)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smallest proxy only, single timing round (CI smoke)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless the kernel is <= its scalar reference's time",
    )
    parser.add_argument("--repeat", type=int, default=3, help="best-of rounds")
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    keys = ["RM22"] if args.quick else args.datasets
    repeat = 1 if args.quick else max(args.repeat, 1)

    entries: List[Dict] = []
    for key in keys:
        entries.extend(bench_hbm_service(key, repeat))

    payload = {
        "schema": 4,
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "datasets": {
            key: {
                "vertices": datasets.DATASETS[key].proxy_vertices,
                "edges": datasets.DATASETS[key].proxy_edges,
            }
            for key in keys
        },
        "benchmarks": entries,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    width = max(len(e["name"]) for e in entries)
    for e in entries:
        print(
            f"{e['name']:<{width}}  {e['dataset']}  "
            f"scalar {e['scalar_s'] * 1e3:9.2f} ms  "
            f"vectorized {e['vectorized_s'] * 1e3:8.2f} ms  "
            f"{e['speedup']:8.1f}x"
        )
    print(f"wrote {args.output} ({len(entries)} benchmarks)")

    if args.check:
        slow = [e for e in entries if e["vectorized_s"] > e["scalar_s"]]
        for e in slow:
            print(
                f"CHECK FAILED: {e['name']} vectorized slower than scalar "
                f"({e['vectorized_s']:.4f}s > {e['scalar_s']:.4f}s)",
                file=sys.stderr,
            )
        if slow:
            return 1
        print("check ok: the batch kernel is <= its scalar reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
