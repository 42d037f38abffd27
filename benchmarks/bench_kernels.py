#!/usr/bin/env python
"""Scalar-vs-vectorized kernel benchmarks -> ``BENCH_kernels.json``.

Times every retained scalar reference against its vectorized kernel on
Table 4 RMAT proxies and records the speedups, so the performance
trajectory of the simulation hot paths is tracked in-repo from the PR
that introduced the kernel layer onward::

    PYTHONPATH=src python benchmarks/bench_kernels.py                # RM22
    PYTHONPATH=src python benchmarks/bench_kernels.py --datasets RM22 RM23
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick --check
    PYTHONPATH=src python benchmarks/bench_kernels.py --full-row

``--full-row`` appends a paper-scale out-of-core row (RM22-FULL via mmap
storage) for the vectorized stalling reduce, where the ``np.unique`` sort
inside the fold dominates.

Each benchmark asserts the renderings produce identical results before
timing them (a wrong kernel must never produce a speedup number).  The
paper-scale row cannot afford its scalar replay, so its ``equal`` is
asserted against the vectorized kernel -- itself oracle-proven equal to
the scalar reference at proxy scale.  ``--check`` exits non-zero unless
every vectorized kernel is at least as fast as its scalar reference --
the CI smoke gate.

Run standalone; not collected by pytest (no ``test_`` functions).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import warnings
from typing import Callable, Dict, List

import numpy as np

from repro import __version__
from repro.core import StallingReducePipeline, ZeroStallReducePipeline
from repro.graph import datasets
from repro.graphdyns.config import GraphDynSConfig
from repro.graphdyns.micro import simulate_scatter_microarch
from repro.kernels import (
    simulate_scatter_microarch_vectorized,
    split_ops,
    stalling_run,
    zero_stall_run,
)
from repro.memory.hbm import HBM1_512GBS, HBMModel
from repro.memory.request import AccessPattern, Region
from repro.vcpm import ALGORITHMS, run_optimized
from repro.vcpm.spec import ReduceOp

DEFAULT_OUTPUT = "BENCH_kernels.json"


def _best_of(fn: Callable[[], object], repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _entry(
    name,
    dataset,
    scalar_s,
    vectorized_s,
    detail,
    equal_vs="scalar",
):
    return {
        "name": name,
        "dataset": dataset,
        "scalar_s": round(scalar_s, 6) if scalar_s is not None else None,
        "vectorized_s": round(vectorized_s, 6),
        "speedup": (
            round(scalar_s / max(vectorized_s, 1e-9), 2)
            if scalar_s is not None
            else None
        ),
        "equal": True,  # asserted before timing
        "equal_vs": equal_vs,
        "detail": detail,
    }


def bench_reduce_pipelines(key: str, repeat: int) -> List[Dict]:
    """Both Reduce Pipeline cycle models over the proxy's edge stream."""
    graph = datasets.load(key)
    ops = list(zip(graph.edges.tolist(), graph.weights.tolist()))
    addrs, values = split_ops(ops)
    entries = []
    for label, op, scalar_cls, kernel in (
        ("reduce_zero_stall", ReduceOp.SUM, ZeroStallReducePipeline, zero_stall_run),
        ("reduce_stalling", ReduceOp.MIN, StallingReducePipeline, stalling_run),
    ):
        pipeline = scalar_cls(op)
        reference = pipeline.run(ops)
        result = kernel(addrs, values, op)
        assert (
            reference.cycles,
            reference.stall_cycles,
            reference.vb,
        ) == (result.cycles, result.stall_cycles, result.vb), label
        scalar_s = _best_of(lambda: pipeline.run(ops), repeat)
        vector_s = _best_of(lambda: kernel(addrs, values, op), repeat)
        entries.append(
            _entry(
                label,
                key,
                scalar_s,
                vector_s,
                f"{len(ops)} store-reduce ops, {op.value} fold",
            )
        )
    return entries


def bench_stalling_outofcore(repeat: int) -> List[Dict]:
    """Paper-scale stalling reduce over RM22-FULL's mmap edge stream.

    The scalar pipeline would replay 67M Python tuples, so the equality
    basis here is the vectorized kernel (oracle-proven equal to the
    scalar reference at proxy scale by ``tests/test_kernels_equivalence``).
    """
    graph = datasets.load("RM22-FULL", storage="mmap")
    addrs = np.ascontiguousarray(graph.edges, dtype=np.int64)
    values = np.ascontiguousarray(graph.weights, dtype=np.float64)
    op = ReduceOp.MIN
    vector_s = _best_of(lambda: stalling_run(addrs, values, op), repeat)
    return [
        _entry(
            "reduce_stalling_outofcore",
            "RM22-FULL",
            None,
            vector_s,
            f"{addrs.size} store-reduce ops, min fold, mmap storage",
            equal_vs="vectorized",
        )
    ]


def bench_algorithm2(key: str, repeat: int) -> List[Dict]:
    """Algorithm 2 end to end: scalar processing loops vs batched."""
    graph = datasets.load(key)
    entries = []
    for algo in ("BFS", "SSSP"):
        spec = ALGORITHMS[algo]
        scalar = run_optimized(graph, spec, source=0)
        batched = run_optimized(graph, spec, source=0, kernel="batched")

        def _assert_same(other, label):
            assert np.array_equal(
                np.nan_to_num(scalar.properties, posinf=1e30),
                np.nan_to_num(other.properties, posinf=1e30),
            ), label
            assert (
                scalar.num_iterations,
                scalar.edges_processed,
                scalar.scatter_dispatches,
                scalar.apply_dispatches,
            ) == (
                other.num_iterations,
                other.edges_processed,
                other.scatter_dispatches,
                other.apply_dispatches,
            ), label

        _assert_same(batched, algo)
        scalar_s = _best_of(lambda: run_optimized(graph, spec, source=0), repeat)
        vector_s = _best_of(
            lambda: run_optimized(graph, spec, source=0, kernel="batched"),
            repeat,
        )
        entries.append(
            _entry(
                f"algorithm2_{algo.lower()}",
                key,
                scalar_s,
                vector_s,
                f"{scalar.edges_processed} edges over "
                f"{scalar.num_iterations} iterations",
            )
        )
    return entries


def bench_micro_drain(key: str, repeat: int) -> List[Dict]:
    """Event-driven Scatter replay vs the closed-form drain schedule."""
    graph = datasets.load(key)
    config = GraphDynSConfig(num_pes=16, n_simt=8, num_ues=128)
    streams = np.array_split(graph.edges, config.num_pes)
    depth = 256  # roomy FIFOs: the pure closed-form drain regime
    event = simulate_scatter_microarch(streams, config, ue_queue_depth=depth)
    fast = simulate_scatter_microarch_vectorized(
        streams, config, ue_queue_depth=depth
    )
    assert event == fast
    scalar_s = _best_of(
        lambda: simulate_scatter_microarch(streams, config, ue_queue_depth=depth),
        repeat,
    )
    vector_s = _best_of(
        lambda: simulate_scatter_microarch_vectorized(
            streams, config, ue_queue_depth=depth
        ),
        repeat,
    )
    depth_bp = 2  # shallow FIFOs: back-pressure invalidates the closed form
    bp_event = simulate_scatter_microarch(streams, config, ue_queue_depth=depth_bp)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bp_fallback = simulate_scatter_microarch_vectorized(
            streams, config, ue_queue_depth=depth_bp
        )
        assert bp_event == bp_fallback
        scalar_bp = _best_of(
            lambda: simulate_scatter_microarch(
                streams, config, ue_queue_depth=depth_bp
            ),
            repeat,
        )
        vector_bp = _best_of(
            lambda: simulate_scatter_microarch_vectorized(
                streams, config, ue_queue_depth=depth_bp
            ),
            repeat,
        )
    bp_entry = _entry(
        "micro_drain_backpressure",
        key,
        scalar_bp,
        vector_bp,
        f"{int(sum(s.size for s in streams))} edge results, "
        f"FIFO depth {depth_bp} (closed form invalid)",
    )
    # In this regime the vectorized kernel *is* the event loop (plus a
    # failed closed-form attempt), so the vectorized<=scalar gate does
    # not apply; the row records what the fallback costs.
    bp_entry["vectorized_is_fallback"] = True
    return [
        _entry(
            "micro_drain",
            key,
            scalar_s,
            vector_s,
            f"{int(sum(s.size for s in streams))} edge results, "
            f"{config.num_pes} PEs x {config.num_ues} UEs",
        ),
        bp_entry,
    ]


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


BENCHES = [
    bench_reduce_pipelines,
    bench_algorithm2,
    bench_micro_drain,
    bench_hbm_service,
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
        help="exit 1 unless every vectorized kernel is <= its scalar time",
    )
    parser.add_argument("--repeat", type=int, default=3, help="best-of rounds")
    parser.add_argument(
        "--full-row",
        action="store_true",
        help="append the RM22-FULL out-of-core stalling reduce row "
        "(mmap storage; no scalar replay at this scale)",
    )
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    keys = ["RM22"] if args.quick else args.datasets
    repeat = 1 if args.quick else max(args.repeat, 1)

    entries: List[Dict] = []
    for key in keys:
        for bench in BENCHES:
            entries.extend(bench(key, repeat))
    if args.full_row:
        entries.extend(bench_stalling_outofcore(repeat))

    payload = {
        "schema": 3,
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
        scalar_col = (
            f"scalar {e['scalar_s'] * 1e3:9.2f} ms"
            if e["scalar_s"] is not None
            else "scalar       --    "
        )
        speedup_col = (
            f"{e['speedup']:8.1f}x" if e["speedup"] is not None else "      --"
        )
        line = (
            f"{e['name']:<{width}}  {e['dataset']}  {scalar_col}  "
            f"vectorized {e['vectorized_s'] * 1e3:8.2f} ms  {speedup_col}"
        )
        print(line)
    print(f"wrote {args.output} ({len(entries)} benchmarks)")

    if args.check:
        slow = [
            e
            for e in entries
            if e["scalar_s"] is not None
            and not e.get("vectorized_is_fallback")
            and e["vectorized_s"] > e["scalar_s"]
        ]
        for e in slow:
            print(
                f"CHECK FAILED: {e['name']} vectorized slower than scalar "
                f"({e['vectorized_s']:.4f}s > {e['scalar_s']:.4f}s)",
                file=sys.stderr,
            )
        if slow:
            return 1
        print("check ok: every vectorized kernel <= its scalar reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
