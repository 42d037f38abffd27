#!/usr/bin/env python
"""RAW-conflict counting benchmark -> ``BENCH_kernels.json``.

Times :func:`repro.memory.crossbar.grouped_duplicate_count` (blocked:
column compares for narrow groups, in-place row sorts for wide ones)
against the plain row-sort reference on the destination streams that
``run_vcpm`` produces for every algorithm on the Table 4 proxies, at
Graphicionado's 8-flit conflict window and Gunrock's 256-wide atomic
window::

    PYTHONPATH=src python benchmarks/bench_kernels.py                # FR PK LJ
    PYTHONPATH=src python benchmarks/bench_kernels.py --datasets LJ
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick --check

Every frontier's count is compared with the reference's before it is
timed.  ``--check`` exits non-zero on any count mismatch, or if the
blocked count is slower than the reference on any (dataset, width) --
the CI smoke gate.

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
from repro.memory.crossbar import grouped_duplicate_count
from repro.vcpm import ALGORITHMS, run_vcpm

DEFAULT_OUTPUT = "BENCH_kernels.json"

#: Graphicionado's RAW window and Gunrock's atomic window.
WIDTHS = (8, 256)


def row_sort_reference(dst: np.ndarray, group_width: int) -> int:
    """Sort every group as a row of one ``(n // w, w)`` copy, count equal neighbours."""
    dst = np.asarray(dst)
    n = dst.size
    if n == 0 or group_width < 2:
        return 0
    full = n - n % group_width
    rows = np.sort(dst[:full].reshape(-1, group_width), axis=1)
    tail = np.sort(dst[full:])
    return int(
        np.count_nonzero(rows[:, 1:] == rows[:, :-1])
        + np.count_nonzero(tail[1:] == tail[:-1])
    )


def _best_of(fn: Callable[[], object], repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class _StreamTimer:
    """Observer timing both counts on each distinct frontier's stream."""

    def __init__(self, repeat: int) -> None:
        self.repeat = repeat
        self.frontier = None
        self.totals = {w: {"frontiers": 0, "flits": 0, "blocked_s": 0.0,
                           "row_sort_s": 0.0, "mismatches": 0} for w in WIDTHS}

    def on_iteration(self, data) -> None:
        # PR keeps one all-vertex frontier across iterations; the
        # observers' memo counts it once, and so does this benchmark.
        if data.frontier is self.frontier or not data.num_edges:
            return
        self.frontier = data.frontier
        dst = data.edge_dst
        for width, total in self.totals.items():
            if grouped_duplicate_count(dst, width) != row_sort_reference(dst, width):
                total["mismatches"] += 1
            total["frontiers"] += 1
            total["flits"] += int(dst.size)
            total["blocked_s"] += _best_of(
                lambda: grouped_duplicate_count(dst, width), self.repeat
            )
            total["row_sort_s"] += _best_of(
                lambda: row_sort_reference(dst, width), self.repeat
            )


def bench_conflicts(key: str, repeat: int) -> List[Dict]:
    """Blocked vs row-sort counts over every algorithm's frontiers on ``key``."""
    graph = datasets.load(key)
    timer = _StreamTimer(repeat)
    for spec in ALGORITHMS.values():
        timer.frontier = None
        run_vcpm(graph, spec, source=0, observers=[timer])
    entries = []
    for width, total in timer.totals.items():
        blocked, row_sort = total["blocked_s"], total["row_sort_s"]
        entries.append(
            {
                "name": f"conflict_count_w{width}",
                "dataset": key,
                "frontiers": total["frontiers"],
                "flits": total["flits"],
                "row_sort_s": round(row_sort, 6),
                "blocked_s": round(blocked, 6),
                "speedup": round(row_sort / max(blocked, 1e-9), 2),
                "equal": total["mismatches"] == 0,
            }
        )
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=["FR", "PK", "LJ"],
        choices=sorted(datasets.DATASETS),
        metavar="KEY",
        help="dataset keys whose frontiers are timed (default: FR PK LJ)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="FR only, single timing round (CI smoke)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on a count mismatch or a blocked count slower than the reference",
    )
    parser.add_argument("--repeat", type=int, default=3, help="best-of rounds")
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    keys = ["FR"] if args.quick else args.datasets
    repeat = 1 if args.quick else max(args.repeat, 1)

    entries: List[Dict] = []
    for key in keys:
        entries.extend(bench_conflicts(key, repeat))

    payload = {
        "schema": 5,
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
            f"{e['name']:<{width}}  {e['dataset']:<3} {e['flits']:>11,} flits  "
            f"row-sort {e['row_sort_s'] * 1e3:8.2f} ms  "
            f"blocked {e['blocked_s'] * 1e3:8.2f} ms  {e['speedup']:5.2f}x"
        )
    print(f"wrote {args.output} ({len(entries)} benchmarks)")

    if args.check:
        failed = False
        for e in entries:
            if not e["equal"]:
                print(f"CHECK FAILED: {e['name']} on {e['dataset']}: counts differ",
                      file=sys.stderr)
                failed = True
            elif e["blocked_s"] > e["row_sort_s"]:
                print(
                    f"CHECK FAILED: {e['name']} on {e['dataset']}: blocked slower "
                    f"({e['blocked_s']:.4f}s > {e['row_sort_s']:.4f}s)",
                    file=sys.stderr,
                )
                failed = True
        if failed:
            return 1
        print("check ok: blocked counts equal the row-sort reference and are not slower")
    return 0


if __name__ == "__main__":
    sys.exit(main())
