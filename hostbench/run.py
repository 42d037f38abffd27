#!/usr/bin/env python3
"""Host-time benchmark of the reproduction: one workload per invocation.

Usage, from the root of a checkout::

    python3 hostbench/run.py --workload table4-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
timed phase once untraced and once with the layer wrappers installed,
and prints the per-layer metrics.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it (prefixed ``#``) give the environment,
the output digest and the op sample counts.  See ``README.md`` beside
this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".hostbench-work")

#: Repetitions of the set-up phase; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Metric names and units, defined once at the repository root.
UNITS_FILE = os.path.join(ROOT, "BENCHMARK.json")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _noise_controls(work_dir: str) -> None:
    """Single-threaded math libraries and private temp/spill dirs.

    Set before numpy is imported, and inherited by worker processes.
    The native kernel provider stays off: no kernel-tier function is on
    a measured path, and loading it would read or build a native module
    outside the checkout.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for sub in ("spill", "tmp"):
        os.makedirs(os.path.join(work_dir, sub))
    os.environ["REPRO_SPILL_DIR"] = os.path.join(work_dir, "spill")
    os.environ["TMPDIR"] = os.path.join(work_dir, "tmp")
    os.environ["REPRO_COMPILE_BACKEND"] = "none"
    tempfile.tempdir = None  # re-read TMPDIR


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _timed_phase(workload):
    gc.collect()
    return workload.run()


def _metric_units(section: str):
    with open(UNITS_FILE) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def _emit(info: dict, result: dict, section: str, values: dict) -> None:
    units = _metric_units(section)
    result["metrics"] = {
        name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
    }
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        _noise_controls(work_dir)
        return _run(args, work_dir)
    finally:
        if "repro.graph.datasets" in sys.modules:
            sys.modules["repro.graph.datasets"].clear_cache()  # close spills
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it


def _run(args, work_dir: str) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import repro  # noqa: F401  (fails, with no result, outside a checkout)

    import_s = time.perf_counter() - start
    import numpy as np

    from workloads import WORKLOADS, op_percentiles

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.seconds, work_dir)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }

    if not args.trace:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        outcome = _timed_phase(workload)
        p50, tail, tail_label = op_percentiles(outcome.op_s)
        info.update(digest=outcome.digest, op_s_tail=tail_label, notes=outcome.notes)
        result = {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
        }
        _emit(
            info,
            result,
            "end_to_end",
            {
                "setup_s": statistics.median(setup_s),
                "wall_s": outcome.wall_s,
                "sim_edges_per_s": outcome.edges / outcome.wall_s,
                "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
                "op_s.p50": p50,
                "op_s.tail": tail,
            },
        )
        return 0

    from layers import LayerTracer

    workload.setup()
    plain = _timed_phase(workload)
    tracer = LayerTracer()
    tracer.install()
    try:
        workload.unrecorded = tracer.paused
        start = time.perf_counter()
        workload.setup()
        traced_setup_s = time.perf_counter() - start
        traced = _timed_phase(workload)
    finally:
        tracer.uninstall()
    same = traced.digest == plain.digest
    failed = plain.failed + (traced.failed if same else traced.attempted)
    traced_s = traced_setup_s + traced.wall_s
    values = tracer.metrics(traced_s)
    values.update(
        {
            "host.import_s": import_s,
            "trace.overhead_s": traced.wall_s - plain.wall_s,
            "workers.peak_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
            "service.bytes_written": traced.bytes_written,
        }
    )
    info.update(
        digest=traced.digest,
        traced_identical=same,
        traced_s=traced_s,
        absent_layers=tracer.absent,
        notes=plain.notes + traced.notes,
    )
    result = {
        "correct": failed == 0,
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
    }
    _emit(info, result, "per_layer", values)
    return 0


if __name__ == "__main__":
    sys.exit(main())
