#!/usr/bin/env python
"""Serving-daemon smoke drill -> ``BENCH_serve.json``.

End-to-end battery against a real ``python -m repro serve`` subprocess,
exercising the durability claims the daemon makes:

1. **baseline** — start a daemon, submit a 2-cell matrix (BFS+CC on
   RM22) over HTTP, poll to completion, fetch the canonical reports.
2. **crash/resume** — start a second daemon with ``kill-daemon:2``
   injected (the host ``os._exit(86)``'s at the 2nd cell start — a
   deterministic ``kill -9`` mid-matrix), submit the same job, watch the
   process die, restart against the same journal + cache, and require
   the resumed job's reports to be **byte-identical** to the baseline.
3. **drain** — SIGTERM the restarted daemon and require a clean exit
   (code 0) plus a journal that folds with nothing left unfinished.

Usage::

    PYTHONPATH=src python benchmarks/serve_smoke.py --check
    PYTHONPATH=src python benchmarks/serve_smoke.py --output BENCH_serve.json

``--check`` exits non-zero unless every invariant above holds — the CI
gate for the serving tier.

Run standalone; not collected by pytest (no ``test_`` functions).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(_HERE, "..", "src")
sys.path.insert(0, _SRC)

from repro import __version__  # noqa: E402
from repro.harness.serve import (  # noqa: E402
    fetch_result,
    http_json,
    submit_job,
    wait_for_job,
)

ALGORITHMS = ["BFS", "CC"]
GRAPHS = ["RM22"]
WAIT_S = 180.0


def start_daemon(
    workdir: str, inject: Tuple[str, ...] = ()
) -> Tuple[subprocess.Popen, str]:
    """Launch ``repro serve`` on an ephemeral port; return (proc, url)."""
    announce = os.path.join(workdir, "announce.json")
    if os.path.exists(announce):
        os.remove(announce)
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--journal", os.path.join(workdir, "jobs.jsonl"),
        "--cache-dir", os.path.join(workdir, "cache"),
        "--announce", announce,
        "--drain-timeout", "5",
    ]
    for fault in inject:
        cmd += ["--inject", fault]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(_SRC))
    proc = subprocess.Popen(cmd, env=env, cwd=workdir)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited early: rc={proc.returncode}")
        if os.path.exists(announce):
            try:
                with open(announce) as handle:
                    return proc, json.load(handle)["url"]
            except (ValueError, KeyError):
                pass  # torn announce write; retry
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("daemon never announced its port")


def terminate(proc: subprocess.Popen) -> int:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=5)
    return proc.returncode


def run_baseline(root: str) -> Dict[str, object]:
    workdir = os.path.join(root, "baseline")
    os.makedirs(workdir)
    t0 = time.perf_counter()
    proc, url = start_daemon(workdir)
    try:
        _, _, body = submit_job(url, ALGORITHMS, GRAPHS)
        job_id = body["job"]["id"]
        final = wait_for_job(url, job_id, timeout=WAIT_S)
        status, reports = fetch_result(url, job_id)
        return {
            "state": final["state"],
            "result_status": status,
            "reports": reports,
            "digest": final.get("result_digest"),
            "wall_s": round(time.perf_counter() - t0, 2),
        }
    finally:
        terminate(proc)


def run_crash_resume(root: str, baseline: Dict[str, object]) -> Dict[str, object]:
    workdir = os.path.join(root, "crash")
    os.makedirs(workdir)
    t0 = time.perf_counter()

    # Phase 1: the daemon dies at the 2nd cell start, mid-matrix.
    proc, url = start_daemon(workdir, inject=("kill-daemon:2",))
    _, _, body = submit_job(url, ALGORITHMS, GRAPHS)
    job_id = body["job"]["id"]
    crash_rc = proc.wait(timeout=120)

    # Phase 2: restart against the same journal + cache; the job must
    # resume (journal folds to started-but-unfinished), finished cells
    # replay from the persistent cache, and the reports must match the
    # uninterrupted baseline byte for byte.
    proc, url = start_daemon(workdir)
    try:
        _, _, stats = http_json(url + "/v1/stats")
        final = wait_for_job(url, job_id, timeout=WAIT_S)
        status, reports = fetch_result(url, job_id)
        drain_rc = terminate(proc)
    finally:
        terminate(proc)

    # Phase 3: one more boot proves the drained journal folds clean.
    proc, url = start_daemon(workdir)
    try:
        _, _, stats_after = http_json(url + "/v1/stats")
    finally:
        terminate(proc)

    return {
        "crash_exit_code": crash_rc,
        "resumed_jobs": stats.get("resumed"),
        "state": final["state"],
        "resumed_flag": final.get("resumed"),
        "result_status": status,
        "byte_identical": reports == baseline["reports"],
        "drain_exit_code": drain_rc,
        "resumed_after_drain": stats_after.get("resumed"),
        "wall_s": round(time.perf_counter() - t0, 2),
    }


def check(baseline: Dict[str, object], crash: Dict[str, object]) -> List[str]:
    failures = []
    if baseline["state"] != "done":
        failures.append(f"baseline state {baseline['state']!r} != 'done'")
    if crash["crash_exit_code"] != 86:
        failures.append(
            f"injected kill exited {crash['crash_exit_code']} != 86"
        )
    if crash["resumed_jobs"] != 1:
        failures.append(f"resumed {crash['resumed_jobs']} jobs != 1")
    if crash["state"] != "done" or crash["resumed_flag"] is not True:
        failures.append("resumed job did not finish with resumed=True")
    if not crash["byte_identical"]:
        failures.append("resumed reports differ from the baseline bytes")
    if crash["drain_exit_code"] != 0:
        failures.append(
            f"SIGTERM drain exited {crash['drain_exit_code']} != 0"
        )
    if crash["resumed_after_drain"] != 0:
        failures.append("drained journal left unfinished jobs behind")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_serve.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every durability invariant holds",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as root:
        baseline = run_baseline(root)
        print(
            f"baseline: {baseline['state']} in {baseline['wall_s']}s "
            f"(digest {baseline['digest']})"
        )
        crash = run_crash_resume(root, baseline)
        print(
            f"crash/resume: kill rc={crash['crash_exit_code']}, "
            f"resumed={crash['resumed_jobs']}, "
            f"byte_identical={crash['byte_identical']}, "
            f"drain rc={crash['drain_exit_code']} in {crash['wall_s']}s"
        )

    payload = {
        "version": __version__,
        "algorithms": ALGORITHMS,
        "graphs": GRAPHS,
        "baseline": {k: v for k, v in baseline.items() if k != "reports"},
        "crash_resume": crash,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {args.output}")

    if args.check:
        failures = check(baseline, crash)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
