"""Daemon fault battery: kill -9 resume identity, 1000-way coalescing,
and journal recovery.

These are the acceptance tests of the serving layer:

* a daemon hard-killed mid-matrix (``kill-daemon:N`` makes the host
  ``os._exit(86)`` at the Nth cell start — a deterministic ``kill -9``)
  restarts, resumes the journaled job, and produces reports
  **byte-identical** to an uninterrupted run;
* 1000 identical submissions while the first is in flight execute the
  underlying matrix exactly once (coalesce counter == 999);
* a restart folds the journal exactly: terminal events win, only
  re-enqueued jobs count as resumed, a smaller capacity sheds the
  overflow, and journals written by older daemons still replay in
  ``seq`` order.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

from repro.harness.serve import (
    DaemonConfig,
    SimulationDaemon,
    fetch_result,
    http_json,
    submit_job,
    wait_for_job,
)
from repro.harness.service import CacheStats

_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src")
)


def _start_daemon(workdir, inject=()):
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
        "--drain-timeout", "1",
    ]
    for fault in inject:
        cmd += ["--inject", fault]
    env = dict(os.environ, PYTHONPATH=_SRC)
    # The daemon's output goes to a file the child owns, so the test
    # process holds no handle to it.
    log = os.path.join(workdir, "daemon.log")
    with open(log, "ab") as output:
        proc = subprocess.Popen(
            cmd, env=env, cwd=workdir,
            stdout=output, stderr=subprocess.STDOUT,
        )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            with open(log) as handle:
                raise RuntimeError(f"daemon exited early: {handle.read()}")
        if os.path.exists(announce):
            try:
                with open(announce) as handle:
                    return proc, json.load(handle)["url"]
            except (ValueError, KeyError):
                pass  # torn announce write; retry
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("daemon never announced its port")


def _terminate(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=5)


class TestKillDaemonResume:
    def test_hard_kill_mid_matrix_resumes_byte_identical(self, tmp_path):
        """kill -9 between cells, restart, byte-identical reports."""
        workdir = str(tmp_path)

        # Uninterrupted baseline (its own cache so nothing is shared).
        baseline_dir = os.path.join(workdir, "baseline")
        os.makedirs(baseline_dir)
        proc, url = _start_daemon(baseline_dir)
        try:
            _, _, body = submit_job(url, ["BFS", "CC"], ["RM22"])
            job_id = body["job"]["id"]
            assert wait_for_job(url, job_id, timeout=90)["state"] == "done"
            status, baseline = fetch_result(url, job_id)
            assert status == 200
        finally:
            _terminate(proc)

        # Interrupted run: the host process dies at the 2nd cell start.
        crash_dir = os.path.join(workdir, "crash")
        os.makedirs(crash_dir)
        proc, url = _start_daemon(crash_dir, inject=("kill-daemon:2",))
        _, _, body = submit_job(url, ["BFS", "CC"], ["RM22"])
        job_id = body["job"]["id"]
        assert proc.wait(timeout=60) == 86  # died mid-matrix, no drain

        # Restart against the same journal + cache: the job resumes
        # (journal has submit+start but no terminal event), finished
        # cells replay from the persistent cache, and the final reports
        # are byte-identical to the uninterrupted baseline.
        proc, url = _start_daemon(crash_dir)
        try:
            status, _, stats = http_json(url + "/v1/stats")
            assert stats["resumed"] == 1
            final = wait_for_job(url, job_id, timeout=90)
            assert final["state"] == "done"
            assert final["resumed"] is True
            status, resumed = fetch_result(url, job_id)
            assert status == 200
            assert resumed == baseline
        finally:
            _terminate(proc)

    def test_sigterm_drains_and_journal_replays_clean(self, tmp_path):
        """A SIGTERM'd daemon leaves a journal the next boot fully folds."""
        workdir = str(tmp_path)
        proc, url = _start_daemon(workdir)
        _, _, body = submit_job(url, ["BFS"], ["RM22"])
        assert wait_for_job(url, body["job"]["id"], timeout=90)["state"] == "done"
        _terminate(proc)
        assert proc.returncode == 0

        proc, url = _start_daemon(workdir)
        try:
            _, _, stats = http_json(url + "/v1/stats")
            assert stats["resumed"] == 0  # nothing was unfinished
            _, _, jobs = http_json(url + "/v1/jobs")
            assert [j["state"] for j in jobs["jobs"]] == ["done"]
        finally:
            _terminate(proc)


class _BlockingService:
    """matrix() blocks until released; counts executions."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.executions = 0
        self.stats = CacheStats()
        self._lock = threading.Lock()

    def request_for(self, algorithm, graph_key):
        return (algorithm.upper(), graph_key)

    def cache_key(self, request):
        return f"{request[0]}|{request[1]}"

    def matrix(self, algorithms, graph_keys, jobs=None, executor=None):
        with self._lock:
            self.executions += 1
        self.started.set()
        if not self.release.wait(timeout=60):
            raise TimeoutError("never released")
        return []


class TestMassCoalescing:
    def test_1000_duplicate_submissions_execute_once(self, tmp_path):
        """N identical in-flight submissions -> one execution, N-1 coalesced."""
        service = _BlockingService()
        daemon = SimulationDaemon(
            DaemonConfig(
                port=0,
                journal_path=str(tmp_path / "jobs.jsonl"),
                capacity=8,
                poll_interval=0.01,
            ),
            service=service,
        )
        daemon.start()
        try:
            spec = {"algorithms": ["BFS"], "graphs": ["FR"]}
            primary, decision = daemon.submit(spec)
            assert decision.accepted
            assert service.started.wait(timeout=10)

            errors = []

            def burst(worker, count):
                for i in range(count):
                    job, decision = daemon.submit(spec)
                    if (
                        job is None
                        or decision.reason != "coalesced"
                        or job.coalesced_with != primary.id
                    ):
                        errors.append((worker, i, decision))

            threads = [
                threading.Thread(target=burst, args=(w, 111))
                for w in range(9)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors

            service.release.set()
            deadline = time.monotonic() + 30
            while daemon.get_job(primary.id).state != "done":
                assert time.monotonic() < deadline
                time.sleep(0.01)

            assert service.executions == 1  # the cell ran exactly once
            assert daemon.stats.coalesced == 999
            assert daemon.stats.admitted == 1
            # Every attached job observes the primary's terminal state.
            done = [
                job for job in daemon.jobs_dict() if job["state"] == "done"
            ]
            assert len(done) == 1000
        finally:
            service.release.set()
            daemon.stop(drain=False)


def _recovering_daemon(journal, capacity=4):
    """An unstarted daemon on ``journal`` over a blocking stub service."""
    service = _BlockingService()
    daemon = SimulationDaemon(
        DaemonConfig(
            port=0,
            journal_path=journal,
            capacity=capacity,
            poll_interval=0.01,
        ),
        service=service,
    )
    return daemon, service


class TestRecovery:
    SPEC = {"algorithms": ["BFS"], "graphs": ["FR"]}

    def test_cancelled_duplicate_stays_cancelled_after_restart(
        self, tmp_path
    ):
        journal = str(tmp_path / "jobs.jsonl")
        daemon, _ = _recovering_daemon(journal)
        primary, _ = daemon.submit(self.SPEC)
        duplicate, decision = daemon.submit(self.SPEC)
        assert decision.reason == "coalesced"
        assert daemon.cancel(duplicate.id) == (200, "cancelled")

        restarted, _ = _recovering_daemon(journal)
        job = restarted.get_job(duplicate.id)
        assert restarted.effective_state(job) == "cancelled"
        assert duplicate.id not in restarted.get_job(primary.id).attached
        assert restarted.effective_state(
            restarted.get_job(primary.id)
        ) == "queued"

    def test_restart_at_smaller_capacity_resumes_only_what_fits(
        self, tmp_path
    ):
        journal = str(tmp_path / "jobs.jsonl")
        daemon, _ = _recovering_daemon(journal, capacity=4)
        ids = [
            daemon.submit({"algorithms": [algo], "graphs": ["FR"]})[0].id
            for algo in ("BFS", "CC", "PR", "SSSP")
        ]

        restarted, _ = _recovering_daemon(journal, capacity=2)
        assert restarted.stats.resumed == 2
        assert restarted.stats.shed == 2
        jobs = [restarted.job_dict(restarted.get_job(i)) for i in ids]
        assert [(j["state"], j["resumed"]) for j in jobs] == [
            ("queued", True),
            ("queued", True),
            ("shed", False),
            ("shed", False),
        ]

        # A third boot keeps the shed jobs terminal.
        third, _ = _recovering_daemon(journal, capacity=4)
        assert third.stats.resumed == 2
        assert third.stats.shed == 0
        assert [third.get_job(i).state for i in ids] == [
            "queued", "queued", "shed", "shed",
        ]

    def test_older_journal_format_replays_in_seq_order(self, tmp_path):
        """A journal whose events still carry priority/client replays;
        its jobs start in ``seq`` order whatever priority they had."""
        events = [
            {"kind": "repro-job-journal", "schema": 1},
            {"event": "submit", "id": "j000001-aaaaaaaa", "seq": 1,
             "spec": {"algorithms": ["CC"], "graphs": ["FR"]},
             "priority": 0, "client": "alice", "job_key": "ka",
             "coalesced_with": None},
            {"event": "submit", "id": "j000002-bbbbbbbb", "seq": 2,
             "spec": {"algorithms": ["PR"], "graphs": ["FR"]},
             "priority": 9, "client": "bob", "job_key": "kb",
             "coalesced_with": None},
            {"event": "start", "id": "j000002-bbbbbbbb"},
            {"event": "submit", "id": "j000003-cccccccc", "seq": 3,
             "spec": {"algorithms": ["SSSP"], "graphs": ["FR"]},
             "priority": 5, "client": "carol", "job_key": "kc",
             "coalesced_with": None},
            {"event": "submit", "id": "j000004-aaaaaaaa", "seq": 4,
             "spec": {"algorithms": ["CC"], "graphs": ["FR"]},
             "priority": 1, "client": "dave", "job_key": "ka",
             "coalesced_with": "j000001-aaaaaaaa"},
            {"event": "submit", "id": "j000005-dddddddd", "seq": 5,
             "spec": {"algorithms": ["SSWP"], "graphs": ["FR"]},
             "priority": 0, "client": "erin", "job_key": "kd",
             "coalesced_with": None},
            {"event": "cancel", "id": "j000005-dddddddd", "reason": "shed"},
            {"event": "plan", "spec_name": "old", "spec_digest": "0" * 16,
             "cells": 1, "cached": 0, "pending": 1,
             "jobs": ["j000003-cccccccc"], "client": "carol"},
        ]
        journal = tmp_path / "jobs.jsonl"
        journal.write_text(
            "".join(json.dumps(event) + "\n" for event in events)
        )

        daemon, service = _recovering_daemon(str(journal))
        assert daemon.stats.resumed == 3
        states = {job["id"]: job["state"] for job in daemon.jobs_dict()}
        assert states == {
            "j000001-aaaaaaaa": "queued",
            "j000002-bbbbbbbb": "queued",
            "j000003-cccccccc": "queued",
            "j000004-aaaaaaaa": "queued",  # coalesced: mirrors j000001
            "j000005-dddddddd": "shed",
        }
        order = []
        original = service.matrix

        def recording_matrix(algorithms, graph_keys, **kwargs):
            order.append(algorithms[0])
            return original(algorithms, graph_keys, **kwargs)

        service.matrix = recording_matrix
        service.release.set()
        daemon.start()
        try:
            deadline = time.monotonic() + 30
            while daemon.stats.completed < 3:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert order == ["CC", "PR", "SSSP"]
            assert daemon.job_dict(
                daemon.get_job("j000004-aaaaaaaa")
            )["state"] == "done"
            assert daemon._seq == 5  # new ids continue after the journal
        finally:
            service.release.set()
            daemon.stop(drain=False)
