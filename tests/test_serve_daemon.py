"""The simulation daemon over HTTP: submit/poll, coalescing, the bounded
FIFO queue, and the stats/counter mirror.

Every test runs an in-process daemon on an ephemeral port.  Real-service
tests use the cheapest cell (BFS on the RM22 proxy); scheduling tests
substitute a stub service whose ``matrix`` blocks on an event, so queue
states are reached deterministically instead of by racing timers.
"""

import itertools
import sys
import threading
import time

import pytest

from repro.harness.serve import (
    DaemonConfig,
    DaemonStats,
    JobSpec,
    SimulationDaemon,
    fetch_result,
    http_json,
    submit_job,
    wait_for_job,
)
from repro.harness.service import CacheStats
from repro.obs import TraceRecorder, use_recorder


class StubService:
    """Run-service stand-in: blocks in matrix() until released."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.executions = 0
        #: ``algorithms`` of every matrix() call, in start order.
        self.calls = []
        self.stats = CacheStats()
        self._lock = threading.Lock()

    def request_for(self, algorithm, graph_key):
        return (algorithm.upper(), graph_key)

    def cache_key(self, request):
        return f"{request[0]}|{request[1]}"

    def matrix(self, algorithms, graph_keys, jobs=None, executor=None):
        with self._lock:
            self.executions += 1
            self.calls.append(list(algorithms))
        self.started.set()
        if not self.release.wait(timeout=30):
            raise TimeoutError("stub never released")
        return []


def make_daemon(tmp_path, service=None, **overrides):
    config = DaemonConfig(
        port=0,
        journal_path=str(tmp_path / "jobs.jsonl"),
        cache_dir=str(tmp_path / "cache"),
        drain_timeout=1.0,
        poll_interval=0.01,
        **overrides,
    )
    daemon = SimulationDaemon(config, service=service)
    daemon.start()
    return daemon


@pytest.fixture()
def stub_daemon(tmp_path):
    service = StubService()
    daemon = make_daemon(tmp_path, service=service, capacity=4)
    yield daemon, service
    service.release.set()
    daemon.stop(drain=False)


# ----------------------------------------------------------------------
# Core HTTP surface
# ----------------------------------------------------------------------


class TestHTTPSurface:
    def test_submit_poll_result_roundtrip(self, tmp_path):
        daemon = make_daemon(tmp_path)
        try:
            url = daemon.base_url
            status, _, body = submit_job(url, ["BFS"], ["RM22"])
            assert status == 202
            job_id = body["job"]["id"]
            final = wait_for_job(url, job_id, timeout=60)
            assert final["state"] == "done"
            assert final["result_digest"]
            status, text = fetch_result(url, job_id)
            assert status == 200 and text.startswith("[")
        finally:
            daemon.stop(drain=False)

    def test_health_ready_stats_and_errors(self, stub_daemon):
        daemon, _ = stub_daemon
        url = daemon.base_url
        assert http_json(url + "/healthz")[0] == 200
        assert http_json(url + "/readyz")[0] == 200
        status, _, stats = http_json(url + "/v1/stats")
        assert status == 200 and stats["accepting"] is True
        assert http_json(url + "/v1/jobs/nope")[0] == 404
        assert http_json(url + "/no/such/route")[0] == 404

    def test_invalid_specs_get_400(self, stub_daemon):
        daemon, _ = stub_daemon
        url = daemon.base_url + "/v1/jobs"
        cases = [
            {},
            {"algorithms": [], "graphs": ["FR"]},
            {"algorithms": ["BFS"], "graphs": ["NOPE"]},
            {"algorithms": ["NOPE"], "graphs": ["FR"]},
        ]
        for payload in cases:
            status, _, body = http_json(url, method="POST", payload=payload)
            assert status == 400, payload
            assert "error" in body
        assert daemon.stats.rejected_invalid == len(cases)

    def test_unknown_body_keys_get_400_naming_the_key(self, stub_daemon):
        daemon, service = stub_daemon
        url = daemon.base_url + "/v1/jobs"
        for key, value in (("priority", 1), ("client", "me")):
            payload = {"algorithms": ["BFS"], "graphs": ["FR"], key: value}
            status, _, body = http_json(url, method="POST", payload=payload)
            assert status == 400, key
            assert repr(key) in body["error"]
        assert daemon.stats.rejected_invalid == 2
        assert daemon.stats.admitted == 0
        assert service.executions == 0

    def test_result_of_unfinished_job_is_409(self, stub_daemon):
        daemon, service = stub_daemon
        url = daemon.base_url
        _, _, body = submit_job(url, ["BFS"], ["FR"])
        status, _, error = http_json(
            f"{url}/v1/jobs/{body['job']['id']}/result"
        )
        assert status == 409
        assert error["state"] in ("queued", "running")


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------


class TestCoalescing:
    def test_identical_inflight_submissions_attach(self, stub_daemon):
        daemon, service = stub_daemon
        url = daemon.base_url
        _, _, first = submit_job(url, ["BFS"], ["FR"])
        assert service.started.wait(timeout=10)
        statuses = [submit_job(url, ["BFS"], ["FR"]) for _ in range(5)]
        for status, _, body in statuses:
            assert status == 202
            assert body["coalesced"] is True
            assert body["job"]["coalesced_with"] == first["job"]["id"]
        service.release.set()
        final = wait_for_job(url, first["job"]["id"], timeout=30)
        assert final["state"] == "done"
        # Attached jobs mirror the primary and resolve the same result.
        for _, _, body in statuses:
            mirrored = wait_for_job(url, body["job"]["id"], timeout=10)
            assert mirrored["state"] == "done"
        assert service.executions == 1
        assert daemon.stats.coalesced == 5

    def test_different_specs_do_not_coalesce(self, stub_daemon):
        daemon, service = stub_daemon
        url = daemon.base_url
        submit_job(url, ["BFS"], ["FR"])
        _, _, other = submit_job(url, ["CC"], ["FR"])
        assert other["coalesced"] is False
        assert daemon.stats.coalesced == 0

    def test_order_insensitive_job_key(self, stub_daemon):
        daemon, _ = stub_daemon
        # (BFS,CC) and (CC,BFS) expand to the same cell set.
        key1 = daemon.job_key(JobSpec(algorithms=("BFS", "CC"), graphs=("FR",)))
        key2 = daemon.job_key(JobSpec(algorithms=("CC", "BFS"), graphs=("FR",)))
        assert key1 == key2


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------


class TestBackpressure:
    def test_queue_full_gets_503_with_retry_after(self, tmp_path):
        service = StubService()
        daemon = make_daemon(
            tmp_path, service=service, capacity=2, retry_after_full=2.5
        )
        try:
            url = daemon.base_url
            # One running (pops immediately) + two queued fills capacity;
            # distinct specs so nothing coalesces.
            specs = [["BFS"], ["CC"], ["PR"], ["SSSP"]]
            codes = []
            for algo in specs:
                status, headers, _ = submit_job(url, algo, ["FR"])
                codes.append((status, headers.get("Retry-After")))
                if algo == ["BFS"]:
                    assert service.started.wait(timeout=10)
            assert [c for c, _ in codes].count(202) == 3
            rejected = [c for c in codes if c[0] == 503]
            assert len(rejected) == 1
            assert float(rejected[0][1]) == 2.5
            assert daemon.stats.rejected_queue_full == 1
        finally:
            service.release.set()
            daemon.stop(drain=False)

    def test_queued_jobs_start_in_fifo_order(self, stub_daemon):
        daemon, service = stub_daemon
        url = daemon.base_url
        submit_job(url, ["BFS"], ["FR"])  # occupies the single slot
        assert service.started.wait(timeout=10)
        for algo in ("SSWP", "CC", "PR", "SSSP"):
            assert submit_job(url, [algo], ["FR"])[0] == 202
        service.release.set()
        deadline = time.monotonic() + 20
        while daemon.stats.completed < 5:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert service.calls == [
            ["BFS"], ["SSWP"], ["CC"], ["PR"], ["SSSP"]
        ]

    def test_cancelled_queued_job_frees_its_slot(self, tmp_path):
        service = StubService()
        daemon = make_daemon(tmp_path, service=service, capacity=2)
        try:
            url = daemon.base_url
            submit_job(url, ["BFS"], ["FR"])  # running, not queued
            assert service.started.wait(timeout=10)
            _, _, queued = submit_job(url, ["CC"], ["FR"])
            assert submit_job(url, ["PR"], ["FR"])[0] == 202
            assert submit_job(url, ["SSSP"], ["FR"])[0] == 503  # full
            job_id = queued["job"]["id"]
            assert daemon.cancel(job_id) == (200, "cancelled")
            assert daemon.stats_dict()["queue_depth"] == 1
            assert submit_job(url, ["SSSP"], ["FR"])[0] == 202
            assert daemon.stats_dict()["queue_depth"] == 2
            assert daemon.stats.rejected_queue_full == 1
        finally:
            service.release.set()
            daemon.stop(drain=False)

    def test_concurrent_burst_never_overfills_the_queue(self, tmp_path):
        """Eight threads race distinct submissions into a capacity-20
        queue behind one blocked job: exactly 20 queue, the rest get 503,
        and every accepted job runs exactly once."""
        service = StubService()
        daemon = make_daemon(tmp_path, service=service, capacity=20)
        algos = ("BFS", "SSSP", "CC", "SSWP", "PR")
        specs = [
            {"algorithms": list(combo), "graphs": [graph]}
            for graph in ("FR", "PK", "LJ")
            for r in range(1, 4)
            for combo in itertools.combinations(algos, r)
        ]  # 75 distinct cell sets: nothing coalesces
        interval = sys.getswitchinterval()
        try:
            assert daemon.submit(specs[0])[0] is not None
            assert service.started.wait(timeout=10)
            statuses = []
            sys.setswitchinterval(1e-6)

            def burst(chunk):
                for spec in chunk:
                    statuses.append(daemon.submit(spec)[1].status)

            threads = [
                threading.Thread(target=burst, args=(specs[1 + i :: 8],))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            sys.setswitchinterval(interval)
            assert sorted(statuses) == [202] * 20 + [503] * 54
            assert daemon.stats_dict()["queue_depth"] == 20
            assert daemon.stats.admitted == 21
            assert daemon.stats.rejected_queue_full == 54
            service.release.set()
            _wait_for(lambda: daemon.stats.completed == 21)
            assert service.executions == 21
        finally:
            sys.setswitchinterval(interval)
            service.release.set()
            daemon.stop(drain=False)

    def test_capacity_below_one_is_rejected(self):
        for capacity in (0, -1):
            with pytest.raises(ValueError, match="capacity"):
                SimulationDaemon(
                    DaemonConfig(journal_path=None, capacity=capacity),
                    service=StubService(),
                )

    def test_injected_queue_overflow_forces_503(self, tmp_path):
        service = StubService()
        daemon = make_daemon(
            tmp_path,
            service=service,
            capacity=64,
            inject=("queue-overflow:2:2",),
        )
        try:
            url = daemon.base_url
            codes = [
                submit_job(url, [algo], ["FR"])[0]
                for algo in ("BFS", "CC", "PR", "SSSP")
            ]
            # Submissions 2 and 3 are force-rejected, deterministically.
            assert codes == [202, 503, 503, 202]
        finally:
            service.release.set()
            daemon.stop(drain=False)


class TestJournalFailure:
    """A submission whose journal append fails gets a 503 and leaves no
    job, no attachment and no admission count behind."""

    def test_failed_append_leaves_no_job(self, tmp_path):
        service = StubService()
        # Journal append 1 is the first submit: every attempt fails.
        daemon = make_daemon(
            tmp_path, service=service, inject=("flaky-journal:1:99",)
        )
        try:
            job, decision = daemon.submit({"algorithms": ["BFS"], "graphs": ["FR"]})
            assert job is None
            assert decision.status == 503
            assert "journal unavailable" in decision.reason
            assert daemon.stats.admitted == 0
            assert daemon.jobs_dict() == []
            assert daemon.stats_dict()["queue_depth"] == 0
            # The next submission is admitted and runs normally.
            job, decision = daemon.submit({"algorithms": ["BFS"], "graphs": ["FR"]})
            assert decision.status == 202
            assert daemon.stats.admitted == 1
            assert [j["id"] for j in daemon.jobs_dict()] == [job.id]
        finally:
            service.release.set()
            daemon.stop(drain=False)

    def test_failed_append_of_duplicate_is_not_attached(self, tmp_path):
        service = StubService()
        # Appends 1 and 2 are the primary's submit and start; append 3,
        # the duplicate's submit, fails every attempt.
        daemon = make_daemon(
            tmp_path, service=service, inject=("flaky-journal:3:99",)
        )
        try:
            url = daemon.base_url
            status, _, first = submit_job(url, ["BFS"], ["FR"])
            assert status == 202
            assert service.started.wait(timeout=10)
            status, headers, body = submit_job(url, ["BFS"], ["FR"])
            assert status == 503
            assert "journal unavailable" in body["error"]
            assert headers.get("Retry-After") is not None
            assert daemon.stats.coalesced == 0
            primary = daemon.get_job(first["job"]["id"])
            assert primary.attached == []
            assert [j["id"] for j in daemon.jobs_dict()] == [primary.id]
        finally:
            service.release.set()
            daemon.stop(drain=False)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_drain_stops_admission_but_keeps_status(self, stub_daemon):
        daemon, service = stub_daemon
        url = daemon.base_url
        _, _, body = submit_job(url, ["BFS"], ["FR"])
        status, _, _ = http_json(url + "/v1/drain", method="POST")
        assert status == 202
        assert http_json(url + "/readyz")[0] == 503
        status, headers, _ = submit_job(url, ["CC"], ["FR"])
        assert status == 503 and "Retry-After" in headers
        # Status endpoints still serve while draining.
        assert http_json(f"{url}/v1/jobs/{body['job']['id']}")[0] == 200
        assert daemon.stats.rejected_draining == 1

    def test_cancel_queued_job(self, stub_daemon):
        daemon, service = stub_daemon
        url = daemon.base_url
        submit_job(url, ["BFS"], ["FR"])  # occupies the single slot
        assert service.started.wait(timeout=10)
        _, _, queued = submit_job(url, ["CC"], ["FR"])
        job_id = queued["job"]["id"]
        status, _, _ = http_json(f"{url}/v1/jobs/{job_id}", method="DELETE")
        assert status == 200
        status, _, body = http_json(f"{url}/v1/jobs/{job_id}")
        assert body["state"] == "cancelled"
        # Cancelling again conflicts.
        assert http_json(f"{url}/v1/jobs/{job_id}", method="DELETE")[0] == 409

    def test_watchdog_abandons_over_deadline_job(self, tmp_path):
        service = StubService()
        daemon = make_daemon(
            tmp_path, service=service, job_deadline=0.2, capacity=4
        )
        try:
            url = daemon.base_url
            _, _, body = submit_job(url, ["BFS"], ["FR"])
            final = wait_for_job(url, body["job"]["id"], timeout=15)
            assert final["state"] == "failed"
            assert "deadline" in final["error"]
            assert daemon.stats.timeouts == 1
        finally:
            service.release.set()
            daemon.stop(drain=False)

    def test_stop_journals_shutdown_event(self, tmp_path):
        daemon = make_daemon(tmp_path)
        daemon.stop()
        with open(daemon.journal.path) as handle:
            events = [line for line in handle.read().splitlines()]
        assert any('"shutdown"' in line for line in events)


# ----------------------------------------------------------------------
# One counting path: DaemonStats == the serve.* counters
# ----------------------------------------------------------------------


class PlannableStubService(StubService):
    """StubService plus the axis surface the planner reads, with
    per-algorithm behaviour: CC raises, SSSP blocks until released,
    everything else finishes at once."""

    default_source = 0
    storage = "memory"
    shards = 1
    backends = ("stub",)

    def probe(self, algorithm, graph_key):
        request = self.request_for(algorithm, graph_key)
        return request, self.cache_key(request), "miss"

    def matrix(self, algorithms, graph_keys, jobs=None, executor=None):
        with self._lock:
            self.executions += 1
            self.calls.append(list(algorithms))
        self.started.set()
        if "CC" in algorithms:
            raise RuntimeError("stub cell crashed")
        if "SSSP" in algorithms and not self.release.wait(timeout=30):
            raise TimeoutError("stub never released")
        return []


def _wait_for(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestStatsCounters:
    def test_every_stats_field_equals_its_serve_counter(self, tmp_path):
        """A scenario that bumps every DaemonStats field leaves each one
        equal to its ``serve.<field>`` counter."""
        journal = str(tmp_path / "jobs.jsonl")
        # Three queued jobs journaled by a daemon that never started.
        first = SimulationDaemon(
            DaemonConfig(journal_path=journal, capacity=4),
            service=PlannableStubService(),
        )
        for algo in ("BFS", "PR", "SSWP"):
            assert first.submit({"algorithms": [algo], "graphs": ["FR"]})[0]

        service = PlannableStubService()
        with use_recorder(TraceRecorder()) as rec:
            # Restart at capacity 2: two jobs resume, SSWP is shed.
            daemon = SimulationDaemon(
                DaemonConfig(
                    port=0,
                    journal_path=journal,
                    capacity=2,
                    poll_interval=0.01,
                    inject=("queue-overflow:1:1",),
                ),
                service=service,
            )
            daemon.start()
            try:
                _wait_for(lambda: daemon.stats.completed == 2)
                sssp = {"algorithms": ["SSSP"], "graphs": ["FR"]}
                # Submission 1 is force-rejected (injected overflow).
                assert daemon.submit(sssp)[1].status == 503
                blocker, _ = daemon.submit(sssp)
                _wait_for(lambda: blocker.state == "running")
                assert daemon.submit(sssp)[1].reason == "coalesced"
                crash, _ = daemon.submit({"algorithms": ["CC"], "graphs": ["FR"]})
                victim, _ = daemon.submit({"algorithms": ["BFS"], "graphs": ["PK"]})
                full = daemon.submit({"algorithms": ["PR"], "graphs": ["PK"]})
                assert full[1].status == 503  # the real queue bound
                assert daemon.cancel(victim.id)[0] == 200
                assert daemon.submit({"algorithms": []})[1].status == 400
                status, body = daemon.plan_submission(
                    {"yaml": "name: p\nalgorithms: [BFS]\ngraphs: [RM22]\n"}
                )
                assert status == 202 and len(body["jobs"]) == 1
                # Only now let the watchdog abandon the blocked job.
                daemon.config.job_deadline = 0.05
                _wait_for(lambda: daemon.stats.completed == 3)
                assert crash.state == "failed"
                daemon.drain()
                assert daemon.submit(sssp)[1].status == 503
            finally:
                service.release.set()
                daemon.stop(drain=False)

        fields = DaemonStats().to_dict()
        stats = daemon.stats.to_dict()
        counters = {
            name: rec.counter(f"serve.{name}").value for name in fields
        }
        assert counters == stats
        assert all(value >= 1 for value in stats.values()), stats
        assert stats["resumed"] == 2 and stats["shed"] == 1
        assert stats["timeouts"] == 1 and stats["failed"] == 2
        assert stats["rejected_queue_full"] == 2
