"""Declarative plans over the daemon's HTTP surface (POST /v1/plans).

End-to-end tests run a real in-process daemon on the cheapest cells
(the RM22 proxy); the in-flight classification test substitutes a
blocking stub service so the "job already running" state is reached
deterministically.
"""

import threading

import pytest

from repro.harness.journal import JobJournal
from repro.harness.serve import (
    submit_job,
    submit_plan,
    wait_for_job,
)
from repro.harness.service import CacheStats

from tests.test_serve_daemon import make_daemon

SPEC_YAML = "name: plantest\nalgorithms: [BFS, PR]\ngraphs: [RM22]\n"


class PlannableStub:
    """Stub service exposing the planner/daemon axis surface.

    ``matrix`` blocks until released so submitted jobs stay in-flight
    for as long as the test needs them to be.
    """

    default_source = 0
    storage = "memory"
    shards = 1
    backends = ("stub",)

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.stats = CacheStats()

    def request_for(self, algorithm, graph_key):
        return (algorithm.upper(), graph_key)

    def cache_key(self, request):
        return f"{request[0]}|{request[1]}"

    def probe(self, algorithm, graph_key):
        request = self.request_for(algorithm, graph_key)
        return request, self.cache_key(request), "miss"

    def matrix(self, algorithms, graph_keys, jobs=None, executor=None):
        self.started.set()
        if not self.release.wait(timeout=30):
            raise TimeoutError("stub never released")
        return []


class TestPlanLifecycle:
    def test_dry_run_submit_and_warm_replan(self, tmp_path):
        daemon = make_daemon(tmp_path)
        try:
            url = daemon.base_url

            # Dry run: classified plan, no jobs enqueued.
            status, _, body = submit_plan(
                url, yaml_text=SPEC_YAML, dry_run=True
            )
            assert status == 200
            assert body["dry_run"] is True
            assert body["jobs"] == []
            assert body["plan"]["totals"]["pending"] == 2
            assert daemon.stats.admitted == 0

            # Real submission: pending cells fan out as one job per
            # graph group through the normal submission path.
            status, _, body = submit_plan(url, yaml_text=SPEC_YAML)
            assert status == 202
            assert len(body["jobs"]) == 1  # one graph -> one job
            job = body["jobs"][0]
            assert sorted(job["algorithms"]) == ["BFS", "PR"]
            assert job["graphs"] == ["RM22"]
            final = wait_for_job(url, job["id"], timeout=120)
            assert final["state"] == "done"

            # Warm replan: everything cached, nothing scheduled.
            status, _, body = submit_plan(
                url, yaml_text=SPEC_YAML, dry_run=True
            )
            assert status == 200
            totals = body["plan"]["totals"]
            assert totals["cached"] == 2
            assert totals["pending"] == 0
            assert totals["saved_cost"] == totals["total_cost"]

            # Non-dry warm replan submits zero jobs but still succeeds.
            status, _, body = submit_plan(url, yaml_text=SPEC_YAML)
            assert status == 202
            assert body["jobs"] == []
        finally:
            daemon.stop(drain=False)

    def test_spec_dict_form_and_journal_event(self, tmp_path):
        daemon = make_daemon(tmp_path)
        try:
            url = daemon.base_url
            spec = {
                "name": "dictform",
                "algorithms": ["BFS"],
                "graphs": ["RM22"],
            }
            status, _, body = submit_plan(url, spec=spec)
            assert status == 202
            assert len(body["jobs"]) == 1
            wait_for_job(url, body["jobs"][0]["id"], timeout=120)
            assert daemon.stats.planned == 1
        finally:
            daemon.stop(drain=True)

        # The journal recorded the plan and replays without issue: the
        # id-less "plan" event is informational and folds to nothing.
        journal_path = tmp_path / "jobs.jsonl"
        events = [
            line for line in journal_path.read_text().splitlines() if line
        ]
        assert any('"event": "plan"' in line for line in events)
        records, _ = JobJournal.replay(str(journal_path))
        assert all(
            record.spec["algorithms"] == ["BFS"]
            for record in records.values()
        )

        # A daemon restarted on that journal comes up cleanly; the
        # completed plan job is terminal, so nothing is re-enqueued.
        daemon2 = make_daemon(tmp_path)
        try:
            assert daemon2.stats.planned == 0  # plan events are not jobs
            assert daemon2.stats.resumed == 0
        finally:
            daemon2.stop(drain=False)


class TestPlanRejections:
    @pytest.fixture()
    def daemon(self, tmp_path):
        service = PlannableStub()
        daemon = make_daemon(tmp_path, service=service)
        yield daemon
        service.release.set()
        daemon.stop(drain=False)

    def test_unknown_algorithm_names_field_and_line(self, daemon):
        status, _, body = submit_plan(
            daemon.base_url,
            yaml_text="name: x\nalgorithms: [NOPE]\ngraphs: [RM22]\n",
        )
        assert status == 400
        assert "NOPE" in body["error"]
        assert body["field"] == "algorithms.0"
        assert body["line"] == 2

    def test_axis_mismatches_rejected(self, daemon):
        cases = [
            "name: x\nalgorithms: [BFS]\ngraphs: [RM22]\n"
            "overrides:\n  - name: base\n    graphdyns:\n      n_simt: 4\n",
            "name: x\nalgorithms: [BFS]\ngraphs: [RM22]\n"
            "backends: [graphdyns]\n",
            "name: x\nalgorithms: [BFS]\ngraphs: [RM22]\n"
            "storage: spill\n",
            "name: x\nalgorithms: [BFS]\ngraphs: [RM22]\nshards: 4\n",
        ]
        for yaml_text in cases:
            status, _, body = submit_plan(
                daemon.base_url, yaml_text=yaml_text
            )
            assert status == 400, yaml_text
            assert body["error"]

    def test_malformed_requests(self, daemon):
        url = daemon.base_url
        status, _, body = submit_plan(url)  # neither yaml nor spec
        assert status == 400
        status, _, body = submit_plan(url, yaml_text="not: [valid\n")
        assert status == 400
        from repro.harness.serve import http_json

        status, _, body = http_json(
            url + "/v1/plans",
            method="POST",
            payload={"yaml": SPEC_YAML, "priority": "high"},
        )
        assert status == 400
        assert "priority" in body["error"]
        status, _, body = http_json(
            url + "/v1/plans",
            method="POST",
            payload={"yaml": SPEC_YAML, "client": "me"},
        )
        assert status == 400
        assert "client" in body["error"] and body["field"] == "client"

    def test_rejections_count_as_invalid(self, daemon):
        before = daemon.stats.rejected_invalid
        submit_plan(daemon.base_url, yaml_text="nonsense")
        assert daemon.stats.rejected_invalid == before + 1


class TestInflightClassification:
    def test_running_job_cells_classify_inflight(self, tmp_path):
        service = PlannableStub()
        daemon = make_daemon(tmp_path, service=service)
        try:
            url = daemon.base_url
            status, _, body = submit_job(url, ["BFS"], ["RM22"])
            assert status == 202
            assert service.started.wait(timeout=10)

            status, _, body = submit_plan(
                url, yaml_text=SPEC_YAML, dry_run=True
            )
            assert status == 200
            totals = body["plan"]["totals"]
            assert totals["inflight"] == 1  # BFS/RM22 already running
            assert totals["pending"] == 1  # PR/RM22 still schedulable
            by_algo = {
                c["algorithm"]: c["status"] for c in body["plan"]["cells"]
            }
            assert by_algo == {"BFS": "inflight", "PR": "pending"}
        finally:
            service.release.set()
            daemon.stop(drain=False)
