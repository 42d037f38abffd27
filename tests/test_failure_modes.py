"""Robustness tests: degenerate graphs, odd inputs, misuse — plus the
fault-injection battery for the resilience layer (injected crashes,
hangs, dead workers, flaky/corrupt cache stores, checkpoint/resume),
asserting every recovery path converges to byte-identical reports."""

import dataclasses
import json

import numpy as np
import pytest

from repro.graph import CSRGraph, star_graph
from repro.graphdyns import GraphDynS, GraphDynSConfig
from repro.graphdyns.timing import GraphDynSTimingModel
from repro.harness import (
    CellExecutionError,
    FaultInjector,
    FaultSpec,
    ResilienceWarning,
    RetryPolicy,
    RunManifest,
    RunService,
    canonical_reports_json,
    retry_call,
)
from repro.harness.resilience import CellTimeoutError
from repro.harness.sweeps import run_sweeps
from repro.vcpm import ALGORITHMS, run_vcpm
from repro.vcpm.engine import run_vcpm as run

#: The small matrix every battery test replays (two cheap cells).
_ALGOS = ["BFS", "CC"]
_GRAPHS = ["FR"]

def _no_sleep(seconds):
    """Instant backoff: keeps the battery fast and deterministic."""

#: Retry policy used throughout: generous attempts, no real waiting.
_FAST = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def clean_reports_json():
    """Canonical reports of a fault-free serial run (the golden answer)."""
    service = RunService(use_cache=False)
    return canonical_reports_json(service.matrix(_ALGOS, _GRAPHS, jobs=1))


class TestDegenerateGraphs:
    def test_single_vertex_no_edges(self):
        g = CSRGraph.empty(1)
        result = run_vcpm(g, ALGORITHMS["BFS"], source=0)
        assert result.properties.tolist() == [0.0]
        assert result.converged

    def test_self_loop_only(self):
        g = CSRGraph.from_edge_list(1, [(0, 0)])
        result = run_vcpm(g, ALGORITHMS["SSSP"], source=0)
        assert result.properties[0] == 0.0  # self loop cannot improve
        assert result.converged

    def test_two_cycle(self):
        g = CSRGraph.from_edge_list(2, [(0, 1), (1, 0)])
        result = run_vcpm(g, ALGORITHMS["BFS"], source=0)
        assert result.properties.tolist() == [0.0, 1.0]

    def test_all_isolated_vertices(self):
        g = CSRGraph.empty(100)
        result = run_vcpm(g, ALGORITHMS["CC"])
        # Every vertex its own component; converges after one iteration.
        assert np.array_equal(result.properties, np.arange(100, dtype=float))
        assert result.converged

    def test_massive_star(self):
        # One dispatch must split a 5000-edge list without distortion.
        g = star_graph(5000)
        result, report = GraphDynS().run(g, ALGORITHMS["BFS"], source=0)
        assert result.converged
        assert np.all(result.properties[1:] == 1.0)
        assert report.cycles > 0

    def test_zero_weight_edges(self):
        g = CSRGraph.from_edge_list(3, [(0, 1), (1, 2)], weights=[0.0, 0.0])
        result = run_vcpm(g, ALGORITHMS["SSSP"], source=0)
        assert result.properties.tolist() == [0.0, 0.0, 0.0]

    def test_parallel_edges(self):
        g = CSRGraph.from_edge_list(
            2, [(0, 1), (0, 1), (0, 1)], weights=[5.0, 1.0, 3.0]
        )
        result = run_vcpm(g, ALGORITHMS["SSSP"], source=0)
        assert result.properties[1] == 1.0  # min over parallel edges


class TestTimingModelRobustness:
    def test_graph_with_no_edges(self):
        g = CSRGraph.empty(50)
        result, report = GraphDynS().run(g, ALGORITHMS["CC"])
        assert report.edges_processed == 0
        assert report.gteps == 0.0

    def test_report_on_zero_iteration_run(self):
        g = CSRGraph.empty(0)
        result, report = GraphDynS().run(g, ALGORITHMS["CC"])
        assert report.cycles == 0
        assert report.seconds == 0.0

    def test_models_are_single_use_observers(self, small_powerlaw):
        # Re-observing a second run accumulates -- documented behaviour;
        # fresh model per run gives fresh numbers.
        spec = ALGORITHMS["BFS"]
        model = GraphDynSTimingModel(small_powerlaw, spec)
        run(small_powerlaw, spec, source=0, observers=[model])
        first = model.total_cycles
        run(small_powerlaw, spec, source=0, observers=[model])
        assert model.total_cycles > first

    def test_single_ue_config(self, small_powerlaw):
        config = GraphDynSConfig(num_ues=1)
        model = GraphDynSTimingModel(
            small_powerlaw, ALGORITHMS["BFS"], config
        )
        result = run(
            small_powerlaw, ALGORITHMS["BFS"], source=0, observers=[model]
        )
        # Throughput collapses to <= 1 edge/cycle on the single reduce
        # pipeline, but the model stays sane.
        assert model.total_cycles >= result.total_edges_processed

    def test_single_pe_config(self, small_powerlaw):
        config = GraphDynSConfig(num_pes=1, num_dispatchers=1)
        result, report = GraphDynS(config).run(
            small_powerlaw, ALGORITHMS["BFS"], source=0
        )
        assert result.converged


class TestNumericEdgeCases:
    def test_infinite_initial_props_stable(self):
        g = CSRGraph.from_edge_list(3, [(1, 2)])
        # Source 0 has no outgoing path to 1: 1 stays at inf and its
        # iteration-0 scatter (inf + w) must not corrupt 2.
        result = run_vcpm(g, ALGORITHMS["SSSP"], source=0)
        assert np.isinf(result.properties[1])
        assert np.isinf(result.properties[2])

    def test_large_weights(self):
        g = CSRGraph.from_edge_list(2, [(0, 1)], weights=[1e30])
        result = run_vcpm(g, ALGORITHMS["SSSP"], source=0)
        assert result.properties[1] == pytest.approx(1e30, rel=1e-6)

    def test_pr_on_sink_heavy_graph(self):
        # All edges into one sink: ranks must stay finite.
        g = star_graph(50)
        result = run_vcpm(g, ALGORITHMS["PR"], max_iterations=10)
        assert np.all(np.isfinite(result.properties))

    def test_sswp_unreachable_zero(self, disconnected_graph):
        result = run_vcpm(disconnected_graph, ALGORITHMS["SSWP"], source=0)
        assert result.properties[3] == 0.0  # unreachable keeps init width


# ======================================================================
# Fault-injection battery for the resilience layer
# ======================================================================


class TestInjectedCrashes:
    """A worker crash on any single cell must not change the answer."""

    @pytest.mark.parametrize(
        "jobs,executor",
        [(1, "thread"), (2, "thread"), (2, "process")],
        ids=["serial", "thread", "process"],
    )
    def test_crash_retries_to_byte_identical_reports(
        self, clean_reports_json, jobs, executor
    ):
        service = RunService(
            use_cache=False,
            jobs=jobs,
            executor=executor,
            policy=_FAST,
            faults=FaultInjector(["crash:1"]),
            sleep=_no_sleep,
        )
        cells = service.matrix(_ALGOS, _GRAPHS)
        assert canonical_reports_json(cells) == clean_reports_json
        assert service.stats.retries >= 1
        assert service.faults.fired >= 1

    def test_crash_on_second_cell_too(self, clean_reports_json):
        service = RunService(
            use_cache=False,
            policy=_FAST,
            faults=FaultInjector(["crash:2:2"]),  # 2 failing attempts
            sleep=_no_sleep,
        )
        cells = service.matrix(_ALGOS, _GRAPHS)
        assert canonical_reports_json(cells) == clean_reports_json
        assert service.stats.retries == 2

    def test_exhausted_retries_name_the_cell(self):
        service = RunService(
            use_cache=False,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
            faults=FaultInjector(["crash:2:99"]),  # effectively permanent
            sleep=_no_sleep,
        )
        with pytest.raises(CellExecutionError) as excinfo:
            service.matrix(_ALGOS, _GRAPHS)
        assert excinfo.value.algorithm == "CC"
        assert excinfo.value.graph_key == "FR"
        assert excinfo.value.attempts == 2

    def test_non_transient_errors_are_not_retried(self):
        class Broken(RunService):
            def _attempt_body(self, request, attempt):
                raise TypeError("programming error, not a fault")

        service = Broken(use_cache=False, policy=_FAST, sleep=_no_sleep)
        with pytest.raises(TypeError):
            service.matrix(_ALGOS, _GRAPHS)
        assert service.stats.retries == 0


class TestHangsAndTimeouts:
    def test_hang_is_abandoned_and_retried(self, clean_reports_json):
        # Hang far above the deadline, deadline far above real cell cost.
        service = RunService(
            use_cache=False,
            policy=RetryPolicy(
                max_attempts=3, backoff_base=0.0, timeout=1.5
            ),
            faults=FaultInjector([FaultSpec("hang", 1, 1, 6.0)]),
            sleep=_no_sleep,
        )
        cells = service.matrix(_ALGOS, _GRAPHS)
        assert canonical_reports_json(cells) == clean_reports_json
        assert service.stats.timeouts == 1
        assert service.stats.retries >= 1

    def test_process_hang_falls_back_to_parent(self, clean_reports_json):
        service = RunService(
            use_cache=False,
            jobs=2,
            executor="process",
            policy=RetryPolicy(
                max_attempts=3, backoff_base=0.0, timeout=1.5
            ),
            faults=FaultInjector([FaultSpec("hang", 1, 1, 6.0)]),
            sleep=_no_sleep,
        )
        cells = service.matrix(_ALGOS, _GRAPHS)
        assert canonical_reports_json(cells) == clean_reports_json
        assert service.stats.timeouts >= 1

    def test_timeout_without_faults_is_inert(self, clean_reports_json):
        service = RunService(
            use_cache=False,
            policy=RetryPolicy(max_attempts=3, timeout=60.0),
            sleep=_no_sleep,
        )
        cells = service.matrix(_ALGOS, _GRAPHS)
        assert canonical_reports_json(cells) == clean_reports_json
        assert service.stats.timeouts == 0
        assert service.stats.retries == 0


class TestWorkerDeath:
    def test_dead_worker_degrades_executor_tier(self, clean_reports_json):
        service = RunService(
            use_cache=False,
            jobs=2,
            executor="process",
            policy=_FAST,
            faults=FaultInjector(["kill:1"]),
            sleep=_no_sleep,
        )
        with pytest.warns(ResilienceWarning):
            cells = service.matrix(_ALGOS, _GRAPHS)
        assert canonical_reports_json(cells) == clean_reports_json
        assert service.stats.degradations >= 1


class TestStoreFaults:
    def test_flaky_store_is_retried_until_persisted(
        self, tmp_path, clean_reports_json
    ):
        cache = str(tmp_path / "cache")
        service = RunService(
            cache_dir=cache,
            policy=_FAST,
            faults=FaultInjector(["flaky-store:1:1"]),
            sleep=_no_sleep,
        )
        cells = service.matrix(_ALGOS, _GRAPHS)
        assert canonical_reports_json(cells) == clean_reports_json
        assert service.stats.stores == 2  # both cells persisted anyway
        assert service.stats.store_failures == 0
        assert service.stats.retries >= 1
        # And the persisted entries replay bit-identically.
        replay = RunService(cache_dir=cache)
        assert (
            canonical_reports_json(replay.matrix(_ALGOS, _GRAPHS))
            == clean_reports_json
        )
        assert replay.stats.hits == 2

    def test_corrupt_cache_entry_is_rejected_not_trusted(
        self, tmp_path, clean_reports_json
    ):
        cache = str(tmp_path / "cache")
        service = RunService(
            cache_dir=cache,
            policy=_FAST,
            faults=FaultInjector(["corrupt-cache:1"]),
            sleep=_no_sleep,
        )
        service.matrix(_ALGOS, _GRAPHS)
        # One entry on disk is now garbage; a fresh service must treat
        # it as a miss and recompute, never misread it.
        replay = RunService(cache_dir=cache)
        cells = replay.matrix(_ALGOS, _GRAPHS)
        assert canonical_reports_json(cells) == clean_reports_json
        assert replay.stats.misses == 1
        assert replay.stats.hits == 1



#: Serial, thread and process executors of the two-cell battery matrix.
_EXECUTORS = pytest.mark.parametrize(
    "jobs,executor",
    [(1, "thread"), (2, "thread"), (2, "process")],
    ids=["serial", "thread", "process"],
)


class TestOneExecutionPath:
    """Every executor tier means the same thing by a deadline, a hit, and
    the default (absent) policy."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_deadline_counts_from_attempt_start(
        self, clean_reports_json, executor
    ):
        # Both hangs start together.  The 1.2 s one fits the 2 s
        # deadline; the 2.8 s one does not, however long the other cell
        # took before it.
        service = RunService(
            use_cache=False,
            jobs=2,
            executor=executor,
            policy=RetryPolicy(max_attempts=3, timeout=2.0),
            faults=FaultInjector(
                [FaultSpec("hang", 1, 1, 1.2), FaultSpec("hang", 2, 1, 2.8)]
            ),
            sleep=_no_sleep,
        )
        cells = service.matrix(_ALGOS, _GRAPHS)
        assert canonical_reports_json(cells) == clean_reports_json
        assert service.stats.timeouts == 1
        assert service.stats.retries == 1

    @pytest.mark.parametrize(
        "faults,policy", [(None, None), (["crash:1"], _FAST)],
        ids=["clean", "crash"],
    )
    def test_stats_are_equal_across_executors(self, faults, policy):
        runs = []
        for jobs, executor in [(1, "thread"), (2, "thread"), (2, "process")]:
            service = RunService(
                use_cache=False,
                jobs=jobs,
                executor=executor,
                policy=policy,
                faults=FaultInjector(faults) if faults else None,
                sleep=_no_sleep,
            )
            service.matrix(_ALGOS, _GRAPHS)
            first = dataclasses.asdict(service.stats)
            service.matrix(_ALGOS, _GRAPHS)  # every request a memo hit
            runs.append((first, dataclasses.asdict(service.stats)))
        assert runs[0] == runs[1] == runs[2]
        first, second = runs[0]
        assert (first["misses"], first["memory_hits"]) == (2, 0)
        assert (second["misses"], second["memory_hits"]) == (2, 2)
        assert first["retries"] == (1 if faults else 0)

    @_EXECUTORS
    def test_no_policy_means_one_attempt(self, jobs, executor):
        service = RunService(
            use_cache=False,
            jobs=jobs,
            executor=executor,
            faults=FaultInjector(["crash:1"]),
        )
        with pytest.raises(CellExecutionError) as excinfo:
            service.matrix(_ALGOS, _GRAPHS)
        assert excinfo.value.attempts == 1
        assert service.stats.retries == 0


class TestCheckpointResume:
    def test_resume_executes_only_unfinished_cells(
        self, tmp_path, clean_reports_json
    ):
        cache = str(tmp_path / "cache")
        manifest = str(tmp_path / "sweep.jsonl")
        # A permanent crash on cell 2 with a tight retry budget
        # simulates killing the sweep mid-flight.
        killed = RunService(
            cache_dir=cache,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
            faults=FaultInjector(["crash:2:99"]),
            manifest_path=manifest,
            sleep=_no_sleep,
        )
        with pytest.raises(CellExecutionError):
            killed.matrix(_ALGOS, _GRAPHS)
        journal = RunManifest.load(manifest)
        assert sorted(journal.completed) == [("BFS", "FR")]
        assert journal.remaining([("BFS", "FR"), ("CC", "FR")]) == [
            ("CC", "FR")
        ]

        resumed = RunService(
            cache_dir=cache,
            policy=_FAST,
            manifest_path=manifest,
            resume=True,
            sleep=_no_sleep,
        )
        # No algorithms/graphs given: the manifest header supplies them.
        cells = resumed.matrix()
        assert canonical_reports_json(cells) == clean_reports_json
        assert resumed.stats.hits == 1  # finished cell replays from cache
        assert resumed.stats.misses == 1  # only the unfinished cell runs
        assert RunManifest.load(manifest).remaining(
            [("BFS", "FR"), ("CC", "FR")]
        ) == []

    def test_manifest_tolerates_torn_tail(self, tmp_path):
        manifest = str(tmp_path / "m.jsonl")
        journal = RunManifest.start(manifest, _ALGOS, _GRAPHS)
        journal.mark("BFS", "FR", cache_key="abc")
        with open(manifest, "a") as handle:
            handle.write('{"cell": ["CC", "F')  # killed mid-append
        reloaded = RunManifest.load(manifest)
        assert reloaded.is_completed("BFS", "FR")
        assert not reloaded.is_completed("CC", "FR")
        assert reloaded.algorithms == _ALGOS

    def test_manifest_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not_a_manifest.json"
        path.write_text(json.dumps({"kind": "something-else"}) + "\n")
        with pytest.raises(ValueError):
            RunManifest.load(str(path))

    def test_mark_is_idempotent(self, tmp_path):
        manifest = str(tmp_path / "m.jsonl")
        journal = RunManifest.start(manifest, _ALGOS, _GRAPHS)
        journal.mark("BFS", "FR", cache_key="abc")
        journal.mark("BFS", "FR", cache_key="abc")
        with open(manifest) as handle:
            assert len(handle.read().splitlines()) == 2  # header + 1 cell


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=8, backoff_base=0.1, backoff_max=0.5, jitter=0.0
        )
        delays = [policy.delay(a) for a in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_max=1.0, jitter=0.2)
        first = policy.delay(1, "BFS/FR")
        assert first == policy.delay(1, "BFS/FR")  # no RNG state
        assert first != policy.delay(1, "CC/FR")  # but per-cell distinct
        for token in ("BFS/FR", "CC/FR", "PR/LJ"):
            assert 0.8 <= policy.delay(1, token) <= 1.2

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=-1.0)

    def test_retry_call_converges_and_exhausts(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        assert (
            retry_call(flaky, policy=_FAST, sleep=_no_sleep) == "ok"
        )
        assert len(calls) == 3
        with pytest.raises(CellTimeoutError):
            retry_call(
                lambda: (_ for _ in ()).throw(CellTimeoutError("x")),
                policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
                sleep=_no_sleep,
            )


class TestFaultSpecParsing:
    def test_parse_forms(self):
        assert FaultSpec.parse("crash:2") == FaultSpec("crash", 2)
        assert FaultSpec.parse("crash:2:3") == FaultSpec("crash", 2, 3)
        assert FaultSpec.parse("hang:1:0.5") == FaultSpec(
            "hang", 1, 1, 0.5
        )
        assert FaultSpec.parse("kill:3") == FaultSpec("kill", 3)
        assert FaultSpec.parse("flaky-store:1:2") == FaultSpec(
            "flaky-store", 1, 2
        )
        assert FaultSpec.parse("corrupt-cache") == FaultSpec(
            "corrupt-cache", 1
        )

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultSpec.parse("meteor:1")
        with pytest.raises(ValueError):
            FaultSpec.parse("crash:0")
        with pytest.raises(ValueError):
            FaultSpec.parse("crash:1:2:3")


class TestResilientSweeps:
    def test_run_sweeps_retries_transient_failures(self, monkeypatch):
        from repro.harness import sweeps as sweeps_mod

        calls = []

        def flaky_sweep(**kwargs):
            calls.append(kwargs)
            if len(calls) < 3:
                raise OSError("transient dataset hiccup")
            return "sentinel"

        monkeypatch.setitem(sweeps_mod.SWEEPS, "flaky", flaky_sweep)
        results = run_sweeps(
            ["flaky"], policy=_FAST, sleep=_no_sleep, graph_key="FR"
        )
        assert results == {"flaky": "sentinel"}
        assert len(calls) == 3
        assert all(c == {"graph_key": "FR"} for c in calls)

    def test_run_sweeps_rejects_unknown_names(self):
        with pytest.raises(KeyError):
            run_sweeps(["nope"])

    def test_real_sweep_through_the_driver(self):
        results = run_sweeps(
            ["e_threshold"],
            policy=_FAST,
            sleep=_no_sleep,
            graph_key="FR",
            algorithm="BFS",
            thresholds=(64,),
        )
        assert results["e_threshold"].rows
