"""Unit tests for the observability layer (`repro.obs`)."""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.graph import datasets
from repro.graph.dynamic import DynamicGraph, churn_batches
from repro.harness.faults import FaultInjector
from repro.harness.resilience import RetryPolicy
from repro.harness.service import RunService, execute_cell
from repro.metrics.counters import ChurnStats
from repro.obs import (
    NULL_RECORDER,
    DeterministicClock,
    NullRecorder,
    TraceRecorder,
    get_recorder,
    use_recorder,
)
from repro.obs.export import chrome_trace, stats_rows, to_jsonl
from repro.obs.instruments import DEFAULT_BUCKET_EDGES, Histogram
from repro.vcpm import get_algorithm, run_vcpm
from repro.vcpm.incremental import run_vcpm_incremental


class TestClock:
    def test_advances(self):
        clock = DeterministicClock()
        assert clock.now == 0.0
        clock.advance(10.5)
        clock.tick()
        assert clock.now == 11.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DeterministicClock().advance(-1.0)


class TestAmbientRecorder:
    def test_default_is_null(self):
        rec = get_recorder()
        assert isinstance(rec, NullRecorder)
        assert not rec.enabled

    def test_use_recorder_scopes(self):
        rec = TraceRecorder()
        with use_recorder(rec):
            assert get_recorder() is rec
        assert get_recorder() is NULL_RECORDER

    def test_null_recorder_is_inert(self):
        rec = NULL_RECORDER
        with rec.span("x", track="t", attr=1) as handle:
            handle.annotate(more=2)
        rec.complete_span("y", begin=0.0, duration=1.0)
        rec.event("z")
        rec.counter("c").add(5)
        rec.histogram("h").observe_many(np.arange(4))
        rec.clock.advance(100.0)
        assert rec.clock.now == 0.0


class TestSpans:
    def test_nesting_and_durations(self):
        rec = TraceRecorder()
        with rec.span("outer", track="t"):
            rec.clock.advance(3.0)
            with rec.span("inner", track="t"):
                rec.clock.advance(4.0)
        outer, inner = rec.spans
        assert inner.parent_id == outer.span_id
        assert outer.duration == 7.0
        assert inner.duration == 4.0
        assert inner.begin == 3.0

    def test_complete_span_exact_duration(self):
        rec = TraceRecorder(clock=DeterministicClock())
        rec.clock.advance(1e9)
        record = rec.complete_span(
            "s", begin=rec.clock.now, duration=0.1, track="t"
        )
        assert record.duration == 0.1  # not re-rounded via end - begin

    def test_complete_span_inherits_parent_track(self):
        rec = TraceRecorder()
        with rec.span("outer", track="t"):
            child = rec.complete_span("c", begin=0.0, duration=1.0)
        assert child.track == "t"
        assert child.parent_id == rec.spans[0].span_id

    def test_complete_span_validates(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError):
            rec.complete_span("s", begin=0.0)
        with pytest.raises(ValueError):
            rec.complete_span("s", begin=0.0, end=1.0, duration=1.0)
        with pytest.raises(ValueError):
            rec.complete_span("s", begin=5.0, end=1.0)
        with pytest.raises(ValueError):
            rec.complete_span("s", begin=0.0, duration=-1.0)

    def test_out_of_order_close_raises(self):
        rec = TraceRecorder()
        outer = rec.span("outer")
        inner = rec.span("inner")  # noqa: F841 -- left open
        with pytest.raises(RuntimeError):
            outer.__exit__(None, None, None)

    def test_finish_closes_dangling(self):
        rec = TraceRecorder()
        rec.span("left-open")
        rec.clock.advance(2.0)
        rec.finish()
        assert rec.spans[0].closed
        assert rec.spans[0].duration == 2.0

    def test_span_totals_filters_by_track(self):
        rec = TraceRecorder()
        rec.complete_span("a", begin=0.0, duration=1.0, track="x")
        rec.complete_span("a", begin=0.0, duration=2.0, track="x")
        rec.complete_span("a", begin=0.0, duration=4.0, track="y")
        assert rec.span_totals(track="x")["a"] == (2, 3.0)
        assert rec.span_totals()["a"] == (3, 7.0)


class TestInstruments:
    def test_counter_accumulates(self):
        rec = TraceRecorder()
        rec.counter("c").add()
        rec.counter("c").add(4)
        assert rec.instruments.counter("c").value == 5.0

    def test_histogram_buckets(self):
        hist = Histogram("h", edges=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 3.0, 9.0):
            hist.observe(value)
        # bisect_left: a value equal to an edge counts in the lower bucket
        assert hist.counts == [2, 0, 1, 1]
        assert hist.count == 4
        assert hist.total == 13.5

    def test_observe_many_matches_observe(self):
        values = np.asarray([0.1, 1.0, 7.0, 1e9, 2.0])
        one = Histogram("a", edges=DEFAULT_BUCKET_EDGES)
        many = Histogram("b", edges=DEFAULT_BUCKET_EDGES)
        for v in values:
            one.observe(float(v))
        many.observe_many(values)
        assert one.counts == many.counts
        assert one.total == many.total

    def test_edge_mismatch_rejected(self):
        rec = TraceRecorder()
        rec.histogram("h", edges=(1.0, 2.0))
        with pytest.raises(ValueError):
            rec.histogram("h", edges=(1.0, 3.0))


class TestExporters:
    def _traced_cell(self):
        rec = TraceRecorder()
        graph = datasets.load("RM22")
        with use_recorder(rec):
            execute_cell(graph, "BFS", graph_key="RM22")
        rec.finish()
        return rec

    def test_chrome_trace_is_valid(self, tmp_path):
        rec = self._traced_cell()
        doc = chrome_trace(rec)
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} <= {"M", "X", "i", "C"}
        spans = [e for e in events if e["ph"] == "X"]
        assert spans and all(e["dur"] >= 0.0 for e in spans)
        # round-trips through json
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        assert json.loads(path.read_text())["otherData"]["clock"] == (
            "simulated-cycles"
        )

    def test_jsonl_lines_parse(self):
        lines = to_jsonl(self._traced_cell()).splitlines()
        kinds = {json.loads(line)["type"] for line in lines}
        assert {"span", "instrument"} <= kinds

    def test_stats_rows_cover_spans_and_instruments(self):
        headers, rows = stats_rows(self._traced_cell())
        assert headers == ["kind", "name", "count", "value"]
        kinds = {row[0] for row in rows}
        assert {"span", "counter", "histogram"} <= kinds


class TestReconciliation:
    """The acceptance criterion: spans reconcile with the cycle report."""

    @pytest.mark.parametrize(
        "key, system",
        [
            ("graphdyns", "GraphDynS"),
            ("graphicionado", "Graphicionado"),
            ("gunrock", "Gunrock"),
        ],
    )
    def test_span_totals_match_report(self, key, system):
        from repro.backends import create
        from repro.vcpm.algorithms import get_algorithm

        graph = datasets.load("RM22")
        rec = TraceRecorder()
        with use_recorder(rec):
            _, report = create(key).run(graph, get_algorithm("BFS"))
        rec.finish()
        totals = rec.span_totals(track=system)
        assert totals["scatter"][1] == report.scatter_cycles_total()
        assert totals.get("apply", (0, 0.0))[1] == report.apply_cycles_total()
        assert math.isclose(rec.clock.now, report.cycles)

    def test_hbm_counters_match_traffic(self):
        from repro.memory.request import Region

        graph = datasets.load("RM22")
        rec = TraceRecorder()
        with use_recorder(rec):
            cell = execute_cell(graph, "SSSP", graph_key="RM22")
        for system, report in cell.reports.items():
            snap = rec.instruments.snapshot()
            assert snap[f"hbm.{system}.bytes"]["value"] == report.traffic.total
            for region in Region:
                name = f"hbm.{system}.bytes.{region.value}"
                expected = report.traffic.region_total(region)
                got = snap.get(name, {"value": 0})["value"]
                assert got == expected, (system, region)


class TestChurnInstrumentation:
    def test_churn_stats_equal_registry_counters(self):
        graph = datasets.load("FR")
        dynamic = DynamicGraph(graph, key="OBS-CHURN")
        spec = get_algorithm("BFS")
        stats = ChurnStats()
        rec = TraceRecorder()
        with use_recorder(rec):
            previous = run_vcpm(dynamic.graph, spec, source=0)
            # Insert-only batches take the delta path, mixed ones fall back.
            for fraction in (1.0, 0.5):
                for batch in churn_batches(
                    dynamic.graph, 2, 16, insert_fraction=fraction, seed=7
                ):
                    dynamic.apply(batch)
                    stats.record_batch(batch)
                    outcome = run_vcpm_incremental(
                        dynamic.graph, spec, batch, previous, source=0
                    )
                    stats.record(outcome)
                    previous = outcome.result
        assert stats.delta_runs == 2 and stats.full_runs == 2
        snap = rec.instruments.snapshot()
        for field in dataclasses.fields(ChurnStats):
            counted = snap.get(f"churn.{field.name}", {"value": 0.0})["value"]
            assert counted == getattr(stats, field.name), field.name


class TestServiceInstrumentation:
    def test_cell_lifecycle_counters(self):
        rec = TraceRecorder()
        service = RunService(use_cache=False)
        with use_recorder(rec):
            service.cell("BFS", "RM22")
            service.cell("BFS", "RM22")  # memo hit
        snap = rec.instruments.snapshot()
        assert snap["service.misses"]["value"] == 1.0
        assert snap["service.memory_hits"]["value"] == 1.0
        names = {s.name for s in rec.spans}
        assert "service.cell" in names

    def test_persistent_cache_hit_event(self, tmp_path):
        rec = TraceRecorder()
        RunService(use_cache=True, cache_dir=str(tmp_path)).cell("BFS", "RM22")
        with use_recorder(rec):
            RunService(use_cache=True, cache_dir=str(tmp_path)).cell(
                "BFS", "RM22"
            )
        snap = rec.instruments.snapshot()
        assert snap["service.cache_hits"]["value"] == 1.0
        assert any(e.name == "service.cache_hit" for e in rec.events)

    #: The registry counter of each ``CacheStats`` field.
    STAT_COUNTERS = {
        "hits": "service.cache_hits",
        "misses": "service.misses",
        "stores": "service.stores",
        "memory_hits": "service.memory_hits",
        "store_failures": "service.store_failures",
        "retries": "resilience.retries",
        "timeouts": "resilience.timeouts",
        "degradations": "resilience.degradations",
    }

    def _assert_stats_match_counters(self, service, rec):
        snap = rec.instruments.snapshot()
        for field, name in self.STAT_COUNTERS.items():
            counted = snap.get(name, {"value": 0.0})["value"]
            assert counted == getattr(service.stats, field), name

    @pytest.mark.parametrize("drill", ["process-crash", "flaky-store"])
    def test_stats_and_counters_agree_under_faults(self, tmp_path, drill):
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)
        if drill == "process-crash":
            service = RunService(
                use_cache=False,
                executor="process",
                policy=policy,
                faults=FaultInjector(["crash:1"]),
            )
            graphs, jobs = ["FR", "PK"], 2
        else:
            service = RunService(
                cache_dir=str(tmp_path / "cache"),
                policy=policy,
                faults=FaultInjector(["flaky-store:1:1"]),
                sleep=lambda seconds: None,
            )
            graphs, jobs = ["FR"], 1
        rec = TraceRecorder()
        with use_recorder(rec):
            for _ in range(2):  # the second pass is served from the memo
                service.matrix(["BFS", "CC"], graphs, jobs=jobs)
        assert service.stats.retries == 1
        assert service.stats.memory_hits > 0
        self._assert_stats_match_counters(service, rec)
