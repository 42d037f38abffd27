"""Sharded execution tests: the byte-identical merge-at-Apply invariant.

The contract under test (ISSUE tentpole): for every algorithm, graph,
shard count, VB capacity, and storage backend, the partitioned engine's
results are *bitwise* identical to the unsharded in-memory path —
properties, traces, convergence, and the canonical report JSON the
harness derives from them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.graph import CSRGraph, datasets
from repro.graph.generators import power_law_graph, uniform_random_graph
from repro.graph.slicing import plan_partitions
from repro.vcpm import (
    ALGORITHMS,
    run_vcpm,
    run_vcpm_partitioned,
    run_vcpm_sliced,
)
from repro.vcpm import partitioned
from repro.vcpm.extensions import SPMV
from repro.harness.resilience import RunManifest
from repro.harness.service import RunService, canonical_reports_json


def _bitwise_equal(a, b):
    assert a.properties.dtype == b.properties.dtype
    assert a.properties.tobytes() == b.properties.tobytes()
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.source == b.source


class TestByteIdenticalInvariant:
    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    @pytest.mark.parametrize("shards", [1, 3, 7])
    def test_sharded_matches_unsharded(self, small_powerlaw, algo, shards):
        spec = ALGORITHMS[algo]
        baseline = run_vcpm(small_powerlaw, spec, source=0)
        sharded = run_vcpm_partitioned(
            small_powerlaw, spec, shards=shards, source=0
        )
        _bitwise_equal(baseline, sharded)

    @pytest.mark.parametrize("algo", ["BFS", "PR"])
    @pytest.mark.parametrize("vb", [None, 64, 256])
    def test_sharding_composes_with_vb_slicing(self, small_powerlaw, algo, vb):
        spec = ALGORITHMS[algo]
        baseline = run_vcpm(small_powerlaw, spec, source=0)
        sharded = run_vcpm_partitioned(
            small_powerlaw, spec, shards=4, vb_capacity_bytes=vb, source=0
        )
        _bitwise_equal(baseline, sharded)

    @pytest.mark.parametrize(
        "fixture", ["tiny_graph", "small_grid", "small_chain", "disconnected_graph"]
    )
    def test_across_graph_shapes(self, request, fixture):
        graph = request.getfixturevalue(fixture)
        for algo in ("BFS", "CC", "PR"):
            baseline = run_vcpm(graph, ALGORITHMS[algo], source=0)
            sharded = run_vcpm_partitioned(
                graph, ALGORITHMS[algo], shards=3, source=0
            )
            _bitwise_equal(baseline, sharded)

    def test_more_shards_than_vertices(self, tiny_graph):
        baseline = run_vcpm(tiny_graph, ALGORITHMS["SSSP"], source=0)
        sharded = run_vcpm_partitioned(
            tiny_graph, ALGORITHMS["SSSP"], shards=100, source=0
        )
        _bitwise_equal(baseline, sharded)

    def test_mmap_storage_matches_memory(self):
        mem = datasets.load("FR")
        mapped = datasets.load("FR", storage="mmap")
        for algo in ("BFS", "PR"):
            baseline = run_vcpm(mem, ALGORITHMS[algo], source=0)
            sharded = run_vcpm_partitioned(
                mapped, ALGORITHMS[algo], shards=4, source=0
            )
            assert baseline.properties.tobytes() == sharded.properties.tobytes()
            assert baseline.iterations == sharded.iterations

    def test_sliced_entry_point_delegates(self, small_powerlaw):
        baseline = run_vcpm(small_powerlaw, ALGORITHMS["PR"])
        sliced = run_vcpm_sliced(small_powerlaw, ALGORITHMS["PR"], 128)
        assert baseline.properties.tobytes() == sliced.properties.tobytes()


#: Every array an observer reads from one iteration.
_OBSERVED = ("active_ids", "edge_dst", "modified_ids", "activated_ids")


class _Recorder:
    """Keeps a copy of each iteration's observer-visible arrays."""

    def __init__(self):
        self.seen = []

    def on_iteration(self, data):
        arrays = [getattr(data, name) for name in _OBSERVED]
        self.seen.append([(a.dtype.str, a.tobytes()) for a in arrays])


@st.composite
def _graphs(draw):
    """Small generator graphs; dense enough for self-loops and multi-edges.

    A drawn stride zeroes every k-th weight, so zero weights occur too.
    """
    num_vertices = draw(st.integers(1, 24))
    num_edges = draw(st.integers(0, 4 * num_vertices + 8))
    make = draw(st.sampled_from([uniform_random_graph, power_law_graph]))
    graph = make(num_vertices, num_edges, seed=draw(st.integers(0, 2**16)))
    stride = draw(st.sampled_from([0, 1, 3]))
    if stride:
        weights = graph.weights.copy()
        weights[::stride] = 0
        graph = CSRGraph.from_arrays(
            num_vertices, graph.edge_sources(), graph.edges, weights
        )
    return graph


class TestShardedMatchesUnshardedProperty:
    """Any graph, shard count and VB capacity: the unsharded engine's bytes."""

    @pytest.mark.parametrize(
        "spec", [*ALGORITHMS.values(), SPMV], ids=lambda s: s.name
    )
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        graph=_graphs(),
        shards=st.integers(1, 9),
        vb=st.sampled_from([None, 4, 12]),
    )
    def test_bytes_traces_and_observed_arrays(self, spec, graph, shards, vb):
        plain, sharded = _Recorder(), _Recorder()
        baseline = run_vcpm(graph, spec, source=0, observers=[plain])
        result = run_vcpm_partitioned(
            graph,
            spec,
            shards=shards,
            vb_capacity_bytes=vb,
            source=0,
            observers=[sharded],
        )
        _bitwise_equal(baseline, result)
        assert sharded.seen == plain.seen


class TestFrontierReuse:
    """PR's all-vertex frontier, its memo and its grouping live the whole run."""

    @staticmethod
    def _frontiers(run, graph, algo, **kwargs):
        frontiers = []

        class Probe:
            def on_iteration(self, data):
                frontiers.append(data.frontier)

        run(graph, ALGORITHMS[algo], source=0, observers=[Probe()], **kwargs)
        return frontiers

    @pytest.fixture
    def groupings(self, monkeypatch):
        calls = []
        original = partitioned._group_by_segment

        def counting(frontier, table):
            calls.append(frontier)
            return original(frontier, table)

        monkeypatch.setattr(partitioned, "_group_by_segment", counting)
        return calls

    def test_pr_sees_one_frontier_sharded_as_unsharded(self, small_powerlaw):
        unsharded = self._frontiers(run_vcpm, small_powerlaw, "PR")
        sharded = self._frontiers(
            run_vcpm_partitioned, small_powerlaw, "PR", shards=4
        )
        assert len(sharded) == len(unsharded) > 1
        assert all(f is unsharded[0] for f in unsharded)
        assert all(f is sharded[0] for f in sharded)

    def test_pr_groups_once_per_run(self, small_powerlaw, groupings):
        sharded = self._frontiers(
            run_vcpm_partitioned, small_powerlaw, "PR", shards=4
        )
        assert len(sharded) > 1
        assert groupings == [sharded[0]]

    def test_grouping_runs_once_per_frontier(self, small_powerlaw, groupings):
        frontiers = self._frontiers(
            run_vcpm_partitioned,
            small_powerlaw,
            "BFS",
            shards=4,
            vb_capacity_bytes=64,
        )
        assert len({id(f) for f in frontiers}) == len(frontiers) > 1
        assert groupings == frontiers


class TestBlockedGrouping:
    """Grouping and folding block by block equal the whole-stream versions."""

    @pytest.mark.parametrize("vb", [None, 12])
    @pytest.mark.parametrize("block", [3, 64, 1 << 16])
    def test_order_is_the_stable_sort_of_the_stream(
        self, small_powerlaw, monkeypatch, block, vb
    ):
        monkeypatch.setattr(partitioned, "_GROUP_BLOCK", block)
        table = partitioned._SegmentTable(
            plan_partitions(small_powerlaw.num_vertices, 3), vb, 4
        )
        frontiers = TestFrontierReuse._frontiers(run_vcpm, small_powerlaw, "SSSP")
        for frontier in frontiers:
            order, cuts = partitioned._group_by_segment(frontier, table)
            keys = table.key_of[frontier.edge_dst]
            np.testing.assert_array_equal(order, np.argsort(keys, kind="stable"))
            assert order.dtype == np.int32
            assert not order.flags.writeable
            expected_cuts = np.searchsorted(
                np.sort(keys), np.arange(table.num_segments + 1)
            )
            assert cuts == tuple(expected_cuts.tolist())

    @pytest.mark.parametrize("algo", ["SSSP", "PR"])
    @pytest.mark.parametrize("block", [3, 7])
    def test_blocked_fold_keeps_bytes(self, small_powerlaw, monkeypatch, algo, block):
        # PR's float sums are order-sensitive: the blocks must fold in order.
        baseline = run_vcpm(small_powerlaw, ALGORITHMS[algo], source=0)
        monkeypatch.setattr(partitioned, "_GROUP_BLOCK", block)
        for vb in (None, 12):
            result = run_vcpm_partitioned(
                small_powerlaw,
                ALGORITHMS[algo],
                shards=3,
                vb_capacity_bytes=vb,
                source=0,
            )
            _bitwise_equal(baseline, result)


class TestShardObservability:
    def test_per_shard_spans_and_counters(self, tiny_graph):
        from repro.obs import TraceRecorder, use_recorder

        rec = TraceRecorder()
        with use_recorder(rec):
            run_vcpm_partitioned(tiny_graph, ALGORITHMS["CC"], shards=3)
        shard_spans = [s for s in rec.spans if s.name == "vcpm.shard_scatter"]
        assert shard_spans
        assert {s.attrs["shard"] for s in shard_spans} == {0, 1, 2}
        iters = sum(
            1 for s in rec.spans if s.name == "vcpm.iteration"
        )
        assert rec.counter("vcpm.shard.scatters").value == 3 * iters

    def test_recording_never_changes_results(self, small_powerlaw):
        from repro.obs import TraceRecorder, use_recorder

        baseline = run_vcpm_partitioned(
            small_powerlaw, ALGORITHMS["PR"], shards=4
        )
        with use_recorder(TraceRecorder()):
            traced = run_vcpm_partitioned(
                small_powerlaw, ALGORITHMS["PR"], shards=4
            )
        _bitwise_equal(baseline, traced)


class TestServiceIntegration:
    ALGOS = ("BFS", "PR")

    def _reports(self, **kwargs):
        service = RunService(use_cache=False, **kwargs)
        return canonical_reports_json(
            [service.cell(a, "FR") for a in self.ALGOS]
        )

    def test_canonical_reports_identical_across_modes(self):
        baseline = self._reports()
        assert self._reports(shards=4) == baseline
        assert self._reports(storage="mmap", shards=4) == baseline

    def test_process_shard_fanout_matches(self):
        # Shards run in the process that runs their cell: in the parent
        # for cell(), in the pool's workers for matrix().
        baseline = self._reports()
        kwargs = dict(storage="mmap", shards=2, jobs=2, executor="process")
        assert self._reports(**kwargs) == baseline
        service = RunService(use_cache=False, **kwargs)
        fanned = service.matrix(list(self.ALGOS), ["FR"])
        assert canonical_reports_json(fanned) == baseline

    def test_resilient_service_with_shards_matches(self, tmp_path):
        baseline = self._reports()
        service = RunService(
            use_cache=False,
            shards=3,
            manifest_path=str(tmp_path / "sweep.jsonl"),
        )
        resilient = canonical_reports_json(
            [service.cell(a, "FR") for a in self.ALGOS]
        )
        assert resilient == baseline

    def test_request_cache_key_ignores_execution_strategy(self):
        plain = RunService(use_cache=False)
        sharded = RunService(use_cache=False, storage="mmap", shards=4)
        fp = datasets.fingerprint("FR")
        assert plain.request_for("BFS", "FR").cache_key(fp, "v") == sharded.request_for(
            "BFS", "FR"
        ).cache_key(fp, "v")

    def test_service_rejects_bad_storage_and_shards(self):
        with pytest.raises(ValueError):
            RunService(storage="tape")
        with pytest.raises(ValueError):
            RunService(shards=0)


#: A manifest as the sharded service journaled it before shard progress
#: lines were dropped: ``matrix(["BFS", "CC"], ["FR"])`` with
#: ``shards=2``, killed after BFS finished and CC's first shard had run.
OLD_SHARDED_MANIFEST = """\
{"algorithms": ["BFS", "CC"], "graph_keys": ["FR"], "kind": "repro-matrix-manifest", "schema": 1}
{"shard": 0, "shard_of": ["BFS", "FR"], "shards": 2}
{"shard": 1, "shard_of": ["BFS", "FR"], "shards": 2}
{"cache_key": "aaae65c1eaa159accd20307d83b82d22", "cell": ["BFS", "FR"]}
{"shard": 0, "shard_of": ["CC", "FR"], "shards": 2}
"""


class TestManifestShardBreadcrumbs:
    """Manifests holding ``shard_of`` progress lines still load and resume."""

    def test_old_manifest_loads_cell_entries_only(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text(OLD_SHARDED_MANIFEST)
        manifest = RunManifest.load(str(path))
        assert manifest.algorithms == ["BFS", "CC"]
        assert manifest.graph_keys == ["FR"]
        assert manifest.completed == {
            ("BFS", "FR"): "aaae65c1eaa159accd20307d83b82d22"
        }
        assert manifest.remaining([("BFS", "FR"), ("CC", "FR")]) == [
            ("CC", "FR")
        ]

    def test_shard_entries_do_not_break_cell_entries(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text(OLD_SHARDED_MANIFEST)
        manifest = RunManifest.load(str(path))
        manifest.mark("CC", "FR", cache_key="abc")
        reloaded = RunManifest.load(str(path))
        assert reloaded.is_completed("BFS", "FR")
        assert reloaded.is_completed("CC", "FR")
        assert path.read_text().startswith(OLD_SHARDED_MANIFEST)

    def test_resume_runs_only_unfinished_cells(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        path.write_text(OLD_SHARDED_MANIFEST)
        cache = str(tmp_path / "cache")
        # The finished cell's envelope, as the killed sweep stored it.
        RunService(cache_dir=cache, shards=2).cell("BFS", "FR")
        capsys.readouterr()
        out_json = tmp_path / "resumed.json"
        assert main(
            ["matrix", "--resume", str(path), "--cache-dir", cache,
             "--shards", "2", "-o", str(out_json)]
        ) == 0
        out = capsys.readouterr().out
        rows = {
            line.rsplit(None, 1)[0].strip(): line.rsplit(None, 1)[1]
            for line in out.splitlines()
            if line.strip().startswith(("cache hits", "executed (misses)"))
        }
        assert rows == {"cache hits": "1", "executed (misses)": "1"}
        assert RunManifest.load(str(path)).remaining(
            [("BFS", "FR"), ("CC", "FR")]
        ) == []
        clean = RunService(use_cache=False).matrix(["BFS", "CC"], ["FR"])
        assert out_json.read_text() == canonical_reports_json(clean)
