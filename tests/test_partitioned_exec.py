"""Sharded execution tests: the byte-identical merge-at-Apply invariant.

The contract under test (ISSUE tentpole): for every algorithm, graph,
shard count, VB capacity, and storage backend, the partitioned engine's
results are *bitwise* identical to the unsharded in-memory path —
properties, traces, convergence, and the canonical report JSON the
harness derives from them.
"""

import pytest

from repro.cli import main
from repro.graph import datasets
from repro.vcpm import (
    ALGORITHMS,
    run_vcpm,
    run_vcpm_partitioned,
    run_vcpm_sliced,
)
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
