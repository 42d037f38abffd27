"""Fig. 14 reads run-service cells: labelled backends and sibling services.

Figs. 14a, 14c/d, 14e and 14f take every per-cell number from a
:class:`RunService` cell, so they are cached, fanned out and counted
like the matrix figures.  These tests pin that path on the smallest
inputs (FR, RM22, one or two algorithms).
"""

import pytest

from repro.backends import GraphDynSBackend, GraphicionadoBackend
from repro.graph import datasets
from repro.graphdyns.config import DEFAULT_CONFIG
from repro.graphdyns.timing import GraphDynSTimingModel
from repro.harness import figures, service as service_module
from repro.harness.figures import (
    figure14a,
    figure14c,
    figure14d,
    figure14e,
    figure14f,
)
from repro.harness.service import RunService, canonical_reports_json
from repro.vcpm.algorithms import get_algorithm
from repro.vcpm.engine import run_vcpm

CFG32 = DEFAULT_CONFIG.with_num_ues(32)


@pytest.fixture
def run_vcpm_calls(monkeypatch):
    """Counts every functional run the harness makes."""
    calls = []

    def counted(graph, *args, **kwargs):
        calls.append(graph.name)
        return run_vcpm(graph, *args, **kwargs)

    monkeypatch.setattr(service_module, "run_vcpm", counted)
    monkeypatch.setattr(figures, "run_vcpm", counted)
    return calls


def _rows(service):
    return [
        figure14c("FR", ["BFS"], service=service).rows,
        figure14d("FR", ["BFS"], service=service).rows,
        figure14e("FR", ["BFS"], ue_counts=(128, 32), service=service).rows,
        figure14f(("RM22",), service=service).rows,
    ]


class TestLabelled:
    def test_copy_carries_the_label_and_the_config(self):
        base = GraphDynSBackend(CFG32)
        twin = base.labelled("32")
        assert twin.name == "GraphDynS[32]"
        assert base.name == "GraphDynS"
        assert twin.config is base.config
        assert twin.config_digest() == base.config_digest()
        assert type(twin) is GraphDynSBackend

    def test_unlabelled_requests_keep_their_keys(self):
        plain = RunService([GraphDynSBackend()], use_cache=False)
        labelled = RunService([GraphDynSBackend().labelled("x")], use_cache=False)
        request = plain.request_for("BFS", "FR")
        assert request.backends[0][0] == "GraphDynS"
        assert plain.cache_key(request) != labelled.cache_key(
            labelled.request_for("BFS", "FR")
        )


class TestDuplicateBackends:
    def test_two_configs_under_one_name_are_rejected(self):
        with pytest.raises(ValueError, match=r"'GraphDynS'"):
            RunService([GraphDynSBackend(CFG32), GraphDynSBackend(DEFAULT_CONFIG)])

    def test_labels_keep_both_reports(self):
        pair = RunService(
            [
                GraphDynSBackend(CFG32).labelled("32"),
                GraphDynSBackend(DEFAULT_CONFIG).labelled("128"),
            ],
            use_cache=False,
        ).cell("BFS", "FR")
        alone = RunService([GraphDynSBackend(CFG32)], use_cache=False).cell(
            "BFS", "FR"
        )
        assert pair.reports["GraphDynS[32]"].cycles == alone.reports[
            "GraphDynS"
        ].cycles
        assert (
            pair.reports["GraphDynS[32]"].cycles
            != pair.reports["GraphDynS[128]"].cycles
        )


class TestWithBackends:
    def test_siblings_share_settings_stats_and_memo(self, tmp_path):
        parent = RunService(
            cache_dir=str(tmp_path),
            jobs=2,
            storage="mmap",
            default_source=3,
            manifest_path=str(tmp_path / "manifest.jsonl"),
        )
        backends = [GraphDynSBackend(CFG32).labelled("32")]
        sibling = parent.with_backends(backends)
        assert sibling.backend_names == ["GraphDynS[32]"]
        for attr in (
            "cache_dir", "use_cache", "jobs", "executor", "storage",
            "shards", "policy", "default_source",
        ):
            assert getattr(sibling, attr) == getattr(parent, attr)
        assert sibling.stats is parent.stats
        assert sibling.manifest_path is None
        assert parent.with_backends(list(backends)) is sibling
        assert sibling.with_backends(backends) is sibling
        assert parent.with_backends([GraphDynSBackend(CFG32)]) is not sibling


class TestCachedFig14:
    def test_fresh_service_reads_every_cell_from_disk(
        self, tmp_path, run_vcpm_calls
    ):
        cold = RunService(cache_dir=str(tmp_path))
        first = _rows(cold)
        assert cold.stats.misses == len(run_vcpm_calls) == 3
        del run_vcpm_calls[:]
        warm = RunService(cache_dir=str(tmp_path))
        assert _rows(warm) == first
        assert warm.stats.misses == 0
        assert warm.stats.hits == 3
        assert run_vcpm_calls == []

    def test_14c_and_14d_share_one_run_per_algorithm(self, run_vcpm_calls):
        parent = RunService(use_cache=False)
        figure14c("FR", ["BFS", "CC"], service=parent)
        figure14d("FR", ["BFS", "CC"], service=parent)
        assert run_vcpm_calls == ["FR", "FR"]

    def test_14a_reads_the_matrix_graphdyns_reports(self):
        service = RunService(use_cache=False)
        algorithms = ["BFS", "PR"]
        rows = figure14a("FR", algorithms, service=service).rows
        for algorithm, row in zip(algorithms, rows):
            report = service.cell(algorithm, "FR").reports["GraphDynS"]
            assert row[:3] == [
                algorithm, report.edges_processed, report.scheduling_ops
            ]
            # The figure's former definition: a dedicated run's edge
            # count and the GraphDynS model's scheduling decisions.
            graph = datasets.load("FR")
            spec = get_algorithm(algorithm)
            model = GraphDynSTimingModel(graph, spec)
            result = run_vcpm(graph, spec, source=0, observers=[model])
            assert row[1:3] == [
                result.total_edges_processed, model.scheduling_ops
            ]

    @pytest.mark.parametrize("key", ["RM22", "RM23", "RM24", "RM25", "RM26"])
    def test_registry_sizes_equal_the_built_rmat_graph(self, key):
        spec = datasets.get_spec(key)
        graph = datasets.load(key)
        assert (spec.proxy_vertices, spec.proxy_edges) == (
            graph.num_vertices,
            graph.num_edges,
        )

    def test_labelled_cell_round_trips_cache_and_process_pool(self, tmp_path):
        backends = [
            GraphDynSBackend(CFG32).labelled("32"),
            GraphicionadoBackend().labelled("x"),
        ]
        pairs = (["BFS"], ["FR", "RM22"])
        pooled = RunService(
            backends, cache_dir=str(tmp_path), jobs=2, executor="process"
        ).matrix(*pairs)
        reread = RunService(backends, cache_dir=str(tmp_path))
        cached = reread.matrix(*pairs)
        assert reread.stats.misses == 0
        serial = RunService(backends, use_cache=False).matrix(*pairs)
        assert (
            canonical_reports_json(pooled)
            == canonical_reports_json(cached)
            == canonical_reports_json(serial)
        )
        assert set(cached[0].energy) == {"GraphDynS[32]", "Graphicionado[x]"}
