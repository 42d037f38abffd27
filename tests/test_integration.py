"""Cross-system integration tests: the paper's comparative claims in shape.

These run the full pipeline (functional engine + all three timing models)
on the FR proxy -- the smallest Table 4 graph -- and assert the *ordering*
relationships the paper reports, not absolute numbers.
"""

import pytest

from repro.graph import datasets
from repro.harness import execute_cell
from repro.memory import Region


@pytest.fixture(scope="module")
def fr_cells():
    graph = datasets.load("FR")
    return {
        algo: execute_cell(graph, algo, "FR")
        for algo in ("BFS", "SSSP", "CC", "SSWP", "PR")
    }


class TestSpeedupOrdering:
    def test_graphdyns_beats_graphicionado_everywhere(self, fr_cells):
        for algo, cell in fr_cells.items():
            gds = cell.reports["GraphDynS"].seconds
            gio = cell.reports["Graphicionado"].seconds
            assert gds < gio, algo

    def test_accelerators_beat_gpu_everywhere(self, fr_cells):
        for algo, cell in fr_cells.items():
            gun = cell.reports["Gunrock"].seconds
            assert cell.reports["GraphDynS"].seconds < gun, algo
            assert cell.reports["Graphicionado"].seconds < gun, algo

    def test_speedups_in_paper_band(self, fr_cells):
        # Paper Fig. 6: per-cell GraphDynS speedups roughly 2-32x.
        for algo, cell in fr_cells.items():
            speedup = cell.speedup_over_gunrock("GraphDynS")
            assert 1.5 < speedup < 40, (algo, speedup)

    def test_cc_speedup_lowest(self, fr_cells):
        # Gunrock's online filtering helps CC most (paper Section 7).
        speedups = {
            algo: cell.speedup_over_gunrock("GraphDynS")
            for algo, cell in fr_cells.items()
        }
        assert speedups["CC"] == min(speedups.values())


class TestThroughputShape:
    def test_pr_highest_graphdyns_throughput(self, fr_cells):
        gteps = {a: c.reports["GraphDynS"].gteps for a, c in fr_cells.items()}
        assert gteps["PR"] >= max(v for k, v in gteps.items() if k != "CC") * 0.8

    def test_below_peak(self, fr_cells):
        for cell in fr_cells.values():
            assert cell.reports["GraphDynS"].gteps < 128.0  # ideal peak


class TestTrafficShape:
    def test_graphdyns_moves_least_data(self, fr_cells):
        for algo, cell in fr_cells.items():
            gds = cell.reports["GraphDynS"].total_traffic_bytes
            gio = cell.reports["Graphicionado"].total_traffic_bytes
            gun = cell.reports["Gunrock"].total_traffic_bytes
            assert gds < gio < gun, algo

    def test_graphdyns_has_no_metadata_traffic(self, fr_cells):
        for cell in fr_cells.values():
            assert (
                cell.reports["GraphDynS"].traffic.region_total(Region.METADATA)
                == 0
            )

    def test_storage_ordering(self, fr_cells):
        cell = fr_cells["SSSP"]
        assert (
            cell.reports["GraphDynS"].storage_bytes
            < cell.reports["Graphicionado"].storage_bytes
            < cell.reports["Gunrock"].storage_bytes
        )


class TestEnergyShape:
    def test_graphdyns_most_efficient(self, fr_cells):
        for algo, cell in fr_cells.items():
            gds = cell.energy["GraphDynS"].total_j
            gio = cell.energy["Graphicionado"].total_j
            gun = cell.energy["Gunrock"].total_j
            assert gds < gio < gun, algo

    def test_energy_reduction_vs_gunrock_large(self, fr_cells):
        # Paper: 91.4% reduction on average (so normalized < ~0.3 per cell).
        for algo, cell in fr_cells.items():
            assert cell.energy_vs_gunrock("GraphDynS") < 0.4, algo

    def test_hbm_dominates_graphdyns_energy(self, fr_cells):
        for cell in fr_cells.values():
            assert cell.energy["GraphDynS"].hbm_fraction > 0.5


class TestFunctionalConsistency:
    def test_all_systems_observed_same_run(self, fr_cells):
        for algo, cell in fr_cells.items():
            iters = {r.iterations for r in cell.reports.values()}
            assert len(iters) == 1, algo

    def test_update_scheduling_skips_work(self, fr_cells):
        bfs = fr_cells["BFS"]
        assert (
            bfs.reports["GraphDynS"].update_operations
            < bfs.reports["Graphicionado"].update_operations
        )

    def test_pr_updates_everything(self, fr_cells):
        pr = fr_cells["PR"]
        graph = datasets.load("FR")
        report = pr.reports["GraphDynS"]
        assert report.update_operations == report.iterations * graph.num_vertices
