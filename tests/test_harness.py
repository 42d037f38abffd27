"""Harness tests: rendering, run-service memoization, figure regenerators.

Figure functions are exercised on the smallest proxies (FR) or with reduced
algorithm subsets so the suite stays fast; the full-matrix runs live in the
benchmark harness.
"""


import pytest

from repro.harness import (
    RunService,
    execute_cell,
    figure2,
    figure8,
    figure14a,
    figure14b,
    figure14e,
    geomean,
    render_table,
    table1,
    table2,
    table3,
    table4,
)
from repro.graph import datasets


class TestIO:
    def test_render_table_aligns(self):
        out = render_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_render_table_title(self):
        out = render_table(["x"], [[1]], title="T")
        assert out.startswith("T\n")

    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([]) == 0.0

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestTables:
    def test_table1_covers_three_irregularities(self):
        result = table1()
        assert len(result.rows) == 3
        assert "Workload" in result.rows[0][0]

    def test_table2_covers_five_algorithms(self):
        result = table2()
        assert [row[0] for row in result.rows] == [
            "BFS", "SSSP", "CC", "SSWP", "PR",
        ]

    def test_table3_mentions_key_parameters(self):
        text = table3().render()
        assert "512GB/s" in text
        assert "32MB" in text and "64MB" in text

    def test_table4_has_eleven_rows(self):
        result = table4()
        assert len(result.rows) == 11


class TestStaticFigures:
    def test_figure8_totals(self):
        result = figure8()
        total_row = result.rows[-1]
        assert total_row[0] == "TOTAL"
        assert total_row[1] == pytest.approx(3.38)
        assert total_row[3] == pytest.approx(12.08)

    def test_figure8_renders(self):
        assert "Updater" in figure8().render()


class TestDynamicFigures:
    def test_figure2_rows_cover_iterations(self):
        result = figure2("FR", "SSSP", max_iterations=5)
        assert 1 <= len(result.rows) <= 5
        # Each row: iteration + 8 interval counts + updates.
        assert all(len(row) == 10 for row in result.rows)

    def test_figure2_interval_counts_sum_to_active(self):
        result = figure2("FR", "BFS", max_iterations=4)
        for row in result.rows:
            assert sum(row[1:9]) >= 1  # at least the active set binned

    def test_figure14a_reduction_large(self):
        result = figure14a("FR", algorithms=["SSSP"])
        reduction = result.rows[0][3]
        assert reduction > 80.0

    def test_figure14b_loads_near_one(self):
        result = figure14b("FR", "SSWP")
        assert result.rows, "no iterations captured"
        loads = [val for row in result.rows for val in row[1:]]
        assert max(loads) < 1.5
        assert min(loads) > 0.5

    def test_figure14e_normalizes_to_128(self):
        result = figure14e(
            "FR", algorithms=["BFS"], ue_counts=(128, 32)
        )
        row = result.rows[0]
        assert row[1] == pytest.approx(100.0)
        assert row[2] <= 100.5


class TestSuite:
    def test_cell_memoized(self):
        service = RunService()
        a = service.cell("BFS", "FR")
        b = service.cell("bfs", "FR")
        assert a is b

    def test_cell_contains_all_systems(self):
        service = RunService()
        cell = service.cell("BFS", "FR")
        assert set(cell.reports) == {
            "GraphDynS",
            "Graphicionado",
            "Gunrock",
            "DCA",
        }
        assert set(cell.energy) == set(cell.reports)

    def test_speedup_over_gunrock_self_is_one(self):
        service = RunService()
        cell = service.cell("BFS", "FR")
        assert cell.speedup_over_gunrock("Gunrock") == pytest.approx(1.0)

    def test_run_cell_standalone(self):
        graph = datasets.load("FR")
        cell = execute_cell(graph, "CC", "FR")
        assert cell.algorithm == "CC"
        assert cell.reports["GraphDynS"].edges_processed > 0

    def test_matrix_shape(self):
        service = RunService()
        cells = service.matrix(algorithms=["BFS"], graph_keys=["FR"])
        assert len(cells) == 1
