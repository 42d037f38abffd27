"""Cross-engine validation harness and report-record tests."""

import pytest

from repro.graph import power_law_graph
from repro.harness.report import ExperimentRecord
from repro.harness.validation import validate_all, validate_engines
from repro.harness.figures import FigureResult


class TestValidateEngines:
    @pytest.mark.parametrize("algo", ["BFS", "SSSP", "CC", "SSWP", "PR"])
    def test_all_engines_agree(self, algo):
        graph = power_law_graph(150, 700, seed=31, name="val")
        outcome = validate_engines(graph, algo)
        assert outcome.agreed, outcome.detail
        assert outcome.engines_checked == 4

    def test_validate_all_battery(self):
        outcomes = validate_all(seeds=1, vertices=80, edges=300)
        assert len(outcomes) == 10  # 2 graph families x 5 algorithms
        assert all(o.agreed for o in outcomes)


class TestExperimentRecord:
    def test_markdown_contains_fields(self):
        record = ExperimentRecord(
            artifact="Fig. X",
            paper_claim="claims A",
            measured="measured B",
            verdict="HOLDS",
        )
        text = record.to_markdown()
        assert "### Fig. X" in text
        assert "claims A" in text
        assert "measured B" in text
        assert "HOLDS" in text

    def test_markdown_embeds_figure(self):
        figure = FigureResult(
            figure="T", headers=["a"], rows=[[1]]
        )
        record = ExperimentRecord(
            artifact="X", paper_claim="p", measured="m",
            verdict="v", figure=figure,
        )
        text = record.to_markdown()
        assert "```" in text
        assert "T" in text


class TestCLIValidate:
    def test_cli_validate_passes(self, capsys):
        from repro.cli import main

        code = main(
            ["validate", "--seeds", "1", "--vertices", "60", "--edges", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
