"""The example scripts must keep working (run with small inputs)."""

import importlib.util
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_main(name: str, argv, capsys):
    module = _load(name)
    old_argv = sys.argv
    sys.argv = [name, *argv]
    try:
        module.main()
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


class TestExampleScripts:
    def test_quickstart(self, capsys):
        out = _run_main("quickstart", [], capsys)
        assert "GTEPS" in out
        assert "converged" in out

    def test_compare_accelerators(self, capsys):
        out = _run_main("compare_accelerators", ["FR", "BFS"], capsys)
        for system in ("Gunrock", "Graphicionado", "GraphDynS"):
            assert system in out

    def test_custom_algorithm(self, capsys):
        out = _run_main("custom_algorithm", [], capsys)
        assert "k=5" in out

    def test_push_vs_pull(self, capsys):
        out = _run_main("push_vs_pull", ["FR"], capsys)
        assert "same_result" in out
        assert "NO" not in out.split("same_result")[1].split("\n\n")[0]

    def test_irregularity_analysis(self, capsys):
        out = _run_main("irregularity_analysis", ["FR", "BFS"], capsys)
        assert "gini" in out
        assert "Fig. 2" in out
