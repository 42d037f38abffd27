"""Plan-equivalence battery: the spec path is byte-identical to the
hand-coded matrix path.

Every test executes the same grid twice — once compiled from a
declarative spec through :func:`repro.harness.planner.execute_plan`,
once through the original ``RunService.run_matrix`` — with caching
disabled on both sides, so equality is between two *genuine* executions
(``canonical_reports_json`` bytes), not a cache replay.

Tier-1 runs cheap sub-grids (the RM12/RM13 proxy aliases); the full
Table 4 grid runs under the ``large`` marker in CI's large-tests job.
"""

import numpy as np
import pytest

from repro.harness import planner
from repro.harness.service import (
    RunService,
    canonical_reports_json,
)
from repro.harness.specs import parse_spec
from repro.metrics.counters import RunReport
from repro.metrics.serialize import json_scalar_default
from repro.memory.traffic import TrafficLedger


def _spec_path_json(spec_text, **service_kwargs):
    spec = parse_spec(spec_text)
    services = planner.services_for_spec(
        spec, cache_dir=None, use_cache=False, **service_kwargs
    )
    plan = planner.build_plan(spec, services)
    # Cold and cacheless: the plan must schedule the entire grid.
    assert len(plan.schedule) == len(plan.cells)
    results = planner.execute_plan(plan, services)
    return canonical_reports_json(results)


def _matrix_path_json(algorithms, graphs, **service_kwargs):
    service = RunService(cache_dir=None, use_cache=False, **service_kwargs)
    return canonical_reports_json(
        service.run_matrix(algorithms=algorithms, graph_keys=graphs)
    )


class TestSpecMatrixIdentity:
    def test_thread_executor_identity(self):
        spec_json = _spec_path_json(
            "name: t\nalgorithms: [BFS, SSSP, PR]\ngraphs: [RM12]\n",
            jobs=2,
        )
        hand_json = _matrix_path_json(["BFS", "SSSP", "PR"], ["RM12"], jobs=2)
        assert spec_json == hand_json

    def test_serial_identity_two_graphs(self):
        spec_json = _spec_path_json(
            "name: t\nalgorithms: [CC, SSWP]\ngraphs: [RM12, RM13]\n"
        )
        hand_json = _matrix_path_json(["CC", "SSWP"], ["RM12", "RM13"])
        assert spec_json == hand_json

    def test_process_executor_identity(self):
        spec_json = _spec_path_json(
            "name: t\nalgorithms: [BFS, PR]\ngraphs: [RM12]\n",
            jobs=2,
            executor="process",
        )
        hand_json = _matrix_path_json(
            ["BFS", "PR"], ["RM12"], jobs=2, executor="process"
        )
        assert spec_json == hand_json

    def test_override_grid_matches_hand_built_services(self):
        """Each override point equals a service built with that config."""
        import dataclasses as dc

        from repro import backends as backend_registry
        from repro.harness.service import default_backends

        spec = parse_spec(
            "name: ablate\n"
            "algorithms: [BFS]\n"
            "graphs: [RM12]\n"
            "overrides:\n"
            "  - name: base\n"
            "  - name: half\n"
            "    graphdyns:\n"
            "      n_simt: 4\n"
        )
        services = planner.services_for_spec(
            spec, cache_dir=None, use_cache=False
        )
        plan = planner.build_plan(spec, services)
        results = planner.execute_plan(plan, services)
        assert [c.override for c in plan.cells] == ["base", "half"]

        base = RunService(cache_dir=None, use_cache=False)
        half_config = dc.replace(
            backend_registry.create("graphdyns").config, n_simt=4
        )
        half = RunService(
            default_backends({"graphdyns": half_config}),
            cache_dir=None,
            use_cache=False,
        )
        hand = base.run_matrix(["BFS"], ["RM12"]) + half.run_matrix(
            ["BFS"], ["RM12"]
        )
        assert canonical_reports_json(results) == canonical_reports_json(hand)
        # The override genuinely changed the modeled outcome.
        assert (
            results[0].reports["GraphDynS"].cycles
            != results[1].reports["GraphDynS"].cycles
        )

    @pytest.mark.large
    def test_full_table4_grid_identity(self):
        """The paper's full 5x6 grid, spec path vs hand-coded path."""
        algorithms = ["BFS", "SSSP", "CC", "SSWP", "PR"]
        graphs = ["FR", "PK", "LJ", "HO", "IN", "OR"]
        spec_json = _spec_path_json(
            "name: table4\n"
            f"algorithms: [{', '.join(algorithms)}]\n"
            f"graphs: [{', '.join(graphs)}]\n",
            jobs=4,
        )
        hand_json = _matrix_path_json(algorithms, graphs, jobs=4)
        assert spec_json == hand_json


class TestCanonicalStability:
    """Satellite fix: numpy scalars must not perturb canonical bytes."""

    def test_json_scalar_default_normalizes_numpy(self):
        assert json_scalar_default(np.int64(7)) == 7
        assert isinstance(json_scalar_default(np.int64(7)), int)
        assert json_scalar_default(np.float64(0.25)) == 0.25
        assert isinstance(json_scalar_default(np.float64(0.25)), float)
        assert json_scalar_default(np.bool_(True)) is True
        with pytest.raises(TypeError):
            json_scalar_default(object())

    def test_numpy_scalars_in_reports_do_not_change_bytes(self):
        """Same values as np scalars and python scalars: same bytes."""
        from repro.harness.service import CellResult

        def report(extra):
            return RunReport(
                system="S",
                algorithm="BFS",
                graph_name="g",
                cycles=12.5,
                frequency_hz=1e9,
                edges_processed=10,
                vertices_processed=5,
                iterations=2,
                traffic=TrafficLedger(),
                peak_bytes_per_cycle=64.0,
                extra=extra,
            )

        def cell(extra):
            return CellResult(
                algorithm="BFS",
                graph_key="g",
                functional=None,
                reports={"S": report(extra)},
                energy={},
            )

        with_numpy = cell(
            {"a": np.float64(0.1), "b": np.int64(3), "c": np.bool_(False)}
        )
        with_python = cell({"a": 0.1, "b": 3, "c": False})
        payload = canonical_reports_json([with_numpy])
        assert payload == canonical_reports_json([with_python])
        # float repr is the shortest-round-trip form on every 3.9+ build
        assert "0.1" in payload and "0.30000000000000004" not in payload

    def test_plan_json_is_sorted_and_stable(self):
        spec = parse_spec("name: t\nalgorithms: [BFS]\ngraphs: [RM12]\n")
        services = planner.services_for_spec(
            spec, cache_dir=None, use_cache=False
        )
        one = planner.canonical_plan_json(planner.build_plan(spec, services))
        two = planner.canonical_plan_json(planner.build_plan(spec, services))
        assert one == two
        import json

        parsed = json.loads(one)
        assert list(parsed) == sorted(parsed)  # top-level keys sorted
        assert parsed["totals"]["cells"] == 1
