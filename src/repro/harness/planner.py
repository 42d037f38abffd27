"""Cache-aware compilation of experiment specs onto the run service.

:mod:`repro.harness.specs` says *what* to run; this module decides *what
is left to run* and *in which order*.  :func:`build_plan` expands a
spec's override × algorithm × graph grid into :class:`PlanCell`\\ s and
classifies each one by probing the run service's reuse tiers — the
in-process memo, the persistent content-addressed cache — plus the
daemon's in-flight coalescing keys, **before** anything is scheduled.
The resulting :class:`Plan` is the unit the CLI prints (``repro plan``,
``--dry-run``), the goldens pin, and :func:`execute_plan` runs.

Planning guarantees, each load-bearing for a test battery:

**Cached cells never schedule.**
    A cell whose content-addressed key resolves in the memo or as a
    valid persistent envelope lands in the plan's *cached* set and is
    excluded from the schedule; a ``--dry-run`` against a fully warmed
    cache schedules zero work.  Classification reuses the *same*
    validation path ``RunService.cell`` uses (via ``probe``), so a
    stale or corrupt envelope reads as a miss here exactly as it would
    at execution time.

**Deterministic cost and bytes.**
    The cost model is integer arithmetic over registry metadata
    (``proxy_vertices + proxy_edges`` per graph, times participating
    backends) — no timing, no floats — and :func:`canonical_plan_json`
    is sorted-key JSON, so plan snapshots are byte-stable across
    interpreters (Python 3.9–3.12 in CI).

**Schedule order maximizes reuse.**
    Pending cells are grouped by ``(graph, storage)`` so each dataset —
    and, out-of-core, each spill/memmap — loads once per worker instead
    of once per cell, then by override and algorithm in grid order.

**Execution is the run service, not a parallel implementation.**
    :func:`execute_plan` drives pending groups through
    ``RunService.matrix`` (inheriting thread/process fan-out, retries,
    and caching) and then collects every grid cell from the memo, so
    the spec path produces byte-identical ``canonical_reports_json`` to
    the hand-coded ``RunService.matrix`` path — the equivalence the plan
    battery in ``tests/test_planner_identity.py`` asserts.
"""

from __future__ import annotations

import dataclasses
import json
from collections import OrderedDict
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
)

from .. import backends as backend_registry
from ..graph import datasets
from ..metrics.serialize import json_scalar_default
from ..obs import get_recorder
from .service import CellResult, RunService
from .specs import ExperimentSpec, OverrideSpec, spec_digest, spec_to_dict

__all__ = [
    "PLAN_SCHEMA",
    "Plan",
    "PlanCell",
    "backends_for_override",
    "build_outputs",
    "build_plan",
    "canonical_plan_json",
    "estimate_cost",
    "execute_plan",
    "plan_to_dict",
    "render_plan_table",
    "services_for_spec",
    "summarize",
]

#: Version stamp written into every serialized plan (bump on layout
#: change; the golden comparator then fails loudly instead of drifting).
PLAN_SCHEMA = 1

#: PlanCell statuses.
CACHED_MEMO = "cached-memo"
CACHED_PERSISTENT = "cached-persistent"
INFLIGHT = "inflight"
PENDING = "pending"

_CACHED_STATUSES = (CACHED_MEMO, CACHED_PERSISTENT)


@dataclasses.dataclass(frozen=True)
class PlanCell:
    """One classified cell of a plan."""

    override: str
    algorithm: str
    graph: str
    cache_key: str
    status: str
    #: Deterministic work estimate (dimensionless units; see
    #: :func:`estimate_cost`).
    cost: int

    @property
    def cached(self) -> bool:
        return self.status in _CACHED_STATUSES


@dataclasses.dataclass
class Plan:
    """A classified, ordered compilation of one spec.

    ``cells`` is the full grid in canonical (override-major,
    algorithm-major, graph-minor) order; ``schedule`` is the subset that
    actually needs execution, in reuse-maximizing order.
    """

    spec: ExperimentSpec
    cells: List[PlanCell]
    schedule: List[PlanCell]

    @property
    def cached(self) -> List[PlanCell]:
        return [c for c in self.cells if c.cached]

    @property
    def inflight(self) -> List[PlanCell]:
        return [c for c in self.cells if c.status == INFLIGHT]

    @property
    def pending(self) -> List[PlanCell]:
        return [c for c in self.cells if c.status == PENDING]

    @property
    def total_cost(self) -> int:
        return sum(c.cost for c in self.cells)

    @property
    def pending_cost(self) -> int:
        return sum(c.cost for c in self.pending)

    @property
    def saved_cost(self) -> int:
        """Work avoided by cache hits and in-flight coalescing."""
        return self.total_cost - self.pending_cost


# ======================================================================
# Spec -> services
# ======================================================================


def backends_for_override(
    spec: ExperimentSpec, override: OverrideSpec
) -> List[object]:
    """Backend instances for one override point of the grid.

    Overridden fields are applied to the backend's *default* config with
    :func:`dataclasses.replace`, so an override names only what changes.
    """
    names = spec.backends or tuple(
        name.lower() for name in backend_registry.available()
    )
    configured = override.config_mapping()
    built: List[object] = []
    for name in names:
        fields = configured.get(name)
        if fields:
            default = backend_registry.create(name)
            config = dataclasses.replace(default.config, **fields)
            built.append(backend_registry.create(name, config))
        else:
            built.append(backend_registry.create(name))
    return built


def services_for_spec(
    spec: ExperimentSpec,
    *,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    jobs: int = 1,
    executor: str = "thread",
) -> "OrderedDict[str, RunService]":
    """One run service per override point, in grid order.

    Each override gets its own service because the backend set (and
    hence every cell's content-addressed key) differs per override;
    services share the persistent ``cache_dir``, so identical cells
    across plans still deduplicate on disk.
    """
    common = dict(
        default_source=spec.source,
        cache_dir=cache_dir,
        use_cache=use_cache,
        jobs=jobs,
        executor=executor,
        storage=spec.storage,
        shards=spec.shards,
    )
    services: "OrderedDict[str, RunService]" = OrderedDict()
    for override in spec.effective_overrides():
        backends = backends_for_override(spec, override)
        services[override.name] = RunService(backends, **common)
    return services


# ======================================================================
# Planning
# ======================================================================


def estimate_cost(graph_key: str, n_backends: int) -> int:
    """Deterministic work estimate for one cell: graph size × backends.

    ``proxy_vertices + proxy_edges`` is proportional to per-iteration
    Scatter/Apply work, and every participating backend simulates the
    same traversal; integer registry arithmetic keeps the estimate
    byte-stable across platforms (no floats, no timing).
    """
    spec = datasets.get_spec(graph_key)
    return int(spec.proxy_vertices + spec.proxy_edges) * int(n_backends)


def build_plan(
    spec: ExperimentSpec,
    services: Mapping[str, RunService],
    inflight_keys: FrozenSet[str] = frozenset(),
) -> Plan:
    """Expand, classify, and order the spec's grid.

    Args:
        spec: the validated experiment spec.
        services: per-override services from :func:`services_for_spec`.
        inflight_keys: content-addressed cell keys the daemon is already
            executing (from ``SimulationDaemon.inflight_cell_keys``);
            matching cells classify as *inflight* — they will be served
            by coalescing onto the running job, not scheduled again.

    Probing is read-only: building a plan never loads datasets, never
    executes cells, and never mutates the services' memos.
    """
    cells: List[PlanCell] = []
    for grid_cell in spec.grid():
        service = services[grid_cell.override]
        _, key, probe_status = service.probe(
            grid_cell.algorithm, grid_cell.graph
        )
        if probe_status == "memo":
            status = CACHED_MEMO
        elif probe_status == "persistent":
            status = CACHED_PERSISTENT
        elif key in inflight_keys:
            status = INFLIGHT
        else:
            status = PENDING
        cells.append(
            PlanCell(
                override=grid_cell.override,
                algorithm=grid_cell.algorithm,
                graph=grid_cell.graph,
                cache_key=key,
                status=status,
                cost=estimate_cost(
                    grid_cell.graph, len(service.backends)
                ),
            )
        )

    # Reuse-maximizing order: all of a graph's pending cells run
    # back-to-back (the dataset — and its spill, out-of-core — loads
    # once), then override and algorithm in grid order.
    graph_order = {g: i for i, g in enumerate(spec.effective_graphs())}
    override_order = {
        o.name: i for i, o in enumerate(spec.effective_overrides())
    }
    algo_order = {a: i for i, a in enumerate(spec.effective_algorithms())}
    schedule = sorted(
        (c for c in cells if c.status == PENDING),
        key=lambda c: (
            graph_order[c.graph],
            override_order[c.override],
            algo_order[c.algorithm],
        ),
    )

    plan = Plan(spec=spec, cells=cells, schedule=schedule)
    rec = get_recorder()
    if rec.enabled:
        rec.counter("planner.cells.cached").add(len(plan.cached))
        rec.counter("planner.cells.pending").add(len(plan.pending))
        rec.counter("planner.cells.inflight").add(len(plan.inflight))
    return plan


# ======================================================================
# Execution
# ======================================================================


def execute_plan(
    plan: Plan, services: Mapping[str, RunService]
) -> List[CellResult]:
    """Run the schedule, then collect the full grid in canonical order.

    Pending cells are driven through ``RunService.matrix`` one
    ``(override, graph)`` group at a time — inheriting the service's
    thread/process fan-out, retries, and cache writes — and cached
    cells replay from the memo/persistent tiers during collection.
    Because cells are independent and deterministic, the returned list
    is byte-identical (under ``canonical_reports_json``) to running the
    same grid through the hand-coded ``RunService.matrix`` path.
    """
    groups: "OrderedDict[Tuple[str, str], List[str]]" = OrderedDict()
    for cell in plan.schedule:
        groups.setdefault((cell.override, cell.graph), []).append(
            cell.algorithm
        )
    for (override, graph), algorithms in groups.items():
        services[override].matrix(
            algorithms=algorithms, graph_keys=[graph]
        )
    return [
        services[cell.override].cell(cell.algorithm, cell.graph)
        for cell in plan.cells
    ]


def build_outputs(
    spec: ExperimentSpec, services: Mapping[str, RunService]
) -> "OrderedDict[str, object]":
    """The spec's named outputs, rendered from the *base* override.

    Matrix builders read cells from the first override's (already
    executed) service; the other builders take no argument, as in the
    CLI's dispatch.
    """
    from .specs import MATRIX_BUILDERS, OUTPUT_BUILDERS

    results: "OrderedDict[str, object]" = OrderedDict()
    if not spec.outputs:
        return results
    service = next(iter(services.values()))
    for output in spec.outputs:
        builder = OUTPUT_BUILDERS[output.builder]
        if output.builder in MATRIX_BUILDERS:
            results[output.name] = builder(service=service)
        else:
            results[output.name] = builder()
    return results


def summarize(
    spec: ExperimentSpec,
    plan: Plan,
    results: Sequence[CellResult],
) -> List[Dict[str, object]]:
    """Project ``select`` fields into flat per-(cell, backend) rows.

    Row order follows the plan's canonical cell order, then backend
    report-name order within a cell; with no ``select`` clause every
    selectable field is emitted.
    """
    from .specs import SELECTABLE_FIELDS

    fields = spec.select or SELECTABLE_FIELDS
    rows: List[Dict[str, object]] = []
    for plan_cell, cell in zip(plan.cells, results):
        for system in sorted(cell.reports):
            report = cell.reports[system]
            row: Dict[str, object] = {
                "override": plan_cell.override,
                "algorithm": cell.algorithm,
                "graph": cell.graph_key,
                "system": system,
            }
            for field in fields:
                row[field] = _project_field(cell, system, report, field)
            rows.append(row)
    return rows


def _project_field(
    cell: CellResult, system: str, report: object, field: str
) -> Optional[float]:
    if field == "speedup":
        if system == "Gunrock" or "Gunrock" not in cell.reports:
            return None
        return float(cell.speedup_over_gunrock(system))
    if field == "traffic_mb":
        return float(report.total_traffic_bytes) / 1e6
    if field == "energy_mj":
        energy = cell.energy.get(system)
        return None if energy is None else float(energy.total_j) * 1e3
    return float(getattr(report, field))


# ======================================================================
# Serialization / rendering
# ======================================================================


def plan_to_dict(plan: Plan) -> Dict[str, object]:
    """Canonical plain-dict form of a plan (what the goldens pin)."""
    return {
        "schema": PLAN_SCHEMA,
        "spec": spec_to_dict(plan.spec),
        "spec_digest": spec_digest(plan.spec),
        "storage": plan.spec.storage,
        "cells": [dataclasses.asdict(cell) for cell in plan.cells],
        "schedule": [
            [cell.override, cell.algorithm, cell.graph]
            for cell in plan.schedule
        ],
        "totals": {
            "cells": len(plan.cells),
            "cached": len(plan.cached),
            "inflight": len(plan.inflight),
            "pending": len(plan.pending),
            "total_cost": plan.total_cost,
            "pending_cost": plan.pending_cost,
            "saved_cost": plan.saved_cost,
        },
    }


def canonical_plan_json(plan: Plan) -> str:
    """Byte-stable JSON of :func:`plan_to_dict` (sorted keys)."""
    return json.dumps(
        plan_to_dict(plan), sort_keys=True, default=json_scalar_default
    )


def render_plan_table(plan: Plan) -> str:
    """The ``--dry-run`` plan table: one row per cell plus totals."""
    headers = ["override", "algorithm", "graph", "status", "cost"]
    rows = [
        [c.override, c.algorithm, c.graph, c.status, str(c.cost)]
        for c in plan.cells
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]

    def fmt(row: Iterable[str]) -> str:
        return "  ".join(
            str(v).ljust(widths[i]) for i, v in enumerate(row)
        ).rstrip()

    lines = [fmt(headers), fmt("-" * w for w in widths)]
    lines.extend(fmt(r) for r in rows)
    lines.append("")
    lines.append(
        f"{len(plan.cells)} cells: {len(plan.cached)} cached, "
        f"{len(plan.inflight)} in-flight, {len(plan.pending)} pending "
        f"| cost {plan.pending_cost}/{plan.total_cost} "
        f"({plan.saved_cost} saved)"
    )
    return "\n".join(lines)
