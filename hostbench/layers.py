"""Per-layer host-time attribution for the traced benchmark run.

The benchmark records spans from its own files: :class:`LayerTracer`
wraps the program's layer entry points in place (every module that
imported a function by name gets the wrapper too) and keeps, per layer,
the *self* time (its calls' duration minus the time of wrapped calls
nested inside them) and a few work counts.  Self times of all layers
partition the traced interval, so what they do not cover is reported as
the unattributed remainder.

A wrapped function that no longer exists is recorded as *absent* and its
metrics read 0; nothing here fails because the program changed shape.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Modules imported up front so that every by-name import site exists
#: before the wrappers are installed.
_PRELOAD = (
    "repro.graph.datasets",
    "repro.graph.dynamic",
    "repro.vcpm",
    "repro.vcpm.engine",
    "repro.vcpm.incremental",
    "repro.vcpm.partitioned",
    "repro.memory",
    "repro.memory.crossbar",
    "repro.graphicionado.timing",
    "repro.graphdyns.timing",
    "repro.gpu.gunrock",
    "repro.dca.timing",
    "repro.backends",
    "repro.harness.service",
)

#: The backend display names the per-observer metrics are named after.
BACKEND_NAMES = ("GraphDynS", "Graphicionado", "Gunrock", "DCA")


class LayerTracer:
    """Installs layer wrappers, accumulates spans, and removes them again."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.cell_s: List[float] = []
        self.absent: List[str] = []
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._paused = 0
        self._build_depth = 0

    # ------------------------------------------------------------------
    # Span accounting
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        if self._paused:
            yield
            return
        frame = [0.0]  # time covered by nested spans
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self.self_s[layer] += duration - frame[0]
            if self._stack:
                self._stack[-1][0] += duration

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Run program code (e.g. output checks) without recording it."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _resolve(self, module_name: str, path: str) -> Optional[Tuple[object, str, object]]:
        """(owner, attribute, original) for ``module:path``, or None if gone."""
        try:
            owner: object = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}.{path}")
            return None
        return owner, attr, original

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patch_function(self, module_name: str, name: str, make: Callable) -> None:
        """Wrap a module-level function at every import site.

        Every loaded module that holds the function under any name gets
        the wrapper, the benchmark's own modules included.
        """
        found = self._resolve(module_name, name)
        if found is None:
            return
        _, _, original = found
        wrapper = make(original)
        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def patch_method(self, cls: type, name: str, make: Callable) -> None:
        """Wrap ``cls.name`` (inherited or own) on ``cls`` itself."""
        original = getattr(cls, name, None)
        if original is None:
            self.absent.append(f"{cls.__module__}.{cls.__qualname__}.{name}")
            return
        self._set(cls, name, make(original))

    def patch_class_method(self, module_name: str, path: str, make: Callable) -> None:
        found = self._resolve(module_name, path)
        if found is not None:
            owner, attr, original = found
            self._set(owner, attr, make(original))

    def uninstall(self) -> None:
        for owner, attr, previous in reversed(self._undo):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._undo.clear()

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def timed(self, layer: str, after: Optional[Callable] = None) -> Callable:
        """Factory: span ``layer`` around the call, then ``after(result, args)``."""

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(layer):
                    result = fn(*args, **kwargs)
                if after is not None and not self._paused:
                    after(result, args, kwargs)
                return result

            return wrapper

        return make

    def install(self) -> None:
        for module_name in _PRELOAD:
            try:
                importlib.import_module(module_name)
            except ImportError:
                self.absent.append(module_name)
        counts = self.counts

        # repro.graph: loads, and the edges of graphs actually built.
        self.patch_function("repro.graph.datasets", "load", self.timed("graph.load"))

        def count_build(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._build_depth += 1
                try:
                    graph = fn(*args, **kwargs)
                finally:
                    self._build_depth -= 1
                if self._build_depth == 0 and not self._paused:
                    counts["graph.edges_built"] += graph.num_edges
                return graph

            return wrapper

        for method in ("build", "build_into"):
            self.patch_class_method("repro.graph.datasets", f"DatasetSpec.{method}", count_build)

        # repro.graph.dynamic: apply, split by batch kind.
        def apply_wrapper(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(graph, batch, *args, **kwargs):
                kind = "dynamic.apply_insert" if batch.insert_only else "dynamic.apply_mixed"
                start = time.perf_counter()
                with self.span("dynamic.apply"):
                    result = fn(graph, batch, *args, **kwargs)
                if not self._paused:
                    counts[kind + "_s"] += time.perf_counter() - start
                return result

            return wrapper

        self.patch_class_method("repro.graph.dynamic", "DynamicGraph.apply", apply_wrapper)

        # repro.vcpm engines: work counts from the returned result.
        def count_run(result, args, kwargs) -> None:
            counts["vcpm.iterations"] += len(result.iterations)
            counts["vcpm.edges"] += result.total_edges_processed

        self.patch_function("repro.vcpm.engine", "run_vcpm", self.timed("vcpm", count_run))
        self.patch_function(
            "repro.vcpm.partitioned", "run_vcpm_partitioned", self.timed("partitioned", count_run)
        )

        # repro.vcpm.incremental: inclusive time and runs per mode.
        def incremental_wrapper(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(graph, spec, batch, *args, **kwargs):
                start = time.perf_counter()
                with self.span("incremental"):
                    outcome = fn(graph, spec, batch, *args, **kwargs)
                if not self._paused:
                    mode = "delta" if outcome.mode == "delta" else "full"
                    counts[f"incremental.{mode}_s"] += time.perf_counter() - start
                    counts[f"incremental.{mode}_ops"] += 1
                    if batch.insert_only:
                        counts["incremental.insert_only_ops"] += 1
                return outcome

            return wrapper

        self.patch_function("repro.vcpm.incremental", "run_vcpm_incremental", incremental_wrapper)

        # repro.memory.crossbar: conflict counting and batch routing.  The
        # destination stream is the first argument of both (after self).
        def count_stream(prefix: str, position: int) -> Callable:
            def after(result, args, kwargs) -> None:
                counts[f"{prefix}_calls"] += 1
                counts[f"{prefix}_elems"] += int(np.size(args[position]))

            return after

        self.patch_function(
            "repro.memory.crossbar",
            "grouped_duplicate_count",
            self.timed("crossbar.conflict", count_stream("crossbar.conflict", 0)),
        )
        self.patch_class_method(
            "repro.memory.crossbar",
            "Crossbar.route_batch",
            self.timed("crossbar.route", count_stream("crossbar.route", 1)),
        )

        # Backends: observer on_iteration, report, energy.
        self._patch_backends()

        # repro.harness.service: cells, cell execution, shard fan-out.
        def cell_wrapper(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                with self.span("service.cell"):
                    result = fn(*args, **kwargs)
                if not self._paused:
                    self.cell_s.append(time.perf_counter() - start)
                return result

            return wrapper

        self.patch_class_method("repro.harness.service", "RunService.cell", cell_wrapper)
        self.patch_function("repro.harness.service", "execute_cell", self.timed("service.execute"))

        def pool_started(result, args, kwargs) -> None:
            counts["service.pools_started"] += 1

        for method, after in (("__init__", pool_started), ("__call__", None), ("close", None)):
            self.patch_class_method(
                "repro.harness.service",
                f"_ProcessShardRunner.{method}",
                self.timed("service.shard_runner", after),
            )

    def _patch_backends(self) -> None:
        try:
            from repro import backends
            from repro.graph.csr import CSRGraph
            from repro.vcpm.algorithms import get_algorithm
        except ImportError:
            self.absent.append("repro.backends")
            return
        probe = CSRGraph(
            offsets=np.array([0, 1, 1]),
            edges=np.array([1]),
            weights=np.array([1.0], dtype=np.float32),
            name="probe",
        )
        spec = get_algorithm("BFS")
        seen = set()
        for name in backends.available():
            backend = backends.create(name)
            observer_cls = type(backend.make_observer(probe, spec))
            for cls, method, layer in (
                (observer_cls, "on_iteration", f"observer.{backend.name}"),
                (type(backend), "report", "backend.report"),
                (type(backend), "energy", "energy"),
            ):
                if (cls, method) not in seen:
                    seen.add((cls, method))
                    self.patch_method(cls, method, self.timed(layer))

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics(self, traced_s: float) -> Dict[str, float]:
        """Per-layer metric values (units live in BENCHMARK.json)."""

        def own(layer: str) -> float:
            return self.self_s.get(layer, 0.0)

        def count(name: str) -> float:
            return self.counts.get(name, 0.0)

        insert_only = count("incremental.insert_only_ops")
        values = {
            "graph.load_s": own("graph.load"),
            "graph.edges_built": count("graph.edges_built"),
            "dynamic.apply_s": own("dynamic.apply"),
            "dynamic.apply_insert_s": count("dynamic.apply_insert_s"),
            "dynamic.apply_mixed_s": count("dynamic.apply_mixed_s"),
            "vcpm.self_s": own("vcpm"),
            "vcpm.iterations": count("vcpm.iterations"),
            "vcpm.edges": count("vcpm.edges"),
            "incremental.delta_s": count("incremental.delta_s"),
            "incremental.full_s": count("incremental.full_s"),
            "incremental.delta_ops": count("incremental.delta_ops"),
            "incremental.full_ops": count("incremental.full_ops"),
            # Useful outcomes over attempts: of the runs the delta path
            # can serve (insert-only batches), the share that took it.
            "incremental.delta_ratio": (
                count("incremental.delta_ops") / insert_only if insert_only else 0.0
            ),
            "partitioned.self_s": own("partitioned"),
            "service.shard_runner_s": own("service.shard_runner"),
            "service.pools_started": count("service.pools_started"),
            "backend.report_s": own("backend.report"),
            "energy_s": own("energy"),
            "crossbar.conflict_s": own("crossbar.conflict"),
            "crossbar.conflict_calls": count("crossbar.conflict_calls"),
            "crossbar.conflict_elems": count("crossbar.conflict_elems"),
            "crossbar.route_s": own("crossbar.route"),
            "crossbar.route_elems": count("crossbar.route_elems"),
            "service.cell_s.p50": statistics.median(self.cell_s) if self.cell_s else 0.0,
            "service.cell_s.max": max(self.cell_s, default=0.0),
            "service.store_s": own("service.cell"),
            "service.execute_self_s": own("service.execute"),
            "unattributed_s": traced_s - sum(self.self_s.values()),
        }
        for name in BACKEND_NAMES:
            values[f"observer.{name}_s"] = own(f"observer.{name}")
        return values


_MISSING = object()
