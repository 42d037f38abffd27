"""Run service: cached, parallel evaluation of (algorithm x graph) cells.

This layer sits between the backend registry and every consumer of
evaluation results (figures, tables, sweeps, benchmarks, CLI):

``RunRequest``
    What to run: algorithm, dataset key, the participating backends with
    their config digests, and the source vertex.

``RunService``
    Executes requests with three reuse tiers:

    1. an identity-stable in-process memo (what ``ExperimentSuite``
       always had),
    2. a content-addressed persistent JSON cache — the key hashes the
       request, the dataset fingerprint, the serializer schema version
       and the package version, so any change to configs, datasets, or
       code conventions invalidates stale entries instead of misreading
       them,
    3. parallel fan-out of cache-miss cells across a
       :class:`concurrent.futures.ThreadPoolExecutor` (one functional
       ``run_vcpm`` per cell still drives all backends' observers
       simultaneously; independent cells fan out across workers) or,
       with ``executor="process"``, across a
       :class:`concurrent.futures.ProcessPoolExecutor` so the numpy-and-
       Python cell work scales across cores instead of serializing on
       the GIL (requests, backends, and :class:`CellResult` are all
       picklable by construction).

Cell execution is deterministic and cells are independent, so a
``jobs=4`` matrix -- thread or process -- produces bit-identical
``RunReport`` JSON to a serial run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import threading
import warnings
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .. import backends as backend_registry
from ..backends.base import Backend
from ..energy.model import EnergyReport
from ..graph import datasets
from ..graph.csr import CSRGraph
from ..metrics.counters import CacheStats, RunReport
from ..metrics.serialize import (
    SCHEMA_VERSION,
    SchemaMismatchError,
    json_scalar_default,
    report_from_dict,
    report_to_dict,
)
from ..graph.storage import STORAGE_KINDS
from ..obs import get_recorder
from ..vcpm.algorithms import algorithm_names, get_algorithm
from ..vcpm.engine import IterationTrace, VCPMResult, run_vcpm
from ..vcpm.partitioned import (
    ShardRunner,
    ShardScatterTask,
    run_vcpm_partitioned,
    scatter_shard_task,
)

__all__ = [
    "REAL_WORLD_KEYS",
    "CacheStats",
    "CacheStoreWarning",
    "CellExecutionError",
    "CellResult",
    "RunRequest",
    "RunService",
    "canonical_reports_json",
    "default_backends",
    "execute_cell",
]

#: The six real-world columns of every evaluation figure.
REAL_WORLD_KEYS: Tuple[str, ...] = ("FR", "PK", "LJ", "HO", "IN", "OR")


@dataclasses.dataclass
class CellResult:
    """All participating systems' outcomes for one (algorithm, graph) cell."""

    algorithm: str
    graph_key: str
    functional: VCPMResult
    reports: Dict[str, RunReport]
    energy: Dict[str, EnergyReport]

    def speedup_over_gunrock(self, system: str) -> float:
        return self.reports[system].speedup_over(self.reports["Gunrock"])

    def energy_vs_gunrock(self, system: str) -> float:
        return self.energy[system].normalized_to(self.energy["Gunrock"])


def default_backends(
    configs: Optional[Mapping[str, object]] = None,
) -> List[Backend]:
    """One instance of every registered backend, in registration order.

    Args:
        configs: optional per-backend config overrides, keyed by backend
            name (case-insensitive); e.g. ``{"graphdyns": my_config}``.
    """
    overrides = {k.lower(): v for k, v in (configs or {}).items()}
    return [
        backend_registry.create(name, overrides.get(name.lower()))
        for name in backend_registry.available()
    ]


def _cell_in_subprocess(
    backends: Sequence[Backend],
    algorithm: str,
    graph_key: str,
    source: int,
    storage: str = "memory",
    shards: int = 1,
) -> "CellResult":
    """Worker entry point for ``executor="process"`` matrix fan-out.

    Module-level so :mod:`concurrent.futures` can pickle it by
    reference; the graph is (re)built inside the worker from the dataset
    registry (honouring the storage backend), which is deterministic, so
    the returned :class:`CellResult` is identical to an in-process
    execution.  Shards execute in-process inside the worker — the matrix
    already owns the process pool, and nesting pools per cell would
    oversubscribe it; the sharded *reduction structure* (and hence the
    byte-identical result) is preserved either way.
    """
    graph = datasets.load(graph_key, storage=storage)
    return execute_cell(
        graph,
        algorithm,
        graph_key=graph_key,
        source=source,
        backends=backends,
        shards=shards,
    )


def _shard_scatter_in_subprocess(task: ShardScatterTask) -> np.ndarray:
    """Worker entry point for per-shard Scatter fan-out.

    Re-loads the (typically mmap-backed) graph from the task's
    ``graph_ref`` through the worker's process-wide dataset memo — only
    the active/property arrays and the shard's segment cross the process
    boundary, never the CSR arrays.
    """
    if task.graph_ref is None:
        raise ValueError("process shard fan-out requires a graph_ref")
    graph_key, storage = task.graph_ref
    graph = datasets.load(graph_key, storage=storage)
    return scatter_shard_task(task, graph)


class _ProcessShardRunner:
    """Maps :class:`ShardScatterTask` batches onto a process pool.

    One runner (and pool) lives for the duration of one cell execution,
    amortizing worker start-up across all iterations of that cell.
    """

    def __init__(self, workers: int) -> None:
        self._pool = ProcessPoolExecutor(max_workers=max(1, workers))

    def __call__(self, tasks: List[ShardScatterTask]) -> List[np.ndarray]:
        return list(self._pool.map(_shard_scatter_in_subprocess, tasks))

    def close(self) -> None:
        self._pool.shutdown()


def execute_cell(
    graph: CSRGraph,
    algorithm: str,
    graph_key: Optional[str] = None,
    source: int = 0,
    backends: Optional[Sequence[Backend]] = None,
    shards: int = 1,
    shard_runner: Optional[ShardRunner] = None,
    graph_ref: Optional[Tuple[str, str]] = None,
) -> CellResult:
    """Run all backends on one (graph, algorithm) pair.

    One functional run drives every backend's observer simultaneously
    (they are independent observers of the same data-dependent
    behaviour), which both guarantees a fair comparison and keeps the
    whole matrix fast.  With ``shards > 1`` (or an explicit
    ``shard_runner``) the functional run routes through the
    destination-sharded engine; observers still see the full merged
    iteration stream, so the resulting reports are byte-identical to the
    unsharded path.
    """
    backends = list(backends) if backends is not None else default_backends()
    spec = get_algorithm(algorithm)
    observers = {b.name: b.make_observer(graph, spec) for b in backends}
    if shards > 1 or shard_runner is not None:
        functional = run_vcpm_partitioned(
            graph,
            spec,
            shards=shards,
            source=source,
            observers=list(observers.values()),
            shard_runner=shard_runner,
            graph_ref=graph_ref,
        )
    else:
        functional = run_vcpm(
            graph, spec, source=source, observers=list(observers.values())
        )
    reports = {b.name: b.report(observers[b.name]) for b in backends}
    energy = {b.name: b.energy(reports[b.name]) for b in backends}
    return CellResult(
        algorithm=spec.name,
        graph_key=graph_key or graph.name,
        functional=functional,
        reports=reports,
        energy=energy,
    )


@dataclasses.dataclass(frozen=True)
class RunRequest:
    """Everything that identifies one evaluation cell."""

    algorithm: str
    graph_key: str
    #: (backend display name, backend config digest) pairs.
    backends: Tuple[Tuple[str, str], ...]
    source: int = 0
    #: Execution strategy, not content: storage backend and shard count
    #: change *how* the cell is computed, never its result (the
    #: byte-identical invariant), so they are deliberately excluded from
    #: :meth:`cache_key` — an mmap 4-shard run hits the cache entry a
    #: memory unsharded run wrote, and vice versa.
    storage: str = "memory"
    shards: int = 1

    def cache_key(self, dataset_fingerprint: str, package_version: str) -> str:
        """Content address of this request's result.

        Excludes ``storage``/``shards`` (see the field comment): the key
        addresses the *result*, which execution strategy cannot change.
        """
        payload = {
            "schema": SCHEMA_VERSION,
            "package_version": package_version,
            "algorithm": self.algorithm,
            "graph_key": self.graph_key,
            "dataset": dataset_fingerprint,
            "source": self.source,
            "backends": [list(pair) for pair in self.backends],
        }
        text = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


class CacheStoreWarning(RuntimeWarning):
    """A persistent-cache write failed; the run continues uncached."""


class CellExecutionError(RuntimeError):
    """One (algorithm, graph) cell failed for good.

    Raised by :meth:`RunService.matrix` (and the resilience layer once
    its retries are exhausted) so callers always learn *which* cell of
    the matrix died, not just the underlying exception.
    """

    def __init__(
        self,
        algorithm: str,
        graph_key: str,
        detail: str = "",
        attempts: int = 1,
    ) -> None:
        self.algorithm = algorithm
        self.graph_key = graph_key
        self.attempts = attempts
        message = f"matrix cell ({algorithm}, {graph_key}) failed"
        if attempts > 1:
            message += f" after {attempts} attempts"
        if detail:
            message += f": {detail}"
        super().__init__(message)


def canonical_reports_json(cells: Sequence["CellResult"]) -> str:
    """Canonical JSON of every cell's reports.

    Sorted keys and a stable cell order make this byte-comparable: two
    runs of the same matrix agree iff their canonical JSON is equal
    (this is the equality the failure-mode battery asserts).
    """
    return json.dumps(
        [
            {
                "algorithm": cell.algorithm,
                "graph_key": cell.graph_key,
                "reports": {
                    name: report_to_dict(report)
                    for name, report in cell.reports.items()
                },
            }
            for cell in cells
        ],
        sort_keys=True,
        default=json_scalar_default,
    )


def _await_cell_futures(
    futures: "Dict[Future, Tuple[str, str]]",
    on_done: Optional[Callable[[Tuple[str, str]], None]] = None,
) -> None:
    """Drain cell futures; on failure cancel the rest and name the cell.

    Without the cancellation, an early ``future.result()`` raising would
    leak every queued cell: the pool's ``__exit__`` waits for them all
    to run to completion before the exception propagates.
    """
    for future in list(futures):
        try:
            future.result()
        except BaseException as exc:
            for pending in futures:
                pending.cancel()
            if isinstance(exc, CellExecutionError):
                raise
            algorithm, graph_key = futures[future]
            raise CellExecutionError(
                algorithm, graph_key, detail=repr(exc)
            ) from exc
        if on_done is not None:
            on_done(futures[future])


def _functional_to_dict(result: VCPMResult) -> Dict[str, object]:
    return {
        "algorithm": result.algorithm,
        "graph_name": result.graph_name,
        "source": result.source,
        "converged": result.converged,
        "properties": result.properties.tolist(),
        "iterations": [dataclasses.asdict(t) for t in result.iterations],
    }


def _functional_from_dict(data: Dict[str, object]) -> VCPMResult:
    return VCPMResult(
        algorithm=data["algorithm"],
        graph_name=data["graph_name"],
        properties=np.asarray(data["properties"], dtype=np.float64),
        iterations=[IterationTrace(**t) for t in data["iterations"]],
        converged=data["converged"],
        source=data["source"],
    )


class RunService:
    """Cached, parallel executor of the evaluation matrix.

    Args:
        backends: explicit backend instances; defaults to one instance of
            every registered backend (with ``backend_configs`` overrides).
        backend_configs: per-backend config overrides by name, used only
            when ``backends`` is not given.
        default_source: source vertex for source-based algorithms.
        cache_dir: directory for the persistent JSON result cache; no
            persistence when ``None``.
        use_cache: master switch for the persistent cache.
        jobs: default worker count for :meth:`matrix`.
        executor: ``"thread"`` (default) or ``"process"``; how
            :meth:`matrix` fans out cache-miss cells when ``jobs > 1``.
            Processes sidestep the GIL, so CPU-bound matrices scale with
            cores; results are bit-identical either way.
        storage: graph storage backend for cell execution — ``"memory"``
            (default) or ``"mmap"`` (out-of-core spills, required for the
            paper-scale ``*-FULL`` datasets under a memory budget).
        shards: destination-shard count for the functional run; with
            ``executor="process"`` shards of a parent-side cell fan out
            across a process pool.  Results are byte-identical for every
            storage × shards combination.
    """

    def __init__(
        self,
        backends: Optional[Sequence[Backend]] = None,
        *,
        backend_configs: Optional[Mapping[str, object]] = None,
        default_source: int = 0,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        jobs: int = 1,
        executor: str = "thread",
        storage: str = "memory",
        shards: int = 1,
    ) -> None:
        if executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {executor!r}; expected 'thread' or 'process'"
            )
        if storage not in STORAGE_KINDS:
            raise ValueError(
                f"unknown storage kind {storage!r}; expected one of "
                f"{STORAGE_KINDS}"
            )
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if backends is not None:
            self.backends: List[Backend] = list(backends)
        else:
            self.backends = default_backends(backend_configs)
        self.executor = executor
        self.storage = storage
        self.shards = int(shards)
        self.default_source = default_source
        self.cache_dir = (
            os.path.abspath(os.path.expanduser(cache_dir))
            if cache_dir
            else None
        )
        self.use_cache = use_cache
        self.jobs = max(int(jobs), 1)
        self.stats = CacheStats()
        self._cells: Dict[Tuple[str, str], CellResult] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Request / key plumbing
    # ------------------------------------------------------------------
    @property
    def backend_names(self) -> List[str]:
        return [b.name for b in self.backends]

    @property
    def persistent(self) -> bool:
        return self.use_cache and self.cache_dir is not None

    def request_for(self, algorithm: str, graph_key: str) -> RunRequest:
        spec = get_algorithm(algorithm)
        return RunRequest(
            algorithm=spec.name,
            graph_key=graph_key,
            backends=tuple(
                (b.name, b.config_digest()) for b in self.backends
            ),
            source=self.default_source,
            storage=self.storage,
            shards=self.shards,
        )

    def cache_key(self, request: RunRequest) -> str:
        from .. import __version__

        return request.cache_key(
            datasets.fingerprint(request.graph_key), __version__
        )

    def _memo_key(self, algorithm: str, graph_key: str) -> Tuple[str, str]:
        """In-process memo key for one cell.

        Static datasets are immutable, so ``(algorithm, graph_key)``
        suffices.  Dynamic graphs mutate under a generation counter, so
        their memo key carries the content fingerprint: a post-mutation
        lookup misses (no stale-generation hit), while an apply+inverse
        round trip restores the fingerprint and legitimately re-hits.
        """
        if datasets.is_dynamic(graph_key):
            return (
                algorithm.upper(),
                f"{graph_key}@{datasets.fingerprint(graph_key)}",
            )
        return (algorithm.upper(), graph_key)

    def _cache_path(self, request: RunRequest) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"{self.cache_key(request)}.json")

    def probe(
        self, algorithm: str, graph_key: str
    ) -> Tuple[RunRequest, str, str]:
        """Classify one cell without executing it.

        Returns ``(request, cache_key, status)`` where ``status`` is
        ``"memo"`` (resolved in this process), ``"persistent"`` (a valid
        envelope is on disk — validated with the same ``_load_cached``
        checks ``cell()`` applies, so a stale or corrupt entry reads as
        a miss here exactly as it would there), or ``"miss"``.  This is
        the planner's read-only window into the cache: probing never
        loads datasets, never executes, and never mutates the memo.
        """
        request = self.request_for(algorithm, graph_key)
        key = self.cache_key(request)
        memo_key = self._memo_key(request.algorithm, graph_key)
        with self._lock:
            in_memo = memo_key in self._cells
        if in_memo:
            return request, key, "memo"
        if self.persistent:
            path = self._cache_path(request)
            if self._load_cached(path, request) is not None:
                return request, key, "persistent"
        return request, key, "miss"

    # ------------------------------------------------------------------
    # Persistent cache I/O
    # ------------------------------------------------------------------
    def _load_cached(
        self, path: str, request: RunRequest
    ) -> Optional[CellResult]:
        """A CellResult from disk, or None when absent/stale/corrupt."""
        try:
            with open(path) as handle:
                envelope = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        try:
            if envelope["schema"] != SCHEMA_VERSION:
                return None
            if envelope["key"] != self.cache_key(request):
                return None
            stored = envelope["reports"]
            if set(stored) != {name for name, _ in request.backends}:
                return None
            reports = {
                name: report_from_dict(data) for name, data in stored.items()
            }
            functional = _functional_from_dict(envelope["functional"])
        except (KeyError, TypeError, ValueError, SchemaMismatchError):
            return None
        by_name = {b.name: b for b in self.backends}
        energy = {
            name: by_name[name].energy(report)
            for name, report in reports.items()
        }
        return CellResult(
            algorithm=request.algorithm,
            graph_key=request.graph_key,
            functional=functional,
            reports=reports,
            energy=energy,
        )

    def _store_cached(
        self, path: str, request: RunRequest, cell: CellResult
    ) -> None:
        envelope = {
            "schema": SCHEMA_VERSION,
            "key": self.cache_key(request),
            "request": dataclasses.asdict(request),
            "functional": _functional_to_dict(cell.functional),
            "reports": {
                name: report_to_dict(report)
                for name, report in cell.reports.items()
            },
        }
        try:
            self._write_envelope(path, envelope)
        except OSError as exc:
            with self._lock:
                self.stats.store_failures += 1
            rec = get_recorder()
            if rec.enabled:
                rec.counter("service.store_failures").add()
                rec.event(
                    "service.store_failure",
                    track="service",
                    algorithm=request.algorithm,
                    graph=request.graph_key,
                )
            warnings.warn(
                f"failed to persist cache entry {path}: {exc!r}; "
                "the result is kept in memory but will be recomputed "
                "by future processes",
                CacheStoreWarning,
                stacklevel=2,
            )
        else:
            with self._lock:
                self.stats.stores += 1
            get_recorder().counter("service.stores").add()

    def _write_envelope(self, path: str, envelope: Dict[str, object]) -> None:
        """Atomically write one cache envelope; raises ``OSError``.

        Overridden by the resilience layer to add fault-injection hooks
        and bounded store retries.
        """
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                # json.dumps takes the C encoder; json.dump never does.
                handle.write(json.dumps(envelope))
            os.replace(tmp_path, path)  # atomic under concurrent writers
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def cell(self, algorithm: str, graph_key: str) -> CellResult:
        """Run (or recall) one cell of the evaluation matrix."""
        rec = get_recorder()
        key = self._memo_key(algorithm, graph_key)
        with self._lock:
            cached = self._cells.get(key)
            if cached is not None:
                self.stats.memory_hits += 1
        if cached is not None:
            rec.counter("service.memory_hits").add()
            return cached

        request = self.request_for(algorithm, graph_key)
        path = self._cache_path(request) if self.persistent else None
        if path is not None:
            cell = self._load_cached(path, request)
            if cell is not None:
                if rec.enabled:
                    rec.counter("service.cache_hits").add()
                    rec.event(
                        "service.cache_hit",
                        track="service",
                        algorithm=request.algorithm,
                        graph=graph_key,
                    )
                with self._lock:
                    self.stats.hits += 1
                    return self._cells.setdefault(key, cell)

        with rec.span(
            "service.cell",
            track="service",
            algorithm=request.algorithm,
            graph=graph_key,
        ):
            cell = self._run_cell(request)
        rec.counter("service.misses").add()
        if path is not None:
            self._store_cached(path, request, cell)
        with self._lock:
            self.stats.misses += 1
            return self._cells.setdefault(key, cell)

    def _shard_runner_for(
        self, request: RunRequest, graph: CSRGraph
    ) -> Tuple[Optional[ShardRunner], Optional[Tuple[str, str]], Optional[
        Callable[[], None]
    ]]:
        """(runner, graph_ref, cleanup) for one cell's shard fan-out.

        Process fan-out only engages for parent-side cells under
        ``executor="process"``; otherwise shards run in-process (same
        reduction structure, same bytes).  The resilience layer wraps the
        returned runner to drop per-shard checkpoint breadcrumbs.
        """
        if (
            request.shards > 1
            and self.executor == "process"
            and not datasets.is_dynamic(request.graph_key)
        ):
            # Dynamic graphs live only in this process's registry, so
            # their shards stay in-process (same bytes either way).
            runner = _ProcessShardRunner(min(self.jobs, request.shards))
            return runner, (request.graph_key, request.storage), runner.close
        return None, None, None

    def _run_cell(self, request: RunRequest) -> CellResult:
        """Execute one genuine cache miss.

        The single seam every cell execution funnels through: the
        resilience layer overrides this to add fault hooks, per-attempt
        timeouts, and bounded retries around the same computation.
        """
        graph = datasets.load(request.graph_key, storage=request.storage)
        runner, graph_ref, cleanup = self._shard_runner_for(request, graph)
        try:
            return execute_cell(
                graph,
                request.algorithm,
                graph_key=request.graph_key,
                source=request.source,
                backends=self.backends,
                shards=request.shards,
                shard_runner=runner,
                graph_ref=graph_ref,
            )
        finally:
            if cleanup is not None:
                cleanup()

    def matrix(
        self,
        algorithms: Optional[Sequence[str]] = None,
        graph_keys: Optional[Sequence[str]] = None,
        jobs: Optional[int] = None,
        executor: Optional[str] = None,
    ) -> List[CellResult]:
        """All cells of the chosen sub-matrix, algorithm-major order.

        With ``jobs > 1``, unresolved cells fan out across a thread pool
        (or, with ``executor="process"``, a process pool that bypasses
        the GIL); results are identical to a serial run (cells are
        independent and deterministic), only wall-clock changes.
        """
        algorithms = list(algorithms or algorithm_names())
        graph_keys = list(graph_keys or REAL_WORLD_KEYS)
        pairs = [(a, g) for a in algorithms for g in graph_keys]
        workers = self.jobs if jobs is None else max(int(jobs), 1)
        executor = self.executor if executor is None else executor
        if workers > 1 and len(pairs) > 1:
            unique = list(dict.fromkeys(pairs))
            if executor == "process":
                self._resolve_in_processes(unique, workers)
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    futures = {
                        pool.submit(self.cell, algorithm, graph_key): (
                            algorithm,
                            graph_key,
                        )
                        for algorithm, graph_key in unique
                    }
                    _await_cell_futures(futures)
        return [self.cell(a, g) for a, g in pairs]

    #: The hand-coded matrix path under the name the planner-equivalence
    #: battery compares against (``spec path == run_matrix path``).
    run_matrix = matrix

    def _resolve_in_processes(
        self, pairs: Sequence[Tuple[str, str]], workers: int
    ) -> None:
        """Execute unresolved cells in a process pool, then memoize.

        The memo and persistent-cache tiers are consulted in the parent
        first, so worker processes only ever run genuine cache misses;
        finished cells are stored exactly as the serial path stores them.
        """
        pending: List[Tuple[Tuple[str, str], RunRequest, Optional[str]]] = []
        for algorithm, graph_key in pairs:
            if datasets.is_dynamic(graph_key):
                # A worker process cannot see this process's dynamic
                # registrations; the cell runs in-parent on the serial
                # pass that follows the fan-out.
                continue
            key = self._memo_key(algorithm, graph_key)
            with self._lock:
                if key in self._cells:
                    continue
            request = self.request_for(algorithm, graph_key)
            path = self._cache_path(request) if self.persistent else None
            if path is not None:
                cached = self._load_cached(path, request)
                if cached is not None:
                    with self._lock:
                        self.stats.hits += 1
                        self._cells.setdefault(key, cached)
                    continue
            pending.append((key, request, path))
        if not pending:
            return
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                (
                    pool.submit(
                        _cell_in_subprocess,
                        self.backends,
                        request.algorithm,
                        request.graph_key,
                        request.source,
                        request.storage,
                        request.shards,
                    ),
                    key,
                    request,
                    path,
                )
                for key, request, path in pending
            ]
            for future, key, request, path in futures:
                cell = future.result()
                if path is not None:
                    self._store_cached(path, request, cell)
                with self._lock:
                    self.stats.misses += 1
                    self._cells.setdefault(key, cell)
