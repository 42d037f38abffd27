"""Run service: cached, parallel, fault-tolerant evaluation of
(algorithm x graph) cells.

This layer sits between the backend registry and every consumer of
evaluation results (figures, tables, sweeps, benchmarks, the CLI and
the serving daemon):

``RunRequest``
    What to run: algorithm, dataset key, the participating backends with
    their config digests, and the source vertex.

``RunService``
    Executes requests with three reuse tiers:

    1. an identity-stable in-process memo,
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

    Resilience is a policy of the same class, not a subclass: a
    :class:`~repro.harness.resilience.RetryPolicy` sets the attempt
    budget and the per-attempt deadline, a broken process pool degrades
    the unfinished cells process → thread → serial, and a
    :class:`~repro.harness.resilience.RunManifest` journals finished
    cells for resume.  Without a policy a cell gets one attempt and no
    deadline.  Every tier runs a cell through the same attempt loop —
    process workers included — so a deadline always counts from the
    start of the attempt.

Cell execution is deterministic and cells are independent, so a
``jobs=4`` matrix -- thread or process, retried or degraded -- produces
bit-identical ``RunReport`` JSON to a serial run.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os
import tempfile
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
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
from ..vcpm.partitioned import run_vcpm_partitioned
from .faults import CellFaultPlan, FaultInjector
from .resilience import (
    CellTimeoutError,
    ResilienceWarning,
    RetryPolicy,
    RunManifest,
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

#: The policy of a service constructed without one: a single attempt,
#: no deadline.
_ONE_ATTEMPT = RetryPolicy(max_attempts=1)

#: The registry counter behind each :class:`CacheStats` field.
_STAT_COUNTERS: Dict[str, str] = {
    "hits": "service.cache_hits",
    "misses": "service.misses",
    "stores": "service.stores",
    "memory_hits": "service.memory_hits",
    "store_failures": "service.store_failures",
    "retries": "resilience.retries",
    "timeouts": "resilience.timeouts",
    "degradations": "resilience.degradations",
}

#: Degradation order per requested executor.
_TIER_ORDER: Dict[str, Tuple[str, ...]] = {
    "process": ("process", "thread", "serial"),
    "thread": ("thread", "serial"),
    "serial": ("serial",),
}


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


def _runs_in_parent(graph_key: str) -> bool:
    """Whether a cell must run in this process.

    Dynamic graphs live only in this process's registry, so a worker
    process cannot load them; they run in the parent instead, which
    yields the same bytes.
    """
    return datasets.is_dynamic(graph_key)


def _cell_worker(
    backends: Sequence[Backend],
    request: RunRequest,
    policy: RetryPolicy,
    plan: Optional[CellFaultPlan],
) -> Tuple["CellResult", int, int]:
    """Worker entry point for ``executor="process"`` matrix fan-out.

    Module-level so :mod:`concurrent.futures` can pickle it by
    reference.  A cacheless service in the worker runs the same attempt
    loop a parent-side cell runs: the cell's fault plan, the per-attempt
    deadline and the retries.  The graph is (re)built inside the worker
    from the dataset registry, which is deterministic, so the returned
    :class:`CellResult` is identical to an in-process execution.  Shards
    run in the worker, as they do wherever a cell runs.

    Returns ``(cell, retries, timeouts)`` so the parent can account the
    recovery actions taken out of process.  A ``kill`` plan calls
    ``os._exit``, which the parent sees as ``BrokenProcessPool`` and
    handles by degrading the executor tier.
    """
    service = RunService(backends, use_cache=False, policy=policy, faults=plan)
    cell = service._run_cell(request)
    return cell, service.stats.retries, service.stats.timeouts


def execute_cell(
    graph: CSRGraph,
    algorithm: str,
    graph_key: Optional[str] = None,
    source: int = 0,
    backends: Optional[Sequence[Backend]] = None,
    shards: int = 1,
) -> CellResult:
    """Run all backends on one (graph, algorithm) pair.

    One functional run drives every backend's observer simultaneously
    (they are independent observers of the same data-dependent
    behaviour), which both guarantees a fair comparison and keeps the
    whole matrix fast.  With ``shards > 1`` the functional run routes
    through the destination-sharded engine, shard after shard in this
    process; observers still see the full merged iteration stream, so the
    resulting reports are byte-identical to the unsharded path.
    """
    backends = list(backends) if backends is not None else default_backends()
    spec = get_algorithm(algorithm)
    observers = {b.name: b.make_observer(graph, spec) for b in backends}
    if shards > 1:
        functional = run_vcpm_partitioned(
            graph,
            spec,
            shards=shards,
            source=source,
            observers=list(observers.values()),
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

    Raised by :meth:`RunService.matrix` and, once the retry policy is
    exhausted, by :meth:`RunService.cell`, so callers always learn
    *which* cell of the matrix died, not just the underlying exception.
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
        self.detail = detail
        self.attempts = attempts
        message = f"matrix cell ({algorithm}, {graph_key}) failed"
        if attempts > 1:
            message += f" after {attempts} attempts"
        if detail:
            message += f": {detail}"
        super().__init__(message)

    def __reduce__(self):
        # Raised inside process workers: rebuild from the fields, not
        # from the formatted message.
        return (
            type(self),
            (self.algorithm, self.graph_key, self.detail, self.attempts),
        )


class _TierFailure(Exception):
    """A whole executor tier died; carry the unfinished cells onward."""

    def __init__(
        self, remaining: List[Tuple[str, str]], cause: BaseException
    ) -> None:
        super().__init__(f"{len(remaining)} cells unfinished: {cause!r}")
        self.remaining = remaining
        self.cause = cause


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


#: Envelope dtype of the property array: little-endian float64 bytes.
_PROPERTIES_DTYPE = "<f8"


def _functional_to_dict(result: VCPMResult) -> Dict[str, object]:
    # Raw float64 bytes, not a JSON float list: bit-exact (NaN payloads
    # and -0.0 included) and far cheaper to encode than one repr per value.
    properties = np.ascontiguousarray(result.properties, dtype=_PROPERTIES_DTYPE)
    return {
        "algorithm": result.algorithm,
        "graph_name": result.graph_name,
        "source": result.source,
        "converged": result.converged,
        "properties": {
            "dtype": _PROPERTIES_DTYPE,
            "count": int(properties.size),
            "b64": base64.b64encode(properties.tobytes()).decode("ascii"),
        },
        "iterations": [dataclasses.asdict(t) for t in result.iterations],
    }


def _properties_from_dict(data: Dict[str, object]) -> np.ndarray:
    """The property array of an envelope; ``ValueError`` unless well formed.

    Anything but ``<f8`` bytes whose decoded length is exactly
    ``8 * count`` is rejected, so a truncated or stale entry reads as a
    cache miss instead of serving wrong-sized properties.
    """
    count = data["count"]
    if data["dtype"] != _PROPERTIES_DTYPE or type(count) is not int:
        raise ValueError("unsupported property encoding")
    raw = base64.b64decode(data["b64"], validate=True)
    if len(raw) != 8 * count:
        raise ValueError(
            f"property payload holds {len(raw)} bytes, expected {8 * count}"
        )
    return np.frombuffer(raw, dtype=_PROPERTIES_DTYPE).astype(np.float64)


def _functional_from_dict(data: Dict[str, object]) -> VCPMResult:
    return VCPMResult(
        algorithm=data["algorithm"],
        graph_name=data["graph_name"],
        properties=_properties_from_dict(data["properties"]),
        iterations=[IterationTrace(**t) for t in data["iterations"]],
        converged=data["converged"],
        source=data["source"],
    )


def _write_atomically(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename; raises OSError."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)  # atomic under concurrent writers
    except OSError:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class RunService:
    """Cached, parallel, fault-tolerant executor of the evaluation matrix.

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
        shards: destination-shard count for the functional run; the
            shards of a cell run one after another in the process that
            runs the cell.  Results are byte-identical for every
            storage × shards combination.
        policy: the :class:`RetryPolicy` (attempts, backoff, per-attempt
            deadline) of every cell and cache store; ``None`` means one
            attempt and no deadline.
        faults: optional :class:`~repro.harness.faults.FaultInjector`
            for deterministic failure drills.
        manifest_path: checkpoint journal location; every completed cell
            is recorded there during :meth:`matrix`.
        resume: when True and ``manifest_path`` exists, continue that
            sweep — its header supplies the matrix shape if the caller
            passes none, and completed cells replay from the persistent
            cache instead of re-executing.
        sleep: injectable backoff sleeper (tests pass a no-op).
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
        policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        manifest_path: Optional[str] = None,
        resume: bool = False,
        sleep: Callable[[float], None] = time.sleep,
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
        names = self.backend_names
        for name in names:
            if names.count(name) > 1:
                raise ValueError(
                    f"backend name {name!r} appears more than once; give "
                    "each config of one system its own label with "
                    "backend.labelled(...)"
                )
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
        self.policy = policy or _ONE_ATTEMPT
        self.faults = faults
        self.manifest_path = manifest_path
        self.resume = resume
        self.stats = CacheStats()
        self._sleep = sleep
        self._manifest: Optional[RunManifest] = None
        self._cells: Dict[Tuple[str, str], CellResult] = {}
        self._lock = threading.Lock()
        self._siblings: Dict[Tuple[Tuple[str, str], ...], RunService] = {}

    def with_backends(self, backends: Sequence[Backend]) -> "RunService":
        """A sibling service that runs ``backends`` in place of this one's.

        The sibling shares this service's cache dir, ``use_cache``, jobs,
        executor, storage, shards, retry policy, default source and
        :attr:`stats`, but not its manifest.  Siblings are memoized by
        their ``(name, digest)`` tuple, so two figures over one backend
        set (Figs. 14c and 14d) share one functional run per cell even
        without a persistent cache.
        """
        backends = list(backends)
        key = tuple((b.name, b.config_digest()) for b in backends)
        with self._lock:
            sibling = self._siblings.get(key)
            if sibling is None:
                sibling = RunService(
                    backends,
                    default_source=self.default_source,
                    cache_dir=self.cache_dir,
                    use_cache=self.use_cache,
                    jobs=self.jobs,
                    executor=self.executor,
                    storage=self.storage,
                    shards=self.shards,
                    policy=self.policy,
                    sleep=self._sleep,
                )
                sibling.stats = self.stats
                sibling._lock = self._lock
                sibling._siblings = self._siblings
                self._siblings[key] = sibling
        return sibling

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
            self._count("store_failures")
            rec = get_recorder()
            if rec.enabled:
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
            self._count("stores")

    def _write_envelope(self, path: str, envelope: Dict[str, object]) -> None:
        """Atomically write one cache envelope; raises ``OSError``.

        Failed writes are retried under the policy's attempt budget; the
        fault injector's store hooks bracket every attempt.
        """
        # json.dumps takes the C encoder; json.dump never does.
        text = json.dumps(envelope)
        attempt = 0
        while True:
            attempt += 1
            try:
                if self.faults is not None:
                    self.faults.on_store(path)
                _write_atomically(path, text)
                if self.faults is not None:
                    self.faults.after_store(path)
                return
            except OSError:
                if attempt >= self.policy.max_attempts:
                    raise
                self._count("retries")
                self._sleep(self.policy.delay(attempt, path))

    # ------------------------------------------------------------------
    # Execution: one cell
    # ------------------------------------------------------------------
    def cell(self, algorithm: str, graph_key: str) -> CellResult:
        """Run (or recall) one cell of the evaluation matrix."""
        key, request, path, cell = self._lookup(algorithm, graph_key)
        if cell is not None:
            return cell
        with get_recorder().span(
            "service.cell",
            track="service",
            algorithm=request.algorithm,
            graph=graph_key,
        ):
            cell = self._run_cell(request)
        return self._keep(key, request, path, cell)

    def _lookup(
        self, algorithm: str, graph_key: str
    ) -> Tuple[
        Tuple[str, str], Optional[RunRequest], Optional[str], Optional[CellResult]
    ]:
        """Serve one requested cell from the memo or the persistent cache.

        Returns ``(memo_key, request, cache_path, cell)`` with ``cell``
        None on a genuine miss (and ``request`` None on a memo hit).
        Every executor resolves a caller's request here, so hits count
        the same in each of them.
        """
        rec = get_recorder()
        key = self._memo_key(algorithm, graph_key)
        with self._lock:
            cached = self._cells.get(key)
        if cached is not None:
            self._count("memory_hits")
            return key, None, None, cached
        request = self.request_for(algorithm, graph_key)
        path = self._cache_path(request) if self.persistent else None
        if path is not None:
            cell = self._load_cached(path, request)
            if cell is not None:
                self._count("hits")
                if rec.enabled:
                    rec.event(
                        "service.cache_hit",
                        track="service",
                        algorithm=request.algorithm,
                        graph=graph_key,
                    )
                with self._lock:
                    return key, request, path, self._cells.setdefault(key, cell)
        return key, request, path, None

    def _keep(
        self,
        key: Tuple[str, str],
        request: RunRequest,
        path: Optional[str],
        cell: CellResult,
    ) -> CellResult:
        """Count, persist and memoize one executed miss."""
        self._count("misses")
        if path is not None:
            self._store_cached(path, request, cell)
        with self._lock:
            return self._cells.setdefault(key, cell)

    def _count(self, stat: str, amount: int = 1) -> None:
        """Bump ``stats.<stat>`` and its registry counter together.

        The only writer of :attr:`stats`, so the :class:`CacheStats`
        fields and the ``service.*`` / ``resilience.*`` counters cannot
        disagree.
        """
        if amount <= 0:
            return
        with self._lock:
            setattr(self.stats, stat, getattr(self.stats, stat) + amount)
        get_recorder().counter(_STAT_COUNTERS[stat]).add(amount)

    def _note(self, stat: str, event: str, **fields: object) -> None:
        """Count one recovery action and emit its event."""
        self._count(stat)
        rec = get_recorder()
        if rec.enabled:
            rec.event(f"resilience.{event}", track="service", **fields)

    def _run_cell(self, request: RunRequest) -> CellResult:
        """Execute one genuine cache miss under the retry policy.

        Transient errors are retried with the policy's backoff until the
        attempt budget is spent, then surface as a
        :class:`CellExecutionError`; other errors propagate at once.
        """
        token = f"{request.algorithm}/{request.graph_key}"
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._attempt_cell(request, attempt)
            except self.policy.transient as exc:
                if attempt >= self.policy.max_attempts:
                    raise CellExecutionError(
                        request.algorithm,
                        request.graph_key,
                        detail=repr(exc),
                        attempts=attempt,
                    ) from exc
                self._note(
                    "retries",
                    "retry",
                    cell=token,
                    attempt=attempt,
                    error=type(exc).__name__,
                )
                self._sleep(self.policy.delay(attempt, token))

    def _attempt_cell(self, request: RunRequest, attempt: int) -> CellResult:
        """One attempt; the deadline, when set, counts from its start.

        A timed-out attempt runs on in a dedicated thread and is
        abandoned, never awaited: a wedged attempt cannot be killed, so
        it must not block the retry either.
        """
        if self.policy.timeout is None:
            return self._attempt_body(request, attempt)
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            future = pool.submit(self._attempt_body, request, attempt)
            try:
                return future.result(timeout=self.policy.timeout)
            except FuturesTimeoutError:
                future.cancel()
                self._note(
                    "timeouts",
                    "timeout",
                    cell=f"{request.algorithm}/{request.graph_key}",
                    attempt=attempt,
                )
                raise CellTimeoutError(
                    f"cell ({request.algorithm}, {request.graph_key}) "
                    f"attempt {attempt} exceeded {self.policy.timeout}s; "
                    "attempt abandoned"
                ) from None
        finally:
            pool.shutdown(wait=False)

    def _attempt_body(self, request: RunRequest, attempt: int) -> CellResult:
        """The fault hook, then the cell's computation."""
        if self.faults is not None:
            self.faults.on_cell_start(
                request.algorithm, request.graph_key, attempt
            )
        graph = datasets.load(request.graph_key, storage=request.storage)
        return execute_cell(
            graph,
            request.algorithm,
            graph_key=request.graph_key,
            source=request.source,
            backends=self.backends,
            shards=request.shards,
        )

    # ------------------------------------------------------------------
    # Execution: the matrix (executor tiers + checkpointing)
    # ------------------------------------------------------------------
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
        the GIL).  When a pool breaks, its unfinished cells degrade
        process → thread → serial.  Results are identical to a serial
        run (cells are independent and deterministic); only wall-clock
        changes.
        """
        workers = self.jobs if jobs is None else max(int(jobs), 1)
        executor = self.executor if executor is None else executor
        manifest = self._open_manifest(algorithms, graph_keys)
        if manifest is not None:
            algorithms = list(algorithms) if algorithms else manifest.algorithms
            graph_keys = list(graph_keys) if graph_keys else manifest.graph_keys
        algorithms = list(algorithms or algorithm_names())
        graph_keys = list(graph_keys or REAL_WORLD_KEYS)
        pairs = [(a, g) for a in algorithms for g in graph_keys]
        unique = list(dict.fromkeys(pairs))
        mode = executor if workers > 1 and len(unique) > 1 else "serial"
        remaining = unique
        for tier in _TIER_ORDER[mode]:
            if not remaining:
                break
            try:
                self._run_tier(tier, remaining, workers, manifest)
                remaining = []
            except _TierFailure as failure:
                remaining = failure.remaining
                self._note(
                    "degradations",
                    "degradation",
                    tier=tier,
                    remaining=len(remaining),
                )
                warnings.warn(
                    f"executor tier {tier!r} broke ({failure.cause!r}); "
                    f"degrading {len(remaining)} unfinished cells to the "
                    "next tier",
                    ResilienceWarning,
                    stacklevel=2,
                )
        # Collect from the memo directly: the tiers above served every
        # request, and collecting is not a request of its own.
        keys = [self._memo_key(a, g) for a, g in pairs]
        with self._lock:
            return [self._cells[key] for key in keys]

    def _open_manifest(
        self,
        algorithms: Optional[Sequence[str]],
        graph_keys: Optional[Sequence[str]],
    ) -> Optional[RunManifest]:
        if not self.manifest_path:
            return None
        if self._manifest is not None:
            return self._manifest
        if self.resume and os.path.exists(self.manifest_path):
            self._manifest = RunManifest.load(self.manifest_path)
        else:
            self._manifest = RunManifest.start(
                self.manifest_path,
                list(algorithms or algorithm_names()),
                list(graph_keys or REAL_WORLD_KEYS),
            )
        return self._manifest

    def _mark(
        self,
        manifest: Optional[RunManifest],
        algorithm: str,
        graph_key: str,
    ) -> None:
        if manifest is None or manifest.is_completed(algorithm, graph_key):
            return
        manifest.mark(
            algorithm,
            graph_key,
            cache_key=self.cache_key(self.request_for(algorithm, graph_key)),
        )

    def _run_tier(
        self,
        tier: str,
        pairs: List[Tuple[str, str]],
        workers: int,
        manifest: Optional[RunManifest],
    ) -> None:
        if tier == "process":
            self._run_tier_process(pairs, workers, manifest)
        elif tier == "thread":
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(self.cell, algorithm, graph_key): (
                        algorithm,
                        graph_key,
                    )
                    for algorithm, graph_key in pairs
                }
                # On failure cancel the queued cells and name the failed
                # one; otherwise the pool's __exit__ would run every
                # queued cell before the exception propagates.
                for future, (algorithm, graph_key) in futures.items():
                    try:
                        future.result()
                    except BaseException as exc:
                        for pending in futures:
                            pending.cancel()
                        if isinstance(exc, Exception) and not isinstance(
                            exc, CellExecutionError
                        ):
                            raise CellExecutionError(
                                algorithm, graph_key, detail=repr(exc)
                            ) from exc
                        raise
                    self._mark(manifest, algorithm, graph_key)
        else:
            for algorithm, graph_key in pairs:
                self.cell(algorithm, graph_key)
                self._mark(manifest, algorithm, graph_key)

    def _run_tier_process(
        self,
        pairs: List[Tuple[str, str]],
        workers: int,
        manifest: Optional[RunManifest],
    ) -> None:
        """Process tier: parent-side caches, worker-side attempt loops.

        Raises :class:`_TierFailure` carrying the unfinished cells when
        the pool itself breaks (e.g. a worker died with ``os._exit``),
        so :meth:`matrix` can degrade instead of aborting the sweep.
        """
        pending = []
        for algorithm, graph_key in pairs:
            if _runs_in_parent(graph_key):
                self.cell(algorithm, graph_key)
                self._mark(manifest, algorithm, graph_key)
                continue
            key, request, path, cell = self._lookup(algorithm, graph_key)
            if cell is not None:
                self._mark(manifest, algorithm, graph_key)
                continue
            plan = (
                self.faults.plan_for(request.algorithm, graph_key)
                if self.faults is not None
                else None
            )
            pending.append((algorithm, graph_key, key, request, path, plan))
        if not pending:
            return
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [
                pool.submit(
                    _cell_worker,
                    self.backends,
                    request,
                    self.policy,
                    plan or None,
                )
                for _, _, _, request, _, plan in pending
            ]
            for index, future in enumerate(futures):
                algorithm, graph_key, key, request, path, _ = pending[index]
                try:
                    cell, retries, timeouts = future.result()
                except BrokenProcessPool as exc:
                    raise _TierFailure(
                        [(a, g) for a, g, *_ in pending[index:]], exc
                    ) from exc
                except CellExecutionError:
                    raise
                except Exception as exc:
                    raise CellExecutionError(
                        algorithm, graph_key, detail=repr(exc)
                    ) from exc
                self._count("retries", retries)
                self._count("timeouts", timeouts)
                self._keep(key, request, path, cell)
                self._mark(manifest, algorithm, graph_key)
        finally:
            # wait=False: a dead worker must not block shutdown.
            pool.shutdown(wait=False, cancel_futures=True)
