"""Fault-tolerant execution layer for the run service.

The evaluation matrix is dominated by data-dependent irregularity: cell
cost varies by orders of magnitude across (algorithm, graph) pairs, so
long-tail cells, hung workers, dead ``ProcessPoolExecutor`` children and
half-written cache files are the norm at scale, not the exception.  This
module makes :class:`~repro.harness.service.RunService` survive them:

* **Bounded retries with exponential backoff + deterministic jitter**
  (:class:`RetryPolicy`): transient failures — injected faults, worker
  death, ``BrokenProcessPool``, cache I/O errors, per-cell timeouts —
  are retried up to ``max_attempts`` times.  Jitter is derived from a
  hash of the cell key and attempt number, never from global RNG state,
  so a retried matrix is exactly reproducible.
* **Per-cell timeouts with cancellation**: each attempt runs on a
  dedicated thread and is abandoned at the deadline (``CellTimeoutError``
  is transient, so the cell is retried).  A genuinely wedged attempt
  can only be *abandoned*, not killed — the CI ``pytest-timeout``
  ceiling is the backstop of last resort.
* **Graceful degradation**: when a whole executor tier dies (a broken
  process pool), the unfinished cells fall back process → thread →
  serial.  Cells are deterministic pure functions, so every tier
  produces bit-identical :class:`RunReport` JSON.
* **Checkpoint / resume** (:class:`RunManifest`): an append-only journal
  of completed cells.  ``repro matrix --checkpoint m.jsonl`` records
  progress; after a mid-flight kill, ``repro matrix --resume m.jsonl``
  re-executes only the unfinished cells (finished ones replay from the
  persistent result cache).
* **Deterministic fault injection**: a :class:`~repro.harness.faults.
  FaultInjector` can be plugged into the service so tests (and the CLI's
  ``--inject`` flag) can drive every recovery path on demand.

All recovery actions are visible in ``RunService.stats``
(``retries`` / ``timeouts`` / ``degradations`` / ``store_failures``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..graph import datasets
from ..obs import get_recorder
from ..vcpm.algorithms import algorithm_names
from ..vcpm.partitioned import scatter_shard_task
from .faults import FaultError, FaultInjector
from .journal import advisory_lock, locked_append_line
from .service import (
    REAL_WORLD_KEYS,
    CellExecutionError,
    CellResult,
    RunRequest,
    RunService,
    _await_cell_futures,
    _cell_in_subprocess,
)

__all__ = [
    "CellTimeoutError",
    "MANIFEST_SCHEMA",
    "ResilienceWarning",
    "ResilientRunService",
    "RetryPolicy",
    "RunManifest",
    "TRANSIENT_ERRORS",
    "retry_call",
]

T = TypeVar("T")


class CellTimeoutError(RuntimeError):
    """One cell attempt exceeded the per-cell deadline."""


class ResilienceWarning(RuntimeWarning):
    """A recovery action (degradation, abandoned attempt) was taken."""


#: Failure classes worth retrying: injected faults, dead worker pools,
#: abandoned attempts, and I/O errors (``FlakyStoreError`` is an
#: ``OSError``).  Programming errors (TypeError, AssertionError, ...)
#: are *not* transient and fail the matrix immediately.
TRANSIENT_ERRORS: Tuple[type, ...] = (
    FaultError,
    CellTimeoutError,
    BrokenProcessPool,
    OSError,
)


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How hard to fight for each cell before giving up.

    Attributes:
        max_attempts: total tries per cell (and per cache store).
        backoff_base: first retry delay in seconds; doubles per attempt.
        backoff_max: delay ceiling in seconds.
        jitter: +/- fraction applied to each delay, derived
            deterministically from the cell key and attempt number (no
            global RNG state, so runs stay reproducible).
        timeout: per-attempt wall-clock budget in seconds; ``None``
            disables deadlines.
        transient: exception classes that trigger a retry.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    jitter: float = 0.1
    timeout: Optional[float] = None
    transient: Tuple[type, ...] = TRANSIENT_ERRORS

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive or None")

    def delay(self, attempt: int, token: str = "") -> float:
        """Backoff before retry ``attempt + 1`` (deterministic jitter)."""
        raw = min(self.backoff_max, self.backoff_base * (2 ** (attempt - 1)))
        if self.jitter and raw > 0:
            digest = hashlib.sha256(
                f"{token}:{attempt}".encode("utf-8")
            ).digest()
            fraction = int.from_bytes(digest[:8], "big") / float(2**64)
            raw *= 1.0 + self.jitter * (2.0 * fraction - 1.0)
        return raw


def retry_call(
    fn: Callable[[], T],
    *,
    policy: Optional[RetryPolicy] = None,
    label: str = "",
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn`` under a retry policy; the sweep driver's entry point.

    Retries only :attr:`RetryPolicy.transient` errors, sleeping the
    policy's jittered backoff between attempts, and re-raises the last
    error once the attempt budget is exhausted.
    """
    policy = policy or RetryPolicy()
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except policy.transient:
            if attempt >= policy.max_attempts:
                raise
            sleep(policy.delay(attempt, label))


# ----------------------------------------------------------------------
# Checkpoint / resume manifest
# ----------------------------------------------------------------------

MANIFEST_SCHEMA = 1


class RunManifest:
    """Append-only journal of completed matrix cells.

    Line 1 is a JSON header naming the planned matrix; every following
    line records one completed cell::

        {"kind": "repro-matrix-manifest", "schema": 1,
         "algorithms": [...], "graph_keys": [...]}
        {"cell": ["BFS", "FR"], "cache_key": "..."}

    Lines are flushed and fsync'd as cells finish, and :meth:`load`
    tolerates a truncated final line, so a manifest written by a killed
    sweep resumes cleanly.  Every append holds an advisory
    ``fcntl.flock`` (see :func:`repro.harness.journal.advisory_lock`),
    so a daemon worker and a concurrent CLI ``--resume`` sharing one
    manifest cannot interleave partial lines.  The journal is advisory: results themselves
    live in the persistent cache, so a manifest entry whose cache file
    has vanished merely costs a re-execution, never a wrong answer.
    """

    def __init__(
        self,
        path: str,
        algorithms: Sequence[str],
        graph_keys: Sequence[str],
        completed: Optional[Dict[Tuple[str, str], Optional[str]]] = None,
    ) -> None:
        self.path = path
        self.algorithms = list(algorithms)
        self.graph_keys = list(graph_keys)
        self.completed: Dict[Tuple[str, str], Optional[str]] = dict(
            completed or {}
        )
        #: Per-cell shard indices recorded via :meth:`mark_shard`.
        self.shard_completed: Dict[Tuple[str, str], set] = {}

    @staticmethod
    def _key(algorithm: str, graph_key: str) -> Tuple[str, str]:
        return (algorithm.upper(), graph_key)

    @classmethod
    def start(
        cls, path: str, algorithms: Sequence[str], graph_keys: Sequence[str]
    ) -> "RunManifest":
        """Create (truncate) a manifest for a fresh sweep."""
        manifest = cls(path, algorithms, graph_keys)
        header = {
            "kind": "repro-matrix-manifest",
            "schema": MANIFEST_SCHEMA,
            "algorithms": manifest.algorithms,
            "graph_keys": manifest.graph_keys,
        }
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w") as handle:
            with advisory_lock(handle):
                handle.write(json.dumps(header, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        return manifest

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        """Parse a manifest, tolerating a torn (killed mid-write) tail."""
        with open(path) as handle:
            lines = handle.read().splitlines()
        if not lines:
            raise ValueError(f"manifest {path} is empty")
        header = json.loads(lines[0])
        if (
            header.get("kind") != "repro-matrix-manifest"
            or header.get("schema") != MANIFEST_SCHEMA
        ):
            raise ValueError(
                f"{path} is not a schema-{MANIFEST_SCHEMA} matrix manifest"
            )
        completed: Dict[Tuple[str, str], Optional[str]] = {}
        shard_completed: Dict[Tuple[str, str], set] = {}
        for line in lines[1:]:
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn tail line from a kill mid-append
            try:
                algorithm, graph_key = entry["cell"]
            except (KeyError, TypeError):
                # Not a cell entry; maybe a per-shard breadcrumb (older
                # readers skip these the same way — the schema is
                # backwards compatible by construction).
                try:
                    algorithm, graph_key = entry["shard_of"]
                    shard = int(entry["shard"])
                except (KeyError, TypeError, ValueError):
                    continue
                shard_completed.setdefault(
                    cls._key(algorithm, graph_key), set()
                ).add(shard)
                continue
            completed[cls._key(algorithm, graph_key)] = entry.get("cache_key")
        manifest = cls(
            path, header["algorithms"], header["graph_keys"], completed
        )
        manifest.shard_completed = shard_completed
        return manifest

    def mark(
        self, algorithm: str, graph_key: str, cache_key: Optional[str] = None
    ) -> None:
        """Record one completed cell (idempotent)."""
        key = self._key(algorithm, graph_key)
        if key in self.completed:
            return
        self.completed[key] = cache_key
        entry = {"cell": [key[0], key[1]], "cache_key": cache_key}
        locked_append_line(self.path, json.dumps(entry, sort_keys=True))

    def mark_shard(
        self, algorithm: str, graph_key: str, shard: int, shards: int
    ) -> None:
        """Record one completed shard of a cell's first iteration.

        Progress breadcrumbs, not resume units: resume stays
        cell-granular (results live in the persistent cache), but the
        journal shows *which shards* of a long paper-scale cell had
        finished when a sweep died.  Idempotent per (cell, shard); old
        readers skip these lines (no ``"cell"`` key).
        """
        key = self._key(algorithm, graph_key)
        done = self.shard_completed.setdefault(key, set())
        if shard in done:
            return
        done.add(shard)
        entry = {
            "shard_of": [key[0], key[1]],
            "shard": int(shard),
            "shards": int(shards),
        }
        locked_append_line(self.path, json.dumps(entry, sort_keys=True))

    def shard_progress(self, algorithm: str, graph_key: str) -> set:
        """Shard indices recorded for one cell (empty when unsharded)."""
        return set(self.shard_completed.get(self._key(algorithm, graph_key), ()))

    def is_completed(self, algorithm: str, graph_key: str) -> bool:
        return self._key(algorithm, graph_key) in self.completed

    def remaining(
        self, pairs: Sequence[Tuple[str, str]]
    ) -> List[Tuple[str, str]]:
        return [
            (a, g) for a, g in pairs if self._key(a, g) not in self.completed
        ]


# ----------------------------------------------------------------------
# Resilient service
# ----------------------------------------------------------------------


class _TierFailure(Exception):
    """A whole executor tier died; carry the unfinished cells onward."""

    def __init__(
        self, remaining: List[Tuple[str, str]], cause: BaseException
    ) -> None:
        super().__init__(f"{len(remaining)} cells unfinished: {cause!r}")
        self.remaining = remaining
        self.cause = cause


def _resilient_cell_worker(
    backends,
    algorithm: str,
    graph_key: str,
    source: int,
    plan,
    max_attempts: int,
    storage: str = "memory",
    shards: int = 1,
) -> Tuple[CellResult, int]:
    """Process-pool entry point: fault hooks + retries inside the worker.

    Returns ``(cell, attempts_used)`` so the parent can account retries
    that happened out-of-process.  A ``kill`` plan calls ``os._exit``,
    which surfaces in the parent as ``BrokenProcessPool`` and is handled
    by tier degradation instead.
    """
    attempt = 0
    while True:
        attempt += 1
        try:
            if plan is not None:
                plan.fire(attempt, in_worker=True)
            cell = _cell_in_subprocess(
                backends, algorithm, graph_key, source, storage, shards
            )
            return cell, attempt
        except FaultError:
            if attempt >= max_attempts:
                raise


#: Degradation order per requested executor.
_TIER_ORDER: Dict[str, Tuple[str, ...]] = {
    "process": ("process", "thread", "serial"),
    "thread": ("thread", "serial"),
    "serial": ("serial",),
}


class ResilientRunService(RunService):
    """A :class:`RunService` that survives crashes, hangs, and bad disks.

    Construction mirrors :class:`RunService`, plus:

    Args:
        policy: the :class:`RetryPolicy` (attempts/backoff/timeout).
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
        *args,
        policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        manifest_path: Optional[str] = None,
        resume: bool = False,
        sleep: Callable[[float], None] = time.sleep,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.policy = policy or RetryPolicy()
        self.faults = faults
        self.manifest_path = manifest_path
        self.resume = resume
        self._sleep = sleep
        self._manifest: Optional[RunManifest] = None

    # ------------------------------------------------------------------
    # Cell-level resilience
    # ------------------------------------------------------------------
    def _run_cell(self, request: RunRequest) -> CellResult:
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
                with self._lock:
                    self.stats.retries += 1
                rec = get_recorder()
                if rec.enabled:
                    rec.counter("resilience.retries").add()
                    rec.event(
                        "resilience.retry",
                        track="service",
                        cell=token,
                        attempt=attempt,
                        error=type(exc).__name__,
                    )
                self._sleep(self.policy.delay(attempt, token))

    def _attempt_cell(self, request: RunRequest, attempt: int) -> CellResult:
        """One attempt, under the per-cell deadline when configured."""
        if self.policy.timeout is None:
            return self._attempt_body(request, attempt)
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            future = pool.submit(self._attempt_body, request, attempt)
            try:
                return future.result(timeout=self.policy.timeout)
            except FuturesTimeoutError:
                future.cancel()
                with self._lock:
                    self.stats.timeouts += 1
                rec = get_recorder()
                if rec.enabled:
                    rec.counter("resilience.timeouts").add()
                    rec.event(
                        "resilience.timeout",
                        track="service",
                        cell=f"{request.algorithm}/{request.graph_key}",
                        attempt=attempt,
                    )
                raise CellTimeoutError(
                    f"cell ({request.algorithm}, {request.graph_key}) "
                    f"attempt {attempt} exceeded {self.policy.timeout}s; "
                    "attempt abandoned"
                ) from None
        finally:
            # Abandon, don't wait: a wedged attempt thread must not block
            # the retry (it is left to finish -- or hang -- in the dark).
            pool.shutdown(wait=False)

    def _attempt_body(self, request: RunRequest, attempt: int) -> CellResult:
        if self.faults is not None:
            self.faults.on_cell_start(
                request.algorithm, request.graph_key, attempt
            )
        return super()._run_cell(request)

    def _shard_runner_for(self, request: RunRequest, graph):
        """Wrap the shard runner to journal per-shard breadcrumbs.

        Active only for parent-side sharded cells with an open manifest:
        the first completion of each shard index is appended to the
        journal, so a killed paper-scale sweep shows how far each cell's
        shard fan-out progressed.
        """
        runner, graph_ref, cleanup = super()._shard_runner_for(request, graph)
        manifest = self._manifest
        if manifest is None or request.shards <= 1:
            return runner, graph_ref, cleanup
        base = runner or (
            lambda tasks: [scatter_shard_task(t, graph) for t in tasks]
        )

        def marking_runner(tasks):
            segments = base(tasks)
            for task in tasks:
                manifest.mark_shard(
                    request.algorithm,
                    request.graph_key,
                    task.shard_index,
                    request.shards,
                )
            return segments

        return marking_runner, graph_ref, cleanup

    # ------------------------------------------------------------------
    # Store-level resilience
    # ------------------------------------------------------------------
    def _write_envelope(self, path: str, envelope: Dict[str, object]) -> None:
        attempt = 0
        while True:
            attempt += 1
            try:
                if self.faults is not None:
                    self.faults.on_store(path)
                super()._write_envelope(path, envelope)
                if self.faults is not None:
                    self.faults.after_store(path)
                return
            except OSError:
                if attempt >= self.policy.max_attempts:
                    raise
                with self._lock:
                    self.stats.retries += 1
                self._sleep(self.policy.delay(attempt, path))

    # ------------------------------------------------------------------
    # Matrix orchestration: tiers + checkpointing
    # ------------------------------------------------------------------
    def matrix(
        self,
        algorithms: Optional[Sequence[str]] = None,
        graph_keys: Optional[Sequence[str]] = None,
        jobs: Optional[int] = None,
        executor: Optional[str] = None,
    ) -> List[CellResult]:
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
                with self._lock:
                    self.stats.degradations += 1
                remaining = failure.remaining
                rec = get_recorder()
                if rec.enabled:
                    rec.counter("resilience.degradations").add()
                    rec.event(
                        "resilience.degradation",
                        track="service",
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
        return [self.cell(a, g) for a, g in pairs]

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
                _await_cell_futures(
                    futures,
                    on_done=lambda cell: self._mark(manifest, *cell),
                )
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
        """Process tier: parent-side caches, worker-side fault plans.

        Raises :class:`_TierFailure` carrying the unfinished cells when
        the pool itself breaks (e.g. a worker died with ``os._exit``),
        so :meth:`matrix` can degrade instead of aborting the sweep.
        """
        pending = []
        for algorithm, graph_key in pairs:
            if datasets.is_dynamic(graph_key):
                # Worker processes cannot see this process's dynamic
                # registrations, so dynamic cells run in-parent (the
                # serial path still applies retries and fault hooks).
                self.cell(algorithm, graph_key)
                self._mark(manifest, algorithm, graph_key)
                continue
            key = self._memo_key(algorithm, graph_key)
            with self._lock:
                if key in self._cells:
                    self._mark(manifest, algorithm, graph_key)
                    continue
            request = self.request_for(algorithm, graph_key)
            path = self._cache_path(request) if self.persistent else None
            if path is not None:
                cached = self._load_cached(path, request)
                if cached is not None:
                    with self._lock:
                        self.stats.hits += 1
                        self._cells.setdefault(key, cached)
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
        finished = set()
        try:
            futures = [
                (
                    pool.submit(
                        _resilient_cell_worker,
                        self.backends,
                        request.algorithm,
                        request.graph_key,
                        request.source,
                        plan if plan else None,
                        self.policy.max_attempts,
                        request.storage,
                        request.shards,
                    ),
                    algorithm,
                    graph_key,
                    key,
                    request,
                    path,
                )
                for algorithm, graph_key, key, request, path, plan in pending
            ]
            for future, algorithm, graph_key, key, request, path in futures:
                try:
                    cell, attempts = future.result(
                        timeout=self.policy.timeout
                    )
                except FuturesTimeoutError:
                    with self._lock:
                        self.stats.timeouts += 1
                    # Abandon the worker's attempt; finish the cell in
                    # the parent under the full retry machinery.
                    self.cell(algorithm, graph_key)
                except BrokenProcessPool as exc:
                    raise _TierFailure(
                        [
                            (a, g)
                            for _, a, g, k, _, _ in futures
                            if k not in finished
                        ],
                        exc,
                    ) from exc
                except Exception as exc:
                    raise CellExecutionError(
                        algorithm,
                        graph_key,
                        detail=repr(exc),
                        attempts=self.policy.max_attempts,
                    ) from exc
                else:
                    if attempts > 1:
                        with self._lock:
                            self.stats.retries += attempts - 1
                    if path is not None:
                        self._store_cached(path, request, cell)
                    with self._lock:
                        self.stats.misses += 1
                        self._cells.setdefault(key, cell)
                finished.add(key)
                self._mark(manifest, algorithm, graph_key)
        finally:
            # wait=False: a hung or dead worker must not block shutdown.
            pool.shutdown(wait=False)
