"""``repro serve``: a durable simulation daemon with a bounded job queue.

This module turns the library into a long-running service: an HTTP/JSON
API (stdlib :mod:`http.server`, no new dependencies) wrapping one warm
:class:`~repro.harness.service.RunService` under a retry policy.  Four
properties, each carried by a dedicated mechanism:

**Durability** (:class:`~repro.harness.journal.JobJournal`)
    Every job transition is written ahead to an append-only, fsync'd,
    torn-tail-tolerant JSONL journal.  After ``kill -9`` mid-matrix the
    daemon restarts, folds the journal, re-enqueues every job without a
    terminal event, and re-executes it — finished cells replay from the
    content-addressed persistent cache, so the resumed result is
    byte-identical to an uninterrupted run.

**Deduplication** (request coalescing)
    A job's identity is the sorted tuple of its cells' content-addressed
    ``cache_key``s.  An identical submission arriving while a matching
    job is in flight *attaches* to it instead of executing again: N
    duplicate submissions run the underlying cells exactly once and all
    N clients observe the same result (``coalesced`` counter = N-1).

**Backpressure** (one rule)
    Queued jobs wait in a bounded FIFO queue and start in submission
    order.  When the queue is full a submission gets HTTP 503 with
    ``Retry-After``; cancelling a queued job frees its slot at once.
    Every job runs on the configured executor: the run service's
    failure-driven degradation (process → thread → serial when a pool
    breaks) is the only executor fallback.

**Lifecycle**
    ``/healthz`` (liveness) and ``/readyz`` (readiness; 503 while
    draining), graceful drain on SIGTERM (stop accepting, finish running
    jobs up to a budget, journal shutdown — queued jobs stay journaled
    and resume on restart), a watchdog that abandons jobs exceeding
    their deadline (the resilience layer's abandon-don't-block
    semantics), and stale-spill garbage collection at startup.

HTTP surface (all JSON)::

    POST   /v1/jobs            submit {"algorithms": [...], "graphs": [...]}
    GET    /v1/jobs            list jobs
    GET    /v1/jobs/<id>       one job's status
    GET    /v1/jobs/<id>/result   canonical RunReport JSON (409 until done)
    DELETE /v1/jobs/<id>       cancel a queued/running job
    POST   /v1/plans           plan a spec; pending cells fan into the queue
    GET    /v1/stats           submission/coalesce/queue counters
    GET    /healthz            liveness
    GET    /readyz             readiness (503 while draining)
    POST   /v1/drain           stop accepting, keep serving status
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import re
import signal
import threading
import time
import urllib.error
import urllib.request
from collections import OrderedDict, deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..graph import datasets
from ..graph.storage import gc_stale_spills
from ..obs import get_recorder
from ..vcpm.algorithms import get_algorithm
from .faults import FaultInjector
from .journal import JobJournal, JournalError
from .resilience import RetryPolicy
from .service import RunService, canonical_reports_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .specs import ExperimentSpec

__all__ = [
    "DaemonConfig",
    "DaemonStats",
    "Job",
    "JobSpec",
    "JobValidationError",
    "SimulationDaemon",
    "http_json",
    "submit_job",
    "submit_plan",
    "wait_for_job",
]

#: Job states.  ``queued``/``running`` are live; ``coalesced`` mirrors a
#: primary job; the rest are terminal.  ``shed`` is only reached when a
#: restart with a smaller ``capacity`` cannot re-enqueue every job.
_TERMINAL_STATES = ("done", "failed", "cancelled", "shed")
#: The :class:`DaemonStats` field each terminal state bumps.
_STATE_COUNTERS = {
    "done": "completed",
    "failed": "failed",
    "cancelled": "cancelled",
    "shed": "shed",
}


#: The only keys a ``POST /v1/jobs`` body and a ``POST /v1/plans`` body
#: may carry; any other key is rejected (HTTP 400) rather than ignored.
_JOB_KEYS = frozenset({"algorithms", "graphs"})
_PLAN_KEYS = frozenset({"spec", "yaml", "dry_run"})


class JobValidationError(ValueError):
    """A submitted job spec is malformed or names unknown
    algorithms/datasets (HTTP 400)."""


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """What one job runs: a sub-matrix of (algorithm, graph) cells.

    The source vertex and backend configs are daemon-level settings (the
    warm service's), not per-job, so a job's identity is purely its
    cells — which is what makes coalescing by cache key sound.
    """

    algorithms: Tuple[str, ...]
    graphs: Tuple[str, ...]

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobSpec":
        unknown = sorted(set(data) - _JOB_KEYS)
        if unknown:
            raise JobValidationError(
                f"unknown job key {unknown[0]!r} (a job takes only "
                "'algorithms' and 'graphs')"
            )
        try:
            algorithms = tuple(str(a) for a in data["algorithms"])
            graphs = tuple(str(g) for g in data["graphs"])
        except (KeyError, TypeError) as exc:
            raise JobValidationError(
                "job spec requires 'algorithms' and 'graphs' lists"
            ) from exc
        if not algorithms or not graphs:
            raise JobValidationError(
                "'algorithms' and 'graphs' must be non-empty"
            )
        spec = cls(algorithms=algorithms, graphs=graphs)
        spec.validate()
        return spec

    def validate(self) -> None:
        for algorithm in self.algorithms:
            try:
                get_algorithm(algorithm)
            except KeyError as exc:
                raise JobValidationError(str(exc)) from exc
        for graph in self.graphs:
            try:
                datasets.resolve_key(graph)
            except KeyError as exc:
                raise JobValidationError(str(exc)) from exc

    def to_dict(self) -> Dict[str, object]:
        return {
            "algorithms": list(self.algorithms),
            "graphs": list(self.graphs),
        }

    def cells(self) -> List[Tuple[str, str]]:
        return [(a, g) for a in self.algorithms for g in self.graphs]


@dataclasses.dataclass
class Job:
    """One submission's full lifecycle record."""

    id: str
    seq: int
    spec: JobSpec
    job_key: str = ""
    state: str = "queued"
    coalesced_with: Optional[str] = None
    attached: List[str] = dataclasses.field(default_factory=list)
    error: Optional[str] = None
    result_json: Optional[str] = None
    result_digest: Optional[str] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    resumed: bool = False
    #: True once this job's max_running slot has been given back.
    slot_released: bool = True

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL_STATES


@dataclasses.dataclass
class DaemonStats:
    """Monotonic daemon counters.

    Each field ``X`` is bumped together with the ``repro.obs`` counter
    ``serve.X`` by :meth:`SimulationDaemon._count`, the only writer.
    """

    admitted: int = 0
    coalesced: int = 0
    rejected_queue_full: int = 0
    rejected_draining: int = 0
    rejected_invalid: int = 0
    shed: int = 0
    planned: int = 0
    completed: int = 0
    failed: int = 0
    timeouts: int = 0
    cancelled: int = 0
    resumed: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class DaemonConfig:
    """Everything tunable about one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 8177
    #: WAL journal path; ``None`` disables durability (tests only).
    journal_path: Optional[str] = "repro-jobs.jsonl"
    cache_dir: Optional[str] = None
    use_cache: bool = True
    #: Bounded queue capacity (queued jobs, excluding running).
    capacity: int = 64
    #: ``Retry-After`` hint (seconds) of a queue-full 503.
    retry_after_full: float = 1.0
    #: Concurrently *running* jobs (each may fan cells out internally).
    max_running: int = 1
    #: Wall-clock deadline per job; the watchdog abandons over-budget
    #: jobs.  ``None`` disables the watchdog's cancellations.
    job_deadline: Optional[float] = None
    #: Graceful-drain budget on SIGTERM before exiting anyway.
    drain_timeout: float = 5.0
    #: Cell-level execution knobs, passed through to the service.
    executor: str = "thread"
    jobs: int = 1
    storage: str = "memory"
    shards: int = 1
    retries: int = 3
    cell_timeout: Optional[float] = None
    #: Retain at most this many finished results in memory.
    max_results: int = 256
    #: Deterministic fault directives (see :mod:`repro.harness.faults`).
    inject: Tuple[str, ...] = ()
    #: Scheduler/watchdog poll interval.
    poll_interval: float = 0.05
    #: Path to write ``{"pid", "port", "url"}`` once ready (port 0 ⇒
    #: ephemeral; the announce file is how callers learn the real port).
    announce: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class SubmitDecision:
    """Outcome of one submission, ready to render as HTTP."""

    accepted: bool
    status: int  # 202 accepted / 400 invalid / 503 full|draining
    reason: str = ""
    retry_after: Optional[float] = None


class _JobQueue:
    """Bounded FIFO of queued (not running) jobs.

    A full queue refuses the offer; the daemon turns that into a 503.
    Thread-safe: the scheduler pops while HTTP threads offer and cancel.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._jobs: "deque[Job]" = deque()
        self._ready = threading.Condition()

    def offer(self, job: Job) -> bool:
        with self._ready:
            if len(self._jobs) >= self.capacity:
                return False
            self._jobs.append(job)
            self._ready.notify()
            return True

    def pop(self, timeout: float) -> Optional[Job]:
        """The oldest queued job, or None after ``timeout`` seconds."""
        with self._ready:
            if not self._jobs:
                self._ready.wait(timeout)
            return self._jobs.popleft() if self._jobs else None

    def remove(self, job: Job) -> None:
        with self._ready:
            with contextlib.suppress(ValueError):
                self._jobs.remove(job)

    def __len__(self) -> int:
        with self._ready:
            return len(self._jobs)


class SimulationDaemon:
    """The long-running service cell wrapping one warm run service.

    The service instance (and with it the process-wide dataset memo and
    any mmap spill state) is shared across every job, so repeated jobs
    against the same graphs never reload or regenerate them.

    Args:
        config: see :class:`DaemonConfig`.
        service: injectable pre-built service (tests substitute stubs);
            defaults to a :class:`~repro.harness.service.RunService`
            built from ``config``.
    """

    def __init__(
        self,
        config: Optional[DaemonConfig] = None,
        service: Optional[RunService] = None,
    ) -> None:
        self.config = config or DaemonConfig()
        self.faults: Optional[FaultInjector] = (
            FaultInjector(list(self.config.inject))
            if self.config.inject
            else None
        )
        #: Stale spill directories reclaimed at startup (dead owners).
        self.spills_collected: List[str] = gc_stale_spills()
        # The service constructor only knows pool kinds; "serial" as the
        # daemon's base tier means a thread service run with jobs=1.
        service_executor = (
            self.config.executor
            if self.config.executor in ("thread", "process")
            else "thread"
        )
        self.service = service or RunService(
            cache_dir=self.config.cache_dir,
            use_cache=self.config.use_cache,
            jobs=self.config.jobs if self.config.executor != "serial" else 1,
            executor=service_executor,
            storage=self.config.storage,
            shards=self.config.shards,
            policy=RetryPolicy(
                max_attempts=max(self.config.retries, 1),
                timeout=self.config.cell_timeout,
            ),
            faults=self.faults,
        )
        self._queue = _JobQueue(self.config.capacity)
        self.journal: Optional[JobJournal] = (
            JobJournal(self.config.journal_path, faults=self.faults)
            if self.config.journal_path
            else None
        )
        self.stats = DaemonStats()
        self.started_at = time.time()
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, str] = {}  # job_key -> primary job id
        self._running: Dict[str, Job] = {}
        self._results_order: List[str] = []
        self._seq = 0
        self._lock = threading.RLock()
        self._accepting = True
        self._draining = False
        self._stop = threading.Event()
        self._stopped = threading.Event()
        self._slots = threading.Semaphore(max(1, self.config.max_running))
        self._threads: List[threading.Thread] = []
        self._server: Optional[ThreadingHTTPServer] = None
        if self.journal is not None:
            self._recover()

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def job_key(self, spec: JobSpec) -> str:
        """Content address of a job: its cells' sorted cache keys.

        Built on the run service's existing content-addressed cell keys
        (which already fold in configs, dataset fingerprints, schema and
        package versions), so two submissions coalesce exactly when the
        cached result of one would satisfy the other.
        """
        keys = sorted(
            self.service.cache_key(self.service.request_for(algorithm, graph))
            for algorithm, graph in spec.cells()
        )
        digest = hashlib.sha256("|".join(keys).encode("utf-8")).hexdigest()
        return digest[:16]

    def _new_job(
        self,
        spec: JobSpec,
        job_key: str,
        coalesced_with: Optional[str] = None,
    ) -> Job:
        """A fresh job with the next id; the caller registers it."""
        self._seq += 1
        return Job(
            id=f"j{self._seq:06d}-{job_key[:8]}",
            seq=self._seq,
            spec=spec,
            job_key=job_key,
            coalesced_with=coalesced_with,
            submitted_at=time.time(),
        )

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def _count(self, field: str) -> None:
        """Bump ``stats.<field>`` and the ``serve.<field>`` counter together."""
        with self._lock:
            setattr(self.stats, field, getattr(self.stats, field) + 1)
            get_recorder().counter(f"serve.{field}").add()

    def _set_depth_gauge(self) -> None:
        get_recorder().gauge("serve.queue_depth").set(len(self._queue))

    # ------------------------------------------------------------------
    # Submission (bounded queue + coalescing + WAL)
    # ------------------------------------------------------------------
    def _reject_full(self, reason: str) -> SubmitDecision:
        self._count("rejected_queue_full")
        return SubmitDecision(
            accepted=False,
            status=503,
            reason=reason,
            retry_after=self.config.retry_after_full,
        )

    def submit(
        self, spec_data: Dict[str, object]
    ) -> Tuple[Optional[Job], SubmitDecision]:
        """Accept one submission; the HTTP POST handler in library form.

        Returns ``(job, decision)``; ``job`` is ``None`` iff the
        submission was rejected (queue full, draining, or invalid spec —
        the decision's status is the HTTP status).
        """
        try:
            spec = JobSpec.from_dict(spec_data)
        except JobValidationError as exc:
            self._count("rejected_invalid")
            return None, SubmitDecision(
                accepted=False, status=400, reason=str(exc)
            )
        if not self._accepting:
            self._count("rejected_draining")
            return None, SubmitDecision(
                accepted=False,
                status=503,
                reason="daemon is draining",
                retry_after=self.config.drain_timeout,
            )
        if self.faults is not None and self.faults.on_admit():
            return None, self._reject_full("queue full (injected overflow)")
        job_key = self.job_key(spec)
        with self._lock:
            primary_id = self._inflight.get(job_key)
            # Every offer happens under this lock and the scheduler only
            # pops, so a queue with room now still has room below.
            if primary_id is None and len(self._queue) >= self._queue.capacity:
                return None, self._reject_full(
                    f"queue full ({self._queue.capacity} jobs)"
                )
            job = self._new_job(spec, job_key, coalesced_with=primary_id)
            try:
                self._journal_submit(job)
            except JournalError as exc:
                # No durability, no acknowledgement: the job never existed.
                return None, SubmitDecision(
                    accepted=False,
                    status=503,
                    reason=f"journal unavailable: {exc}",
                    retry_after=self.config.retry_after_full,
                )
            self._jobs[job.id] = job
            if primary_id is not None:
                # Identical work already in flight: attach, don't queue.
                job.state = "coalesced"
                self._jobs[primary_id].attached.append(job.id)
                self._count("coalesced")
                return job, SubmitDecision(
                    accepted=True, status=202, reason="coalesced"
                )
            self._queue.offer(job)
            self._inflight[job_key] = job.id
            self._count("admitted")
            self._set_depth_gauge()
        return job, SubmitDecision(accepted=True, status=202)

    def inflight_cell_keys(self) -> FrozenSet[str]:
        """Content-addressed keys of every cell some live job covers.

        The planner treats these cells as *inflight*: submitting them
        again would coalesce onto the running job (same ``job_key``
        construction), so a plan neither schedules them nor counts
        their cost as pending.  Coalesced duplicates contribute the
        same keys as their primary, so including them is harmless.
        """
        with self._lock:
            specs = [
                job.spec
                for job in self._jobs.values()
                if self.effective_state(job) not in _TERMINAL_STATES
            ]
        keys = set()
        for spec in specs:
            for algorithm, graph in spec.cells():
                keys.add(
                    self.service.cache_key(
                        self.service.request_for(algorithm, graph)
                    )
                )
        return frozenset(keys)

    # ------------------------------------------------------------------
    # Declarative plans (POST /v1/plans in library form)
    # ------------------------------------------------------------------
    def _spec_rejection(self, spec: "ExperimentSpec") -> Optional[str]:
        """Why a spec cannot run on this daemon's warm service, or None.

        The job queue executes on one shared service, so every axis the
        queue cannot express per-job must match the daemon's settings —
        a mismatched plan would return results for a *different*
        configuration than the spec asked for.
        """
        if spec.backends:
            return (
                "daemon plans run on the daemon's full backend set; "
                "drop 'backends' or run locally via 'repro run-spec'"
            )
        if spec.overrides:
            return (
                "config overrides are not servable by the shared "
                "daemon service; run locally via 'repro run-spec'"
            )
        if spec.source != self.service.default_source:
            return (
                f"spec source {spec.source} != daemon source "
                f"{self.service.default_source}"
            )
        if spec.storage != self.service.storage:
            return (
                f"spec storage {spec.storage!r} != daemon storage "
                f"{self.service.storage!r}"
            )
        if spec.shards != self.service.shards:
            return (
                f"spec shards {spec.shards} != daemon shards "
                f"{self.service.shards}"
            )
        return None

    def plan_submission(
        self,
        data: Dict[str, object],
        dry_run: bool = False,
    ) -> Tuple[int, Dict[str, object]]:
        """Plan a spec against this daemon and fan pending cells out.

        Accepts ``{"spec": {...}}`` (parsed mapping) or
        ``{"yaml": "..."}`` (spec text).  Returns ``(status, payload)``
        where the payload always carries the classified plan; unless
        ``dry_run``, each pending ``(graph)`` group is submitted as one
        job through :meth:`submit` (the queue bound, coalescing and
        journaling all apply).
        """
        from .planner import build_plan, plan_to_dict, spec_digest
        from .specs import SpecError, parse_spec, spec_from_dict

        try:
            unknown = sorted(set(data) - _PLAN_KEYS)
            if unknown:
                raise SpecError(
                    f"unknown plan request key {unknown[0]!r} (expected "
                    "'spec' or 'yaml', and optionally 'dry_run')",
                    field=unknown[0],
                )
            if "yaml" in data:
                if not isinstance(data["yaml"], str):
                    raise SpecError("'yaml' must be spec text")
                spec = parse_spec(data["yaml"], source="<request>")
            elif "spec" in data:
                spec = spec_from_dict(data["spec"], source="<request>")
            else:
                raise SpecError(
                    "plan requests need a 'spec' mapping or 'yaml' text"
                )
        except SpecError as exc:
            self._count("rejected_invalid")
            return 400, {
                "error": str(exc),
                "field": exc.field,
                "line": exc.line,
            }
        rejection = self._spec_rejection(spec)
        if rejection is not None:
            self._count("rejected_invalid")
            return 400, {"error": rejection, "field": None, "line": None}

        override = spec.effective_overrides()[0].name
        plan = build_plan(
            spec, {override: self.service}, self.inflight_cell_keys()
        )
        payload: Dict[str, object] = {
            "plan": plan_to_dict(plan),
            "dry_run": dry_run,
            "jobs": [],
            "rejected": [],
        }
        if dry_run:
            return 200, payload

        groups: "OrderedDict[str, List[str]]" = OrderedDict()
        for cell in plan.schedule:
            groups.setdefault(cell.graph, []).append(cell.algorithm)
        jobs: List[Dict[str, object]] = []
        rejected: List[Dict[str, object]] = []
        for graph, algorithms in groups.items():
            job, decision = self.submit(
                {"algorithms": algorithms, "graphs": [graph]}
            )
            if job is None:
                rejected.append(
                    {
                        "graph": graph,
                        "algorithms": algorithms,
                        "status": decision.status,
                        "reason": decision.reason,
                    }
                )
            else:
                jobs.append(self.job_dict(job))
        self._count("planned")
        if self.journal is not None:
            with contextlib.suppress(JournalError):
                self.journal.plan(
                    spec_name=spec.name,
                    spec_digest=spec_digest(spec),
                    cells=len(plan.cells),
                    cached=len(plan.cached),
                    pending=len(plan.pending),
                    job_ids=[str(j["id"]) for j in jobs],
                )
        payload["jobs"] = jobs
        payload["rejected"] = rejected
        status = 202 if jobs or not rejected else rejected[0]["status"]
        return status, payload

    def _journal_submit(self, job: Job) -> None:
        if self.journal is None:
            return
        self.journal.submit(
            job.id,
            job.seq,
            job.spec.to_dict(),
            job.job_key,
            coalesced_with=job.coalesced_with,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _scheduler_loop(self) -> None:
        while not self._stop.is_set():
            if self._draining:
                self._stop.wait(self.config.poll_interval)
                continue
            if not self._slots.acquire(timeout=self.config.poll_interval):
                continue
            job = self._queue.pop(timeout=self.config.poll_interval)
            if job is None or job.terminal:
                self._slots.release()
                continue
            job.slot_released = False
            worker = threading.Thread(
                target=self._execute_job, args=(job,), daemon=True,
                name=f"repro-serve-{job.id}",
            )
            worker.start()

    def _execute_job(self, job: Job) -> None:
        with self._lock:
            if job.terminal:  # cancelled between pop and start
                self._release_slot(job)
                return
            job.state = "running"
            job.started_at = time.time()
            self._running[job.id] = job
        try:
            if self.journal is not None:
                self.journal.start(job.id)
            with get_recorder().span("serve.job", track="serve", job=job.id):
                cells = self.service.matrix(
                    list(job.spec.algorithms), list(job.spec.graphs)
                )
            payload = canonical_reports_json(cells)
        except BaseException as exc:  # noqa: BLE001 - job isolation
            self._finalize(job, "failed", error=repr(exc))
        else:
            self._finalize(job, "done", result=payload)

    def _release_slot(self, job: Job) -> None:
        if not job.slot_released:
            job.slot_released = True
            self._slots.release()

    def _finalize(
        self,
        job: Job,
        state: str,
        result: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        with self._lock:
            if job.terminal:
                # A watchdog/cancel beat us to it; this thread's work is
                # discarded (abandon, don't block).
                self._release_slot(job)
                return
            self._finalize_locked(job, state, result=result, error=error)
        self._journal_finalize(job, state, error)

    def _finalize_locked(
        self,
        job: Job,
        state: str,
        result: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        job.state = state
        job.error = error
        job.finished_at = time.time()
        if result is not None:
            job.result_json = result
            job.result_digest = hashlib.sha256(
                result.encode("utf-8")
            ).hexdigest()[:16]
            self._results_order.append(job.id)
            while len(self._results_order) > self.config.max_results:
                evicted = self._jobs.get(self._results_order.pop(0))
                if evicted is not None:
                    evicted.result_json = None
        self._running.pop(job.id, None)
        if self._inflight.get(job.job_key) == job.id:
            del self._inflight[job.job_key]
        # Attached jobs mirror the primary's fate; their result is read
        # through ``coalesced_with``, never duplicated.
        for attached_id in job.attached:
            attached = self._jobs.get(attached_id)
            if attached is not None and not attached.terminal:
                attached.state = state
                attached.error = error
                attached.finished_at = job.finished_at
        self._release_slot(job)
        self._count(_STATE_COUNTERS[state])
        self._set_depth_gauge()
        get_recorder().event(
            "serve.job_finalized", track="serve", job=job.id, state=state
        )

    def _journal_finalize(
        self, job: Job, state: str, error: Optional[str]
    ) -> None:
        if self.journal is None:
            return
        try:
            if state == "done":
                self.journal.done(job.id, result_digest=job.result_digest)
            elif state == "failed":
                self.journal.fail(job.id, error or "")
            else:
                self.journal.cancel(
                    job.id, reason="shed" if state == "shed" else "cancelled"
                )
        except JournalError:
            # A lost terminal event only costs one idempotent re-run
            # after a restart (cells replay from the persistent cache);
            # never fail a finished job over it.
            pass

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        while not self._stop.is_set():
            self._stop.wait(self.config.poll_interval)
            deadline = self.config.job_deadline
            if deadline is None:
                continue
            now = time.time()
            with self._lock:
                victims = [
                    job
                    for job in self._running.values()
                    if job.started_at is not None
                    and now - job.started_at > deadline
                ]
            for job in victims:
                with self._lock:
                    if job.terminal:
                        continue
                    self._count("timeouts")
                    self._finalize_locked(
                        job,
                        "failed",
                        error=(
                            f"deadline {deadline}s exceeded; "
                            "job abandoned by watchdog"
                        ),
                    )
                self._journal_finalize(job, "failed", job.error)

    # ------------------------------------------------------------------
    # Crash-safe resume
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Fold the WAL and re-enqueue every unfinished job, by ``seq``."""
        assert self.journal is not None
        records, max_seq = JobJournal.replay(self.journal.path)
        self._seq = max_seq
        attached_later: List[Tuple[Job, str]] = []
        for record in sorted(records.values(), key=lambda r: r.seq):
            spec = JobSpec.from_dict(record.spec)
            job = Job(
                id=record.job_id,
                seq=record.seq,
                spec=spec,
                job_key=record.job_key or self.job_key(spec),
                coalesced_with=record.coalesced_with,
                result_digest=record.result_digest,
                error=record.error,
            )
            self._jobs[job.id] = job
            # A terminal event wins over everything else: a duplicate
            # cancelled while coalesced stays cancelled.
            if record.terminal:
                job.state = record.state
                continue
            if record.coalesced_with is not None:
                job.state = "coalesced"
                attached_later.append((job, record.coalesced_with))
                continue
            # submitted/started with no terminal event: the work this
            # daemon owes.  Results live in the content-addressed cache,
            # so re-execution is idempotent and byte-identical.
            job.state = "queued"
            if not self._queue.offer(job):
                self._finalize_locked(
                    job, "shed", error="queue capacity shrank across restart"
                )
                self._journal_finalize(job, "shed", job.error)
                continue
            job.resumed = True
            self._count("resumed")
            self._inflight[job.job_key] = job.id
            try:
                self.journal.resume(job.id)
            except JournalError:
                pass
        for job, primary_id in attached_later:
            primary = self._jobs.get(primary_id)
            if primary is None:
                job.state = "failed"
                job.error = "coalesce primary lost from journal"
            elif not primary.terminal:
                primary.attached.append(job.id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get_job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def effective_state(self, job: Job) -> str:
        """A job's observable state; attached jobs mirror their primary."""
        with self._lock:
            if job.coalesced_with is not None and not job.terminal:
                primary = self._jobs.get(job.coalesced_with)
                if primary is not None:
                    return primary.state
            return job.state

    def result_for(self, job: Job) -> Optional[str]:
        """The canonical reports JSON a job resolves to (via coalescing)."""
        with self._lock:
            target = job
            if job.coalesced_with is not None:
                primary = self._jobs.get(job.coalesced_with)
                if primary is not None:
                    target = primary
            return target.result_json

    def job_dict(self, job: Job) -> Dict[str, object]:
        state = self.effective_state(job)
        return {
            "id": job.id,
            "state": state,
            "job_key": job.job_key,
            "coalesced_with": job.coalesced_with,
            "attached": list(job.attached),
            "algorithms": list(job.spec.algorithms),
            "graphs": list(job.spec.graphs),
            "submitted_at": job.submitted_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
            "error": job.error,
            "resumed": job.resumed,
            "result_available": self.result_for(job) is not None,
            "result_digest": job.result_digest,
        }

    def jobs_dict(self) -> List[Dict[str, object]]:
        with self._lock:
            jobs = list(self._jobs.values())
        return [self.job_dict(job) for job in jobs]

    def stats_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = dict(self.stats.to_dict())
        payload.update(
            queue_depth=len(self._queue),
            running=len(self._running),
            jobs_total=len(self._jobs),
            accepting=self._accepting,
            draining=self._draining,
            uptime_seconds=time.time() - self.started_at,
            spills_collected=len(self.spills_collected),
            cache=dataclasses.asdict(self.service.stats),
        )
        return payload

    def cancel(self, job_id: str) -> Tuple[int, str]:
        """Cancel one job; returns ``(http_status, reason)``."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return 404, f"unknown job {job_id!r}"
            if job.terminal:
                return 409, f"job {job_id} already {job.state}"
            if job.state == "coalesced":
                self._finalize_locked(job, "cancelled")
            elif job.state == "queued":
                self._queue.remove(job)
                self._finalize_locked(job, "cancelled")
            else:  # running: abandon, don't block (watchdog semantics)
                self._finalize_locked(
                    job, "cancelled", error="cancelled while running"
                )
        self._journal_finalize(job, "cancelled", job.error)
        return 200, "cancelled"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("daemon is not serving")
        return self._server.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> None:
        """Start scheduler, watchdog, and the HTTP server (background)."""
        self._server = _DaemonHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._server.simulation_daemon = self  # type: ignore[attr-defined]
        for target, name in (
            (self._scheduler_loop, "repro-serve-scheduler"),
            (self._watchdog_loop, "repro-serve-watchdog"),
            (self._server.serve_forever, "repro-serve-http"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        if self.config.announce:
            payload = {
                "pid": os.getpid(),
                "port": self.port,
                "url": self.base_url,
            }
            with open(self.config.announce, "w") as handle:
                json.dump(payload, handle)

    def drain(self) -> None:
        """Stop admitting and stop starting queued jobs; keep serving
        status.  Queued jobs stay journaled and resume after restart."""
        self._accepting = False
        self._draining = True

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: drain, bounded wait, journal, exit."""
        if self._stopped.is_set():
            return
        if drain:
            self.drain()
            deadline = time.time() + self.config.drain_timeout
            while self._running and time.time() < deadline:
                time.sleep(self.config.poll_interval)
        self._stop.set()
        if self.journal is not None:
            try:
                self.journal.shutdown()
            except JournalError:
                pass
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        self._stopped.set()

    def run_forever(self, install_signals: bool = True) -> None:
        """Start and block until SIGTERM/SIGINT, then drain and stop."""
        self.start()
        stop_requested = threading.Event()
        if install_signals:

            def _handler(signum, frame):  # noqa: ARG001
                stop_requested.set()

            signal.signal(signal.SIGTERM, _handler)
            signal.signal(signal.SIGINT, _handler)
        try:
            while not stop_requested.is_set():
                stop_requested.wait(0.2)
        finally:
            self.stop(drain=True)


class _DaemonHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


_JOB_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9_.-]+)(/result)?$")


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto the daemon; every response is JSON."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def daemon(self) -> SimulationDaemon:
        return self.server.simulation_daemon  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # the journal and stats are the observability surface

    # -- plumbing ------------------------------------------------------
    def _send(
        self,
        status: int,
        payload: Dict[str, object],
        retry_after: Optional[float] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{max(retry_after, 0.0):.3f}")
        self.end_headers()
        self.wfile.write(body)

    def _send_raw(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise JobValidationError(f"request body is not JSON: {exc}")
        if not isinstance(parsed, dict):
            raise JobValidationError("request body must be a JSON object")
        return parsed

    # -- verbs ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        daemon = self.daemon
        if self.path == "/healthz":
            self._send(200, {"status": "ok", "pid": os.getpid()})
            return
        if self.path == "/readyz":
            if daemon._accepting:
                self._send(200, {"status": "ready"})
            else:
                self._send(
                    503,
                    {"status": "draining"},
                    retry_after=daemon.config.drain_timeout,
                )
            return
        if self.path == "/v1/stats":
            self._send(200, daemon.stats_dict())
            return
        if self.path == "/v1/jobs":
            self._send(200, {"jobs": daemon.jobs_dict()})
            return
        match = _JOB_PATH.match(self.path)
        if match:
            job = daemon.get_job(match.group(1))
            if job is None:
                self._send(404, {"error": f"unknown job {match.group(1)!r}"})
                return
            if match.group(2):  # /result
                state = daemon.effective_state(job)
                if state != "done":
                    self._send(
                        409,
                        {"error": "job not finished", "state": state},
                    )
                    return
                result = daemon.result_for(job)
                if result is None:
                    self._send(
                        410,
                        {
                            "error": "result evicted; resubmit (cells "
                            "replay from the persistent cache)"
                        },
                    )
                    return
                self._send_raw(200, result)
                return
            self._send(200, daemon.job_dict(job))
            return
        self._send(404, {"error": f"no route for GET {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        daemon = self.daemon
        if self.path == "/v1/drain":
            daemon.drain()
            self._send(202, {"draining": True})
            return
        if self.path == "/v1/plans":
            try:
                data = self._read_json()
            except JobValidationError as exc:
                self._send(400, {"error": str(exc)})
                return
            status, payload = daemon.plan_submission(
                data, dry_run=bool(data.get("dry_run", False))
            )
            self._send(status, payload)
            return
        if self.path != "/v1/jobs":
            self._send(404, {"error": f"no route for POST {self.path}"})
            return
        try:
            data = self._read_json()
        except JobValidationError as exc:
            self._send(400, {"error": str(exc)})
            return
        job, decision = daemon.submit(data)
        if job is None:
            self._send(
                decision.status,
                {"error": decision.reason or "rejected"},
                retry_after=decision.retry_after,
            )
            return
        self._send(
            202,
            {
                "job": daemon.job_dict(job),
                "coalesced": decision.reason == "coalesced",
            },
        )

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        match = _JOB_PATH.match(self.path)
        if match and not match.group(2):
            status, reason = self.daemon.cancel(match.group(1))
            self._send(
                status if status != 200 else 200,
                {"status": reason} if status == 200 else {"error": reason},
            )
            return
        self._send(404, {"error": f"no route for DELETE {self.path}"})


# ----------------------------------------------------------------------
# Client helpers (CLI, tests, smoke scripts)
# ----------------------------------------------------------------------


def http_json(
    url: str,
    method: str = "GET",
    payload: Optional[Dict[str, object]] = None,
    timeout: float = 10.0,
) -> Tuple[int, Dict[str, str], object]:
    """One JSON round trip; returns ``(status, headers, parsed_body)``.

    HTTP error statuses are returned, not raised, so callers can read
    ``Retry-After`` and the error body.
    """
    data = (
        json.dumps(payload).encode("utf-8") if payload is not None else None
    )
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status = response.status
            headers = dict(response.headers.items())
            body = response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        status = exc.code
        headers = dict(exc.headers.items()) if exc.headers else {}
        body = exc.read().decode("utf-8")
    try:
        parsed: object = json.loads(body)
    except ValueError:
        parsed = body
    return status, headers, parsed


def submit_job(
    base_url: str,
    algorithms: Sequence[str],
    graphs: Sequence[str],
    timeout: float = 10.0,
) -> Tuple[int, Dict[str, str], object]:
    """POST one job; returns the raw ``(status, headers, body)`` triple."""
    return http_json(
        f"{base_url}/v1/jobs",
        method="POST",
        payload={"algorithms": list(algorithms), "graphs": list(graphs)},
        timeout=timeout,
    )


def submit_plan(
    base_url: str,
    yaml_text: Optional[str] = None,
    spec: Optional[Dict[str, object]] = None,
    dry_run: bool = False,
    timeout: float = 10.0,
) -> Tuple[int, Dict[str, str], object]:
    """POST one declarative plan; ``(status, headers, body)`` triple."""
    payload: Dict[str, object] = {"dry_run": dry_run}
    if yaml_text is not None:
        payload["yaml"] = yaml_text
    if spec is not None:
        payload["spec"] = spec
    return http_json(
        f"{base_url}/v1/plans",
        method="POST",
        payload=payload,
        timeout=timeout,
    )


def wait_for_job(
    base_url: str,
    job_id: str,
    timeout: float = 60.0,
    poll: float = 0.1,
) -> Dict[str, object]:
    """Poll one job until it reaches a terminal state; returns its dict."""
    deadline = time.monotonic() + timeout
    while True:
        status, _, body = http_json(f"{base_url}/v1/jobs/{job_id}")
        if status == 200 and isinstance(body, dict):
            if body.get("state") in _TERMINAL_STATES:
                return body
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"job {job_id} did not finish within {timeout}s "
                f"(last status {status}: {body})"
            )
        time.sleep(poll)


def fetch_result(
    base_url: str, job_id: str, timeout: float = 10.0
) -> Tuple[int, str]:
    """GET a job's canonical reports JSON; returns ``(status, text)``."""
    status, _, body = http_json(
        f"{base_url}/v1/jobs/{job_id}/result", timeout=timeout
    )
    if isinstance(body, str):
        return status, body
    return status, json.dumps(body, sort_keys=True)
