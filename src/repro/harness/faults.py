"""Deterministic fault injection for the run service.

Graph workloads are dominated by data-dependent irregularity, so a
production evaluation matrix must expect stragglers, dead workers, and
half-written cache entries as the norm rather than the exception.  This
module provides the *controlled* versions of those failures, so the
run service's resilience policy can be driven through
every recovery path by an ordinary test:

``FaultSpec``
    One parsed fault directive, e.g. ``crash:2`` ("the 2nd executed cell
    raises on its first attempt"), ``hang:1:0.5`` ("the 1st cell sleeps
    0.5 s before computing"), ``kill:1`` ("the worker process running
    the 1st cell dies with ``os._exit``"), ``flaky-store:1:2`` ("the 1st
    stored entry fails its first two write attempts"), or
    ``corrupt-cache:1`` ("the 1st stored entry is truncated on disk
    after a successful write").

``FaultInjector``
    Stateful dispatcher of those specs.  Cells are numbered 1..N in
    first-execution order and store targets in first-store order, and
    each spec fires exactly once (``crash``/``hang`` fail the first
    ``count`` attempts of their cell, then let it succeed), so a retry
    loop converges deterministically.

``CellFaultPlan``
    The picklable per-cell slice of an injector, handed to
    ``ProcessPoolExecutor`` workers so faults fire *inside* the worker
    even though the injector's counters live in the parent.  It has the
    injector's ``on_cell_start`` hook, so the worker's service takes it
    in place of the whole injector.

The daemon (:mod:`repro.harness.serve`) adds three daemon-level kinds:
``kill-daemon:N`` (the *host* process dies with ``os._exit`` when the
Nth cell starts — a deterministic stand-in for ``kill -9`` mid-matrix),
``flaky-journal:N:C`` (the Nth distinct journal append fails its first
C attempts), and ``queue-overflow:N:C`` (submissions N..N+C-1 are
force-rejected as if the queue were full, driving the backpressure
path without needing a real burst).

Every injected error type is a subclass of :class:`FaultError` (or
:class:`FlakyStoreError`/:class:`FlakyJournalError`, which are
``OSError`` so the store/journal paths treat them exactly like real
disk failures).
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "CellFaultPlan",
    "FaultError",
    "FaultInjector",
    "FaultSpec",
    "FlakyJournalError",
    "FlakyStoreError",
    "InjectedCrashError",
]


class FaultError(RuntimeError):
    """Base class of injected cell-execution faults."""


class InjectedCrashError(FaultError):
    """An injected, transient cell crash (stands in for worker death)."""


class FlakyStoreError(OSError):
    """An injected persistent-cache write failure."""


class FlakyJournalError(OSError):
    """An injected job-journal append failure."""


_KINDS = (
    "crash",
    "hang",
    "kill",
    "kill-daemon",
    "flaky-store",
    "corrupt-cache",
    "flaky-journal",
    "queue-overflow",
)
_CELL_KINDS = ("crash", "hang", "kill", "kill-daemon")
_STORE_KINDS = ("flaky-store", "corrupt-cache")


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One parsed fault directive.

    Attributes:
        kind: one of ``crash``, ``hang``, ``kill`` (cell faults, indexed
            by execution order) or ``flaky-store``, ``corrupt-cache``
            (store faults, indexed by store order).
        target: 1-based index of the targeted cell / store.
        count: how many leading attempts fail (``crash``/``hang``/
            ``flaky-store``); a count larger than the retry budget makes
            the fault effectively permanent, which is how tests simulate
            a mid-sweep kill.
        seconds: sleep duration of a ``hang``.
    """

    kind: str
    target: int = 1
    count: int = 1
    seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.target < 1:
            raise ValueError("fault target index is 1-based")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``kind[:target[:count_or_seconds]]`` CLI syntax.

        ``crash:2:3`` — cell 2 crashes on attempts 1-3;
        ``hang:1:0.5`` — cell 1 sleeps 0.5 s on its first attempt;
        ``flaky-store:1:2`` — store 1 fails its first two writes;
        ``kill:3`` — the worker process executing cell 3 dies.
        """
        parts = text.strip().split(":")
        kind = parts[0]
        if kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {_KINDS}"
            )
        target = int(parts[1]) if len(parts) > 1 and parts[1] else 1
        count, seconds = 1, 0.25
        if len(parts) > 2 and parts[2]:
            if kind == "hang":
                seconds = float(parts[2])
            else:
                count = int(parts[2])
        if len(parts) > 3:
            raise ValueError(f"too many ':' fields in fault spec {text!r}")
        return cls(kind=kind, target=target, count=count, seconds=seconds)


@dataclasses.dataclass(frozen=True)
class CellFaultPlan:
    """The picklable fault schedule of one cell.

    ``fire`` is called at the start of every attempt (in-process or
    inside a pool worker); attempts are 1-based.  ``kill`` only fires
    with ``in_worker=True`` — dying takes a process of one's own, and a
    cell degraded back into the parent must not take the parent down.
    """

    crash_attempts: int = 0
    hang_attempts: int = 0
    hang_seconds: float = 0.0
    kill: bool = False
    #: ``kill-daemon``: the *host* process dies, worker or not — the
    #: deterministic stand-in for ``kill -9`` of the serving daemon
    #: mid-matrix (crash-resume tests restart it and assert identity).
    kill_host: bool = False

    def __bool__(self) -> bool:
        return bool(
            self.crash_attempts
            or self.hang_attempts
            or self.kill
            or self.kill_host
        )

    def on_cell_start(
        self, algorithm: str, graph_key: str, attempt: int
    ) -> None:
        """Injector hook of a worker-side service, whose only cell this is."""
        self.fire(attempt, in_worker=True)

    def fire(self, attempt: int, in_worker: bool = False) -> None:
        if self.kill_host and attempt == 1:
            os._exit(86)  # the whole process dies, exactly like kill -9
        if self.kill and in_worker and attempt == 1:
            os._exit(86)  # hard worker death: parent sees BrokenProcessPool
        if attempt <= self.hang_attempts:
            time.sleep(self.hang_seconds)
        if attempt <= self.crash_attempts:
            raise InjectedCrashError(
                f"injected crash (attempt {attempt}/{self.crash_attempts})"
            )


class FaultInjector:
    """Deterministic dispatcher of :class:`FaultSpec` directives.

    Thread-safe; cell indices are assigned in first-execution order and
    store indices in first-store order, so a given (matrix, spec list)
    always produces the same fault schedule under serial execution, and
    under parallel execution always injects the same *set* of faults
    (only the identity of "the Nth started cell" can vary).
    """

    def __init__(
        self, specs: Sequence[Union[FaultSpec, str]] = ()
    ) -> None:
        self.specs: List[FaultSpec] = [
            spec if isinstance(spec, FaultSpec) else FaultSpec.parse(spec)
            for spec in specs
        ]
        self.fired = 0  # injected events (crash/hang/kill/store faults)
        self._lock = threading.Lock()
        self._cell_index: Dict[Tuple[str, str], int] = {}
        self._plans: Dict[Tuple[str, str], CellFaultPlan] = {}
        self._store_index: Dict[str, int] = {}
        self._store_attempts: Dict[str, int] = {}
        self._journal_index: Dict[str, int] = {}
        self._admit_count = 0
        self._consumed: set = set()

    # ------------------------------------------------------------------
    # Cell faults
    # ------------------------------------------------------------------
    def plan_for(self, algorithm: str, graph_key: str) -> CellFaultPlan:
        """The (memoized) fault plan of one cell; consumes its specs."""
        key = (algorithm.upper(), graph_key)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                return plan
            index = self._cell_index.setdefault(
                key, len(self._cell_index) + 1
            )
            crash = hang = 0
            seconds = 0.0
            kill = kill_host = False
            for i, spec in enumerate(self.specs):
                if spec.kind not in _CELL_KINDS or spec.target != index:
                    continue
                if i in self._consumed:
                    continue
                self._consumed.add(i)
                if spec.kind == "crash":
                    crash = max(crash, spec.count)
                elif spec.kind == "hang":
                    hang = max(hang, spec.count)
                    seconds = max(seconds, spec.seconds)
                elif spec.kind == "kill":
                    kill = True
                elif spec.kind == "kill-daemon":
                    kill_host = True
            plan = CellFaultPlan(
                crash_attempts=crash,
                hang_attempts=hang,
                hang_seconds=seconds,
                kill=kill,
                kill_host=kill_host,
            )
            self._plans[key] = plan
            if plan:
                self.fired += 1
            return plan

    def on_cell_start(
        self, algorithm: str, graph_key: str, attempt: int
    ) -> None:
        """In-process hook: fire this cell's plan for one attempt."""
        self.plan_for(algorithm, graph_key).fire(attempt)

    # ------------------------------------------------------------------
    # Store faults
    # ------------------------------------------------------------------
    def _store_state(self, path: str) -> Tuple[int, int]:
        with self._lock:
            index = self._store_index.setdefault(
                path, len(self._store_index) + 1
            )
            attempt = self._store_attempts.get(path, 0) + 1
            self._store_attempts[path] = attempt
            return index, attempt

    def on_store(self, path: str) -> None:
        """Before-write hook; raises :class:`FlakyStoreError` to fail it."""
        index, attempt = self._store_state(path)
        for spec in self.specs:
            if (
                spec.kind == "flaky-store"
                and spec.target == index
                and attempt <= spec.count
            ):
                with self._lock:
                    self.fired += 1
                raise FlakyStoreError(
                    f"injected store failure (attempt {attempt}/{spec.count})"
                )

    def after_store(self, path: str) -> None:
        """After-write hook; truncates the entry for ``corrupt-cache``."""
        with self._lock:
            index = self._store_index.get(path)
        for i, spec in enumerate(self.specs):
            if spec.kind != "corrupt-cache" or spec.target != index:
                continue
            with self._lock:
                if i in self._consumed:
                    continue
                self._consumed.add(i)
                self.fired += 1
            with open(path, "r+") as handle:
                text = handle.read()
                handle.seek(0)
                handle.truncate()
                handle.write(text[: max(1, len(text) // 2)])

    # ------------------------------------------------------------------
    # Daemon faults
    # ------------------------------------------------------------------
    def on_journal(self, token: str, attempt: int) -> None:
        """Journal-append hook: ``flaky-journal:N:C`` fails the Nth
        distinct append (keyed by its event token) for C attempts."""
        with self._lock:
            index = self._journal_index.setdefault(
                token, len(self._journal_index) + 1
            )
        for spec in self.specs:
            if (
                spec.kind == "flaky-journal"
                and spec.target == index
                and attempt <= spec.count
            ):
                with self._lock:
                    self.fired += 1
                raise FlakyJournalError(
                    f"injected journal failure for {token!r} "
                    f"(attempt {attempt}/{spec.count})"
                )

    def on_admit(self) -> bool:
        """Submission hook: True when ``queue-overflow`` forces a 503.

        Submissions are numbered 1..N in arrival order; a spec
        ``queue-overflow:N:C`` rejects submissions N..N+C-1.
        """
        with self._lock:
            self._admit_count += 1
            index = self._admit_count
        for spec in self.specs:
            if (
                spec.kind == "queue-overflow"
                and spec.target <= index < spec.target + spec.count
            ):
                with self._lock:
                    self.fired += 1
                return True
        return False

    # ------------------------------------------------------------------
    @property
    def store_faults(self) -> bool:
        return any(spec.kind in _STORE_KINDS for spec in self.specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector({self.specs!r}, fired={self.fired})"


def build_injector(
    specs: Sequence[str],
) -> Optional[FaultInjector]:
    """An injector for the CLI's repeated ``--inject`` flags (or None)."""
    if not specs:
        return None
    return FaultInjector([FaultSpec.parse(s) for s in specs])
