"""Resilience policy objects of the run service.

The evaluation matrix is dominated by data-dependent irregularity: cell
cost varies by orders of magnitude across (algorithm, graph) pairs, so
long-tail cells, hung workers, dead ``ProcessPoolExecutor`` children and
half-written cache files are the norm at scale, not the exception.
:class:`~repro.harness.service.RunService` survives them under the
policies defined here:

* **Bounded retries with exponential backoff + deterministic jitter**
  (:class:`RetryPolicy`): transient failures — injected faults, worker
  death, ``BrokenProcessPool``, cache I/O errors, per-cell timeouts —
  are retried up to ``max_attempts`` times.  Jitter is derived from a
  hash of the cell key and attempt number, never from global RNG state,
  so a retried matrix is exactly reproducible.
* **Per-attempt deadlines** (``RetryPolicy.timeout``): the deadline
  counts from the start of the attempt, in every executor tier.  A
  timed-out attempt is abandoned (``CellTimeoutError`` is transient, so
  the cell is retried); a genuinely wedged attempt can only be
  *abandoned*, not killed — the CI ``pytest-timeout`` ceiling is the
  backstop of last resort.
* **Checkpoint / resume** (:class:`RunManifest`): an append-only journal
  of completed cells.  ``repro matrix --checkpoint m.jsonl`` records
  progress; after a mid-flight kill, ``repro matrix --resume m.jsonl``
  re-executes only the unfinished cells (finished ones replay from the
  persistent result cache).

Executor degradation (process → thread → serial when a pool breaks) and
deterministic fault injection (:mod:`repro.harness.faults`) are wired in
the service itself.  All recovery actions are visible in
``RunService.stats`` (``retries`` / ``timeouts`` / ``degradations`` /
``store_failures``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .faults import FaultError
from .journal import advisory_lock, locked_append_line

__all__ = [
    "CellTimeoutError",
    "MANIFEST_SCHEMA",
    "ResilienceWarning",
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
        for line in lines[1:]:
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn tail line from a kill mid-append
            try:
                algorithm, graph_key = entry["cell"]
            except (KeyError, TypeError):
                # Not a cell entry, e.g. a ``{"shard_of": ...}`` progress
                # line that older versions appended; skipped.
                continue
            completed[cls._key(algorithm, graph_key)] = entry.get("cache_key")
        return cls(path, header["algorithms"], header["graph_keys"], completed)

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

    def is_completed(self, algorithm: str, graph_key: str) -> bool:
        return self._key(algorithm, graph_key) in self.completed

    def remaining(
        self, pairs: Sequence[Tuple[str, str]]
    ) -> List[Tuple[str, str]]:
        return [
            (a, g) for a, g in pairs if self._key(a, g) not in self.completed
        ]

