"""Durable write-ahead job journal for the simulation daemon.

The daemon (:mod:`repro.harness.serve`) must survive ``kill -9`` with no
lost work and no duplicated work.  The trick is the same one
:class:`~repro.harness.resilience.RunManifest` uses for sweeps, promoted
to a first-class write-ahead log:

* every job state transition is **appended before it is acted on**
  (``submit`` before enqueue, ``start`` before execution, ``done`` /
  ``fail`` / ``cancel`` after finalization), each line flushed and
  fsync'd, so the journal is never behind reality by more than one
  in-flight transition;
* the journal is **torn-tail tolerant**: a line half-written at the
  moment of a kill is skipped on load, and every complete line is
  self-contained JSON;
* appends are guarded by an **advisory ``fcntl.flock``**, so a daemon
  worker and a concurrent CLI process can share one journal without
  interleaving partial lines;
* the journal is **advisory about results**: cell results live in the
  content-addressed persistent cache, so replaying a ``submit``/
  ``start`` with no ``done`` merely re-executes the job — finished
  cells replay from the cache and the re-run is byte-identical.

``JobJournal.replay`` folds the event stream into the last-known state
of every job, which is exactly what the daemon needs at startup to
resume interrupted work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import time
from typing import Dict, Iterator, List, Optional, Tuple

try:  # POSIX only; journal locking degrades to best-effort elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "JOURNAL_SCHEMA",
    "JobJournal",
    "JobRecord",
    "JournalError",
    "advisory_lock",
]

JOURNAL_SCHEMA = 1

#: Job states a journal replay can produce.  ``submitted`` and
#: ``started`` are the non-terminal states the daemon re-enqueues.
_TERMINAL = ("done", "failed", "cancelled", "shed")


class JournalError(RuntimeError):
    """The journal file is unusable (bad header, exhausted retries)."""


@contextlib.contextmanager
def advisory_lock(handle) -> Iterator[None]:
    """Hold an exclusive advisory ``flock`` on ``handle`` for the block.

    Advisory locks serialize *cooperating* writers (daemon workers, a
    CLI ``--resume``, tests) without affecting readers; on platforms
    without :mod:`fcntl` the lock degrades to a no-op, which matches the
    historical (unlocked) behaviour.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platform
        yield
        return
    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    try:
        yield
    finally:
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def locked_append_line(path: str, text: str) -> None:
    """Append one ``\\n``-terminated line under the advisory lock.

    Flush + fsync before releasing the lock: once this returns, the line
    survives a ``kill -9`` of the writer; if the writer dies *inside*
    the call, the worst case is a torn tail line, which every reader in
    this package skips.
    """
    with open(path, "a") as handle:
        with advisory_lock(handle):
            handle.write(text + "\n")
            handle.flush()
            os.fsync(handle.fileno())


@dataclasses.dataclass
class JobRecord:
    """The folded (last-known) state of one journaled job."""

    job_id: str
    seq: int
    spec: Dict[str, object]
    job_key: str = ""
    coalesced_with: Optional[str] = None
    state: str = "submitted"
    error: Optional[str] = None
    result_digest: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    @property
    def unfinished(self) -> bool:
        """True when the daemon must re-enqueue this job at startup."""
        return not self.terminal


class JobJournal:
    """Append-only JSONL write-ahead log of daemon job lifecycles.

    Line 1 is a schema header; every following line is one event::

        {"kind": "repro-job-journal", "schema": 1}
        {"event": "submit", "id": "j000001-ab12cd34", "seq": 1, ...}
        {"event": "start", "id": "j000001-ab12cd34"}
        {"event": "done", "id": "j000001-ab12cd34", "result_digest": "..."}

    Args:
        path: journal file; created (with header) when absent.
        faults: optional :class:`~repro.harness.faults.FaultInjector`
            whose ``on_journal`` hook can fail appends deterministically
            (the ``flaky-journal`` spec).
        max_attempts: bounded retries per append before
            :class:`JournalError` is raised; journal loss must be loud,
            never silent.
    """

    def __init__(
        self,
        path: str,
        faults=None,
        max_attempts: int = 3,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.path = path
        self.faults = faults
        self.max_attempts = max_attempts
        self.append_retries = 0
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            header = {"kind": "repro-job-journal", "schema": JOURNAL_SCHEMA}
            locked_append_line(path, json.dumps(header, sort_keys=True))

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, event: Dict[str, object]) -> None:
        """Durably append one event (bounded retries, then loud failure)."""
        text = json.dumps(event, sort_keys=True)
        token = f"{event.get('event')}:{event.get('id', '')}"
        attempt = 0
        while True:
            attempt += 1
            try:
                if self.faults is not None:
                    self.faults.on_journal(token, attempt)
                locked_append_line(self.path, text)
                return
            except OSError as exc:
                if attempt >= self.max_attempts:
                    raise JournalError(
                        f"journal append to {self.path} failed after "
                        f"{attempt} attempts: {exc!r}"
                    ) from exc
                self.append_retries += 1

    def submit(
        self,
        job_id: str,
        seq: int,
        spec: Dict[str, object],
        job_key: str,
        coalesced_with: Optional[str] = None,
    ) -> None:
        self.append(
            {
                "event": "submit",
                "id": job_id,
                "seq": seq,
                "spec": spec,
                "job_key": job_key,
                "coalesced_with": coalesced_with,
            }
        )

    def start(self, job_id: str) -> None:
        self.append({"event": "start", "id": job_id})

    def done(self, job_id: str, result_digest: Optional[str] = None) -> None:
        self.append(
            {"event": "done", "id": job_id, "result_digest": result_digest}
        )

    def fail(self, job_id: str, error: str) -> None:
        self.append({"event": "fail", "id": job_id, "error": error})

    def cancel(self, job_id: str, reason: str = "cancelled") -> None:
        self.append({"event": "cancel", "id": job_id, "reason": reason})

    def resume(self, job_id: str) -> None:
        self.append({"event": "resume", "id": job_id})

    def plan(
        self,
        spec_name: str,
        spec_digest: str,
        cells: int,
        cached: int,
        pending: int,
        job_ids: List[str],
    ) -> None:
        """Record one planned submission (audit trail, not job state).

        The event carries no ``id`` on purpose: :meth:`replay` folds
        only per-job events, so plans are invisible to recovery — the
        fanned-out jobs each have their own ``submit`` lines and resume
        individually.
        """
        self.append(
            {
                "event": "plan",
                "spec_name": spec_name,
                "spec_digest": spec_digest,
                "cells": cells,
                "cached": cached,
                "pending": pending,
                "jobs": list(job_ids),
            }
        )

    def shutdown(self) -> None:
        self.append({"event": "shutdown", "at": time.time()})

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @classmethod
    def replay(cls, path: str) -> Tuple[Dict[str, JobRecord], int]:
        """Fold the journal into per-job last-known states.

        Returns ``(records, max_seq)``; ``records`` preserves submission
        order (dicts are insertion-ordered).  Tolerates a torn tail and
        skips any undecodable line, mirroring
        :meth:`~repro.harness.resilience.RunManifest.load`.
        """
        with open(path) as handle:
            lines = handle.read().splitlines()
        if not lines:
            raise JournalError(f"journal {path} is empty")
        header = _parse_line(lines[0])
        if (
            header is None
            or header.get("kind") != "repro-job-journal"
            or header.get("schema") != JOURNAL_SCHEMA
        ):
            raise JournalError(
                f"{path} is not a schema-{JOURNAL_SCHEMA} job journal"
            )
        records: Dict[str, JobRecord] = {}
        max_seq = 0
        for line in lines[1:]:
            event = _parse_line(line)
            if event is None:
                continue  # torn tail from a kill mid-append
            kind = event.get("event")
            job_id = event.get("id")
            if kind == "submit" and isinstance(job_id, str):
                try:
                    seq = int(event["seq"])
                    spec = dict(event["spec"])
                except (KeyError, TypeError, ValueError):
                    continue
                max_seq = max(max_seq, seq)
                # Journals written by older daemons also carry
                # "priority" and "client" keys; they are ignored.
                records[job_id] = JobRecord(
                    job_id=job_id,
                    seq=seq,
                    spec=spec,
                    job_key=str(event.get("job_key", "")),
                    coalesced_with=event.get("coalesced_with"),
                )
            elif isinstance(job_id, str) and job_id in records:
                record = records[job_id]
                if kind == "start":
                    record.state = "started"
                elif kind == "done":
                    record.state = "done"
                    record.result_digest = event.get("result_digest")
                elif kind == "fail":
                    record.state = "failed"
                    record.error = str(event.get("error", ""))
                elif kind == "cancel":
                    reason = str(event.get("reason", "cancelled"))
                    record.state = "shed" if reason == "shed" else "cancelled"
                # "resume" leaves the folded state untouched: the job is
                # back in "submitted"/"started", both of which re-enqueue.
        return records, max_seq

    def unfinished(self) -> List[JobRecord]:
        """Jobs the daemon must pick back up, in submission order."""
        records, _ = self.replay(self.path)
        return [r for r in records.values() if r.unfinished]


def _parse_line(line: str) -> Optional[Dict[str, object]]:
    try:
        parsed = json.loads(line)
    except ValueError:
        return None
    return parsed if isinstance(parsed, dict) else None
