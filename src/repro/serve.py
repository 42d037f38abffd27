"""Public alias of the simulation daemon: ``from repro import serve``.

The implementation lives in :mod:`repro.harness.serve` (next to the run
service it wraps); this module is the stable import surface promised by
the docs and the ``repro serve`` CLI.
"""

from .harness.journal import JobJournal, JobRecord, JournalError
from .harness.serve import (
    DaemonConfig,
    DaemonStats,
    Job,
    JobSpec,
    JobValidationError,
    SimulationDaemon,
    fetch_result,
    http_json,
    submit_job,
    wait_for_job,
)

__all__ = [
    "DaemonConfig",
    "DaemonStats",
    "Job",
    "JobJournal",
    "JobRecord",
    "JobSpec",
    "JobValidationError",
    "JournalError",
    "SimulationDaemon",
    "fetch_result",
    "http_json",
    "submit_job",
    "wait_for_job",
]
