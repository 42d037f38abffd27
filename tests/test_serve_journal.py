"""The write-ahead job journal: durability, torn tails, flock, faults."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.harness.faults import FaultInjector
from repro.harness.journal import (
    JobJournal,
    JournalError,
    locked_append_line,
)
from repro.harness.resilience import RunManifest

SPEC = {"algorithms": ["BFS"], "graphs": ["FR"]}


@pytest.fixture()
def journal(tmp_path):
    return JobJournal(str(tmp_path / "jobs.jsonl"))


# ----------------------------------------------------------------------
# Lifecycle folding
# ----------------------------------------------------------------------


class TestReplay:
    def test_header_written_on_create(self, journal):
        with open(journal.path) as handle:
            header = json.loads(handle.readline())
        assert header == {"kind": "repro-job-journal", "schema": 1}

    def test_full_lifecycle_folds_to_done(self, journal):
        journal.submit("j1", 1, SPEC, "k1")
        journal.start("j1")
        journal.done("j1", result_digest="abc123")
        records, max_seq = JobJournal.replay(journal.path)
        assert max_seq == 1
        record = records["j1"]
        assert record.state == "done"
        assert record.terminal
        assert record.result_digest == "abc123"
        assert record.spec == SPEC

    def test_submit_without_done_is_unfinished(self, journal):
        journal.submit("j1", 1, SPEC, "k1")
        journal.submit("j2", 2, SPEC, "k2")
        journal.start("j2")
        unfinished = journal.unfinished()
        assert [r.job_id for r in unfinished] == ["j1", "j2"]
        assert unfinished[1].state == "started"
        assert unfinished[1].seq == 2

    def test_cancel_reasons_fold_to_distinct_states(self, journal):
        journal.submit("j1", 1, SPEC, "k1")
        journal.cancel("j1", reason="shed")
        journal.submit("j2", 2, SPEC, "k2")
        journal.cancel("j2")
        records, _ = JobJournal.replay(journal.path)
        assert records["j1"].state == "shed"
        assert records["j2"].state == "cancelled"

    def test_fail_folds_error(self, journal):
        journal.submit("j1", 1, SPEC, "k1")
        journal.fail("j1", "boom")
        records, _ = JobJournal.replay(journal.path)
        assert records["j1"].state == "failed"
        assert records["j1"].error == "boom"

    def test_coalesced_submission_is_recorded(self, journal):
        journal.submit("j1", 1, SPEC, "k1")
        journal.submit("j2", 2, SPEC, "k1", coalesced_with="j1")
        records, _ = JobJournal.replay(journal.path)
        assert records["j2"].coalesced_with == "j1"

    def test_resume_event_keeps_job_unfinished(self, journal):
        journal.submit("j1", 1, SPEC, "k1")
        journal.start("j1")
        journal.resume("j1")
        assert [r.job_id for r in journal.unfinished()] == ["j1"]


class TestTornTail:
    def test_torn_tail_line_is_skipped(self, journal):
        journal.submit("j1", 1, SPEC, "k1")
        journal.done("j1")
        with open(journal.path, "a") as handle:
            handle.write('{"event": "submit", "id": "j2", "se')  # torn
        records, max_seq = JobJournal.replay(journal.path)
        assert list(records) == ["j1"]
        assert max_seq == 1

    def test_torn_terminal_event_reverts_to_unfinished(self, journal):
        journal.submit("j1", 1, SPEC, "k1")
        with open(journal.path) as handle:
            good = handle.read()
        with open(journal.path, "w") as handle:
            handle.write(good + '{"event": "done", "id": "j1"')  # torn
        assert [r.job_id for r in journal.unfinished()] == ["j1"]

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(JournalError):
            JobJournal.replay(str(path))

    def test_reopen_existing_journal_does_not_rewrite_header(self, journal):
        journal.submit("j1", 1, SPEC, "k1")
        reopened = JobJournal(journal.path)
        reopened.submit("j2", 2, SPEC, "k2")
        records, max_seq = JobJournal.replay(journal.path)
        assert set(records) == {"j1", "j2"}
        assert max_seq == 2


# ----------------------------------------------------------------------
# Injected journal faults
# ----------------------------------------------------------------------


class TestFlakyJournal:
    def test_transient_failure_is_retried(self, tmp_path):
        faults = FaultInjector(["flaky-journal:1:2"])
        journal = JobJournal(str(tmp_path / "j.jsonl"), faults=faults)
        # The header bypasses append(), so the submit event is the first
        # distinct token: it fails twice, is retried, then lands.
        journal.submit("j1", 1, SPEC, "k1")
        assert journal.append_retries == 2
        records, _ = JobJournal.replay(journal.path)
        assert "j1" in records

    def test_exhausted_retries_raise_loudly(self, tmp_path):
        faults = FaultInjector(["flaky-journal:1:99"])
        journal = JobJournal(
            str(tmp_path / "j.jsonl"), faults=faults, max_attempts=3
        )
        with pytest.raises(JournalError, match="after 3 attempts"):
            journal.submit("j1", 1, SPEC, "k1")

    def test_fault_targets_nth_distinct_append(self, tmp_path):
        faults = FaultInjector(["flaky-journal:2:1"])
        journal = JobJournal(str(tmp_path / "j.jsonl"), faults=faults)
        journal.submit("j1", 1, SPEC, "k1")  # token 1: clean
        assert journal.append_retries == 0
        journal.start("j1")  # token 2: fails once, retried
        assert journal.append_retries == 1


# ----------------------------------------------------------------------
# Advisory locking (satellite: RunManifest concurrent writers)
# ----------------------------------------------------------------------

_WRITER = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {src!r})
    from repro.harness.journal import locked_append_line
    path, tag = sys.argv[1], sys.argv[2]
    for i in range(200):
        locked_append_line(path, '{{"writer": "%s", "n": %d}}' % (tag, i))
    """
)


class TestAdvisoryLock:
    def test_concurrent_writers_never_interleave_lines(self, tmp_path):
        """Two processes hammering one journal produce only whole lines."""
        path = str(tmp_path / "shared.jsonl")
        locked_append_line(path, '{"header": true}')
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        script = _WRITER.format(src=os.path.abspath(src))
        procs = [
            subprocess.Popen([sys.executable, "-c", script, path, tag])
            for tag in ("a", "b")
        ]
        for proc in procs:
            assert proc.wait(timeout=60) == 0
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 401  # header + 2 * 200, none torn
        counts = {"a": 0, "b": 0}
        for line in lines[1:]:
            entry = json.loads(line)  # every line parses
            counts[entry["writer"]] += 1
        assert counts == {"a": 200, "b": 200}

    def test_manifest_appends_survive_concurrent_marks(self, tmp_path):
        """RunManifest.mark from two manifests on one file stays parseable."""
        path = str(tmp_path / "manifest.jsonl")
        algorithms, graphs = ["BFS", "CC"], ["FR", "PK"]
        first = RunManifest.start(path, algorithms, graphs)
        second = RunManifest(path, algorithms, graphs)
        first.mark("BFS", "FR", "key1")
        second.mark("CC", "PK", "key2")
        first.mark("BFS", "PK", "key3")
        loaded = RunManifest.load(path)
        assert loaded.completed == {
            ("BFS", "FR"): "key1",
            ("CC", "PK"): "key2",
            ("BFS", "PK"): "key3",
        }
