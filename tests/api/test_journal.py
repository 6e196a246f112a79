"""Journal: the crash-tolerant file under sweep resume and daemon restart.

One contract, checked against both header kinds and each caller's own
replay rule (the sweep's :func:`replayable_records`, the daemon's
:meth:`VerificationService._preloadable`): appended records load back,
torn tails and garbage lines are skipped, the last clean record per key
wins, error records are appended but never replayed, and a header
mismatch truncates the file to the new header.
"""

import json
import logging
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api.journal import (
    SWEEP_JOURNAL_MAGIC,
    Journal,
    JournalRecord,
    replayable_records,
    sweep_digest,
)
from repro.api.report import TaskResult
from repro.service.registry import SERVICE_JOURNAL_MAGIC
from repro.service.server import VerificationService


def _payload(tag, error=""):
    return TaskResult(task_id=f"task-{tag}", protocol="cc85a",
                      engine="explicit", error=error).to_dict()


class SweepKind:
    """Records keyed by input index; replayed by the sweep runner."""

    magic = SWEEP_JOURNAL_MAGIC
    identity = {"digest": "d1", "version": "v1"}

    @staticmethod
    def record(key, tag, error=""):
        return JournalRecord(index=key, key=f"task-{key}",
                             result=_payload(tag, error),
                             attempts=tag + 1).to_dict()

    @staticmethod
    def expect(record):
        return record["index"], record

    @staticmethod
    def replay(lines):
        return {index: record.to_dict()
                for index, record in replayable_records(lines).items()}


class ServiceKind:
    """Records keyed by dedup key; preloaded by a restarted daemon."""

    magic = SERVICE_JOURNAL_MAGIC
    identity = {"version": "v1"}

    @staticmethod
    def record(key, tag, error=""):
        return {"key": f"k{key}", "task": f"task-{key}",
                "result": _payload(tag, error)}

    @staticmethod
    def expect(record):
        return record["key"], record["result"]

    @staticmethod
    def replay(lines):
        return VerificationService._preloadable(lines)


def _journal(kind, path, **override):
    return Journal(path, override.pop("magic", kind.magic),
                   **{**kind.identity, **override})


KINDS = pytest.mark.parametrize("kind", [SweepKind, ServiceKind],
                                ids=["sweep", "service"])

#: Lines a crash or a stray editor can leave behind; none is a record.
GARBAGE = st.sampled_from([
    "not json at all",
    "[1, 2]",
    "42",
    "{}",
    '{"index": "x", "key": "k", "result": {}}',
    '{"key": "k9", "task": "t", "result": "not a dict"}',
])


def _append_all(kind, path, records):
    journal = _journal(kind, path)
    assert journal.load() == []
    for record in records:
        journal.append(record)
    journal.close()


class TestContract:
    @KINDS
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                     max_size=10),
        garbage=st.lists(GARBAGE, max_size=3),
        torn=st.booleans(),
        mismatch=st.sampled_from(["magic", "digest", "version"]),
    )
    def test_journal_contract(self, kind, ops, garbage, torn, mismatch):
        with tempfile.TemporaryDirectory() as workdir:
            path = Path(workdir) / "journal.jsonl"
            records = [
                kind.record(key, tag, "OSError: disk" if failed else "")
                for tag, (key, failed) in enumerate(ops)
            ]
            _append_all(kind, path, records)

            # Every record is on disk, error records included (the
            # diagnostic trail), after the header line.
            lines = path.read_text().splitlines()
            assert json.loads(lines[0]) == {
                "magic": kind.magic, "format": 1, **kind.identity}
            assert [json.loads(line) for line in lines[1:]] == records

            with open(path, "a", encoding="utf-8") as handle:
                for line in garbage:
                    handle.write(line + "\n")
                if torn and records:
                    handle.write(json.dumps(records[0])[:-7])  # died here

            # Round trip: the last clean record per key, nothing else.
            expected = dict(kind.expect(record) for record in records
                            if not record["result"]["error"])
            journal = _journal(kind, path)
            assert kind.replay(journal.load()) == expected
            journal.close()

            # Any other header (another sweep, code version or journal
            # kind, or one extra field) truncates the file to it.
            stale = _journal(kind, path, **{mismatch: "other"})
            assert stale.load() == []
            stale.close()
            assert path.read_text() == \
                json.dumps(stale.header, sort_keys=True) + "\n"

    @KINDS
    def test_appends_after_resume_extend_the_file(self, kind, tmp_path):
        path = tmp_path / "journal.jsonl"
        _append_all(kind, path, [kind.record(0, 0)])
        journal = _journal(kind, path)
        assert len(journal.load()) == 1
        journal.append(kind.record(1, 1))
        # Flushed per record: a process killed now loses nothing.
        assert len(path.read_text().splitlines()) == 3
        journal.close()
        replayed = kind.replay(_journal(kind, path).load())
        assert len(replayed) == 2

    @KINDS
    @pytest.mark.parametrize("foreign", ["garbage", "next-format"])
    def test_foreign_file_is_rewritten_fresh(self, kind, tmp_path, foreign):
        path = tmp_path / "journal.jsonl"
        journal = _journal(kind, path)
        first = ("not a journal at all" if foreign == "garbage"
                 else json.dumps({**journal.header, "format": 2}))
        path.write_text(first + "\n")
        assert journal.load() == []
        journal.append(kind.record(0, 0))
        journal.close()
        assert len(kind.replay(_journal(kind, path).load())) == 1

    def test_load_without_resume_truncates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _append_all(SweepKind, path, [SweepKind.record(0, 0)])
        journal = _journal(SweepKind, path)
        assert journal.load(resume=False) == []
        journal.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1  # header only; old records gone
        assert json.loads(lines[0])["magic"] == "repro-sweep-journal"


class TestFailuresAreLogged:
    """Journaling is best-effort, but never silently so."""

    def _events(self, caplog):
        return [record.event for record in caplog.records]

    @pytest.mark.parametrize("resume", [False, True])
    def test_unwritable_path_degrades_to_noop(self, tmp_path, caplog,
                                              resume):
        journal = _journal(SweepKind, tmp_path)  # a dir!
        with caplog.at_level(logging.WARNING, logger="repro.api.journal"):
            assert journal.load(resume=resume) == []
            journal.append(SweepKind.record(0, 0))  # must not raise
            journal.close()
        expected = ["journal.open_error"]
        if resume:
            expected.insert(0, "journal.read_error")
        assert self._events(caplog) == expected
        for record in caplog.records:
            assert record.levelno == logging.WARNING
            assert record.name == "repro.api.journal"
            assert record.journal == str(tmp_path)
            assert record.magic == SWEEP_JOURNAL_MAGIC
            assert "IsADirectoryError" in record.error

    def test_append_and_close_failures_warn(self, tmp_path, caplog):
        class FullDisk:
            def write(self, _text):
                raise OSError(28, "No space left on device")

            flush = write

            def close(self):
                raise OSError(5, "Input/output error")

        journal = _journal(ServiceKind, tmp_path / "j.jsonl")
        journal.load()
        journal._handle.close()
        journal._handle = FullDisk()
        with caplog.at_level(logging.WARNING, logger="repro.api.journal"):
            journal.append(ServiceKind.record(0, 0))
            journal.close()
            journal.close()  # idempotent: nothing left to close
        assert self._events(caplog) == ["journal.append_error",
                                        "journal.close_error"]
        assert "No space left" in caplog.records[0].error
        assert caplog.records[1].magic == SERVICE_JOURNAL_MAGIC


class TestSweepDigest:
    TASKS = [
        api.VerificationTask(protocol="ks16", targets=("validity",)),
        api.VerificationTask(protocol="cc85a", targets=("validity",)),
    ]

    def test_same_sweep_same_digest(self):
        assert sweep_digest(self.TASKS, "v1") == sweep_digest(self.TASKS, "v1")

    def test_task_list_order_and_membership_matter(self):
        reordered = list(reversed(self.TASKS))
        assert sweep_digest(self.TASKS, "v1") != sweep_digest(reordered, "v1")
        assert sweep_digest(self.TASKS, "v1") != \
            sweep_digest(self.TASKS[:1], "v1")

    def test_limits_and_version_matter(self):
        budgeted = [
            api.VerificationTask(protocol="ks16", targets=("validity",),
                                 limits=api.Limits(max_states=100)),
            self.TASKS[1],
        ]
        assert sweep_digest(self.TASKS, "v1") != sweep_digest(budgeted, "v1")
        assert sweep_digest(self.TASKS, "v1") != sweep_digest(self.TASKS, "v2")
