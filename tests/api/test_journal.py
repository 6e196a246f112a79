"""Journal: the crash-tolerant file under sweep resume.

One contract, checked through the sweep's replay rule
(:func:`replayable_records`): appended records load back, torn tails
and garbage lines are skipped, the last clean record per index wins,
error records are appended but never replayed, and a header mismatch
truncates the file to the new header.
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


def _payload(tag, error=""):
    return TaskResult(task_id=f"task-{tag}", protocol="cc85a",
                      engine="explicit", error=error).to_dict()


IDENTITY = {"digest": "d1", "version": "v1"}


def _record(index, tag, error=""):
    return JournalRecord(index=index, key=f"task-{index}",
                         result=_payload(tag, error),
                         attempts=tag + 1).to_dict()


def _replay(lines):
    return {index: record.to_dict()
            for index, record in replayable_records(lines).items()}


def _journal(path, **override):
    identity = {**IDENTITY, **override}
    return Journal(path, identity["digest"], identity["version"])


#: Lines a crash or a stray editor can leave behind; none is a record.
GARBAGE = st.sampled_from([
    "not json at all",
    "[1, 2]",
    "42",
    "{}",
    '{"index": "x", "key": "k", "result": {}}',
    '{"index": 9, "key": "t", "result": "not a dict"}',
])


def _append_all(path, records):
    journal = _journal(path)
    assert journal.load() == []
    for record in records:
        journal.append(record)
    journal.close()


class TestContract:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                     max_size=10),
        garbage=st.lists(GARBAGE, max_size=3),
        torn=st.booleans(),
        mismatch=st.sampled_from(["digest", "version"]),
    )
    def test_journal_contract(self, ops, garbage, torn, mismatch):
        with tempfile.TemporaryDirectory() as workdir:
            path = Path(workdir) / "journal.jsonl"
            records = [
                _record(index, tag, "OSError: disk" if failed else "")
                for tag, (index, failed) in enumerate(ops)
            ]
            _append_all(path, records)

            # Every record is on disk, error records included (the
            # diagnostic trail), after the header line.
            lines = path.read_text().splitlines()
            assert json.loads(lines[0]) == {
                "magic": SWEEP_JOURNAL_MAGIC, "format": 1, **IDENTITY}
            assert [json.loads(line) for line in lines[1:]] == records

            with open(path, "a", encoding="utf-8") as handle:
                for line in garbage:
                    handle.write(line + "\n")
                if torn and records:
                    handle.write(json.dumps(records[0])[:-7])  # died here

            # Round trip: the last clean record per index, nothing else.
            expected = {record["index"]: record for record in records
                        if not record["result"]["error"]}
            journal = _journal(path)
            assert _replay(journal.load()) == expected
            journal.close()

            # Any other header (another sweep or code version) truncates
            # the file to it.
            stale = _journal(path, **{mismatch: "other"})
            assert stale.load() == []
            stale.close()
            assert path.read_text() == \
                json.dumps(stale.header, sort_keys=True) + "\n"

    def test_appends_after_resume_extend_the_file(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _append_all(path, [_record(0, 0)])
        journal = _journal(path)
        assert len(journal.load()) == 1
        journal.append(_record(1, 1))
        # Flushed per record: a process killed now loses nothing.
        assert len(path.read_text().splitlines()) == 3
        journal.close()
        replayed = _replay(_journal(path).load())
        assert len(replayed) == 2

    @pytest.mark.parametrize("foreign",
                             ["garbage", "next-format", "other-magic"])
    def test_foreign_file_is_rewritten_fresh(self, tmp_path, foreign):
        path = tmp_path / "journal.jsonl"
        journal = _journal(path)
        first = {
            "garbage": "not a journal at all",
            "next-format": json.dumps({**journal.header, "format": 2}),
            "other-magic": json.dumps({**journal.header, "magic": "other"}),
        }[foreign]
        path.write_text(first + "\n")
        assert journal.load() == []
        journal.append(_record(0, 0))
        journal.close()
        assert len(_replay(_journal(path).load())) == 1

    def test_load_without_resume_truncates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _append_all(path, [_record(0, 0)])
        journal = _journal(path)
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
        journal = _journal(tmp_path)  # a dir!
        with caplog.at_level(logging.WARNING, logger="repro.api.journal"):
            assert journal.load(resume=resume) == []
            journal.append(_record(0, 0))  # must not raise
            journal.close()
        expected = ["journal.open_error"]
        if resume:
            expected.insert(0, "journal.read_error")
        assert self._events(caplog) == expected
        for record in caplog.records:
            assert record.levelno == logging.WARNING
            assert record.name == "repro.api.journal"
            assert record.journal == str(tmp_path)
            assert "IsADirectoryError" in record.error

    def test_append_and_close_failures_warn(self, tmp_path, caplog):
        class FullDisk:
            def write(self, _text):
                raise OSError(28, "No space left on device")

            flush = write

            def close(self):
                raise OSError(5, "Input/output error")

        journal = _journal(tmp_path / "j.jsonl")
        journal.load()
        journal._handle.close()
        journal._handle = FullDisk()
        with caplog.at_level(logging.WARNING, logger="repro.api.journal"):
            journal.append(_record(0, 0))
            journal.close()
            journal.close()  # idempotent: nothing left to close
        assert self._events(caplog) == ["journal.append_error",
                                        "journal.close_error"]
        assert "No space left" in caplog.records[0].error
        assert caplog.records[1].journal == str(tmp_path / "j.jsonl")


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
