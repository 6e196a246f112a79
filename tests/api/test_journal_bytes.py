"""Byte freeze of the sweep journal, written through its real caller.

A sweep (:class:`~repro.api.sweep.SweepRunner`) appends one JSON line
per completed task to a journal that a resumed run replays.  The
literal is the exact bytes the sweep writes for two tasks, one of
which failed.  A resumable journal written by one release must load in
the next, so the writer's bytes and the replayed records are both
pinned here:

* writing the two results reproduces the literal byte for byte;
* loading the literal replays the clean record and re-runs the error
  record.

The tasks run on a stub engine with fixed timings, and the code version
is pinned, so nothing in the bytes depends on the machine or the tree.
"""

import json

import pytest

from repro.api import engines
from repro.api.report import ObligationOutcome, TaskResult
from repro.api.sweep import SweepRunner
from repro.api.task import VerificationTask

VERSION = "frozen-version"

SWEEP_JOURNAL = b"""\
{"digest": "28940b149b629553", "format": 1, "magic": "repro-sweep-journal", "version": "frozen-version"}
{"attempts": 1, "index": 0, "key": "cc85a[f=1,n=4,t=1]/validity@stub|max_nodes=None,max_seconds=None,max_states=None", "result": {"cached": false, "engine": "stub", "error": "", "obligations": [{"queries": [], "side_conditions": {}, "skipped_side_conditions": {}, "target": "validity", "time_seconds": 0.0}], "protocol": "cc85a", "task_id": "cc85a[f=1,n=4,t=1]/validity@stub", "time_seconds": 0.0, "valuation": {"f": 1, "n": 4, "t": 1}, "verdict": "holds"}, "timed_out": false}
{"attempts": 1, "index": 1, "key": "ks16[f=1,n=4,t=1]/validity@stub|max_nodes=None,max_seconds=None,max_states=None", "result": {"cached": false, "engine": "stub", "error": "CheckError: stub failure", "obligations": [], "protocol": "ks16", "task_id": "ks16[f=1,n=4,t=1]/validity@stub", "time_seconds": 0.0, "valuation": {"f": 1, "n": 4, "t": 1}, "verdict": "error"}, "timed_out": false}
"""

class StubEngine:
    """Answers instantly: cc85a holds, ks16 fails (deterministically)."""

    name = "stub"
    calls = []

    def run(self, task):
        StubEngine.calls.append(task.protocol)
        if task.protocol == "ks16":
            return TaskResult(
                task_id=task.task_id, protocol=task.protocol,
                engine=task.engine,
                valuation=task.resolved_valuation(strict=False),
                error="CheckError: stub failure",
            )
        return TaskResult(
            task_id=task.task_id, protocol=task.protocol, engine=task.engine,
            valuation=task.resolved_valuation(strict=False),
            obligations=(ObligationOutcome(target="validity"),),
        )


TASKS = [
    VerificationTask(protocol="cc85a", targets=("validity",), engine="stub"),
    VerificationTask(protocol="ks16", targets=("validity",), engine="stub"),
]


@pytest.fixture(autouse=True)
def stub_engine(monkeypatch):
    monkeypatch.setitem(engines.ENGINES, "stub", StubEngine)
    StubEngine.calls = []


def _lines(blob):
    return [json.loads(line) for line in blob.decode().splitlines()]


class TestSweepJournalBytes:
    def _runner(self, cache_dir, resume=False):
        return SweepRunner(cache_dir=str(cache_dir), cache_version=VERSION,
                           resume=resume)

    def test_sweep_writes_the_frozen_bytes(self, tmp_path):
        report = self._runner(tmp_path).run(TASKS)
        assert [r.verdict for r in report.results] == ["holds", "error"]
        written = (tmp_path / SweepRunner.JOURNAL_NAME).read_bytes()
        assert written == SWEEP_JOURNAL

    def test_frozen_bytes_replay_the_clean_record(self, tmp_path):
        (tmp_path / SweepRunner.JOURNAL_NAME).write_bytes(SWEEP_JOURNAL)
        report = self._runner(tmp_path, resume=True).run(TASKS)
        assert report.resumed == 1
        assert StubEngine.calls == ["ks16"]  # the error record re-runs
        records = _lines(SWEEP_JOURNAL)[1:]
        assert report.results[0].to_dict() == records[0]["result"]
        assert report.results[1].to_dict() == records[1]["result"]
