"""Byte freeze of both journal kinds, written through their real callers.

A sweep (:class:`~repro.api.sweep.SweepRunner`) and the verification
daemon (:class:`~repro.service.server.VerificationService`) each append
one JSON line per completed task to a journal that a later run replays.
These literals are the exact bytes each caller writes for two tasks,
one of which failed.  A resumable journal written by one release must
load in the next, so the writer's bytes and the replayed records are
both pinned here:

* writing the two results reproduces the literal byte for byte;
* loading the literal replays the clean record and re-runs (sweep) or
  does not preload (daemon) the error record.

The tasks run on a stub engine with fixed timings, and the code version
is pinned, so nothing in the bytes depends on the machine or the tree.
"""

import json

import pytest

from repro.api import engines
from repro.api.report import ObligationOutcome, TaskResult
from repro.api.sweep import SweepRunner
from repro.api.task import VerificationTask
from repro.service import server
from repro.service.registry import SERVICE_JOURNAL_NAME

VERSION = "frozen-version"

SWEEP_JOURNAL = b"""\
{"digest": "28940b149b629553", "format": 1, "magic": "repro-sweep-journal", "version": "frozen-version"}
{"attempts": 1, "index": 0, "key": "cc85a[f=1,n=4,t=1]/validity@stub|max_nodes=None,max_seconds=None,max_states=None", "result": {"cached": false, "engine": "stub", "error": "", "obligations": [{"queries": [], "side_conditions": {}, "skipped_side_conditions": {}, "target": "validity", "time_seconds": 0.0}], "protocol": "cc85a", "task_id": "cc85a[f=1,n=4,t=1]/validity@stub", "time_seconds": 0.0, "valuation": {"f": 1, "n": 4, "t": 1}, "verdict": "holds"}, "timed_out": false}
{"attempts": 1, "index": 1, "key": "ks16[f=1,n=4,t=1]/validity@stub|max_nodes=None,max_seconds=None,max_states=None", "result": {"cached": false, "engine": "stub", "error": "CheckError: stub failure", "obligations": [], "protocol": "ks16", "task_id": "ks16[f=1,n=4,t=1]/validity@stub", "time_seconds": 0.0, "valuation": {"f": 1, "n": 4, "t": 1}, "verdict": "error"}, "timed_out": false}
"""

SERVICE_JOURNAL = b"""\
{"format": 1, "magic": "repro-service-journal", "version": "frozen-version"}
{"key": "d619695561f6945defd8eee39cfddad9", "result": {"cached": false, "engine": "stub", "error": "", "obligations": [{"queries": [], "side_conditions": {}, "skipped_side_conditions": {}, "target": "validity", "time_seconds": 0.0}], "protocol": "cc85a", "task_id": "cc85a[f=1,n=4,t=1]/validity@stub", "time_seconds": 0.0, "valuation": {"f": 1, "n": 4, "t": 1}, "verdict": "holds"}, "task": "cc85a[f=1,n=4,t=1]/validity@stub|max_nodes=None,max_seconds=None,max_states=None"}
{"key": "d89f2655876a1d17403b7fdfb649401d", "result": {"cached": false, "engine": "stub", "error": "CheckError: stub failure", "obligations": [], "protocol": "ks16", "task_id": "ks16[f=1,n=4,t=1]/validity@stub", "time_seconds": 0.0, "valuation": {"f": 1, "n": 4, "t": 1}, "verdict": "error"}, "task": "ks16[f=1,n=4,t=1]/validity@stub|max_nodes=None,max_seconds=None,max_states=None"}
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


class TestServiceJournalBytes:
    @pytest.fixture(autouse=True)
    def pinned_version(self, monkeypatch):
        monkeypatch.setattr(server, "code_version", lambda: VERSION)

    @staticmethod
    def _service(state_dir):
        return server.VerificationService(port=0, processes=1,
                                          state_dir=str(state_dir))

    def test_daemon_writes_the_frozen_bytes(self, tmp_path):
        service = self._service(tmp_path)
        service.start()
        try:
            for task in TASKS:
                service._complete(task.dedup_key, task,
                                  StubEngine().run(task))
        finally:
            service.stop()
        written = (tmp_path / SERVICE_JOURNAL_NAME).read_bytes()
        assert written == SERVICE_JOURNAL

    def test_frozen_bytes_preload_the_clean_record(self, tmp_path):
        (tmp_path / SERVICE_JOURNAL_NAME).write_bytes(SERVICE_JOURNAL)
        service = self._service(tmp_path)
        service.start()
        try:
            records = _lines(SERVICE_JOURNAL)[1:]
            assert service.status()["journal_preloaded"] == 1
            assert service.registry.resolve(TASKS[0].dedup_key) \
                == records[0]["result"]
            assert service.registry.resolve(TASKS[1].dedup_key) is None
        finally:
            service.stop()
