"""Unit tests for the service's bookkeeping layer.

Covers the task wire format (:meth:`VerificationTask.to_dict` /
``from_dict`` and the ``dedup_key`` identity), the
:class:`TaskRegistry` dedup state machine and the state-file
breadcrumb — all without starting a daemon.  What a restarted daemon
serves from its result cache is checked in
``tests/service/test_service.py::TestRestartResume``.
"""

import json

import pytest

from repro.api.task import Limits, VerificationTask
from repro.errors import CheckError
from repro.service.registry import (
    SERVICE_STATE_NAME,
    TaskRegistry,
    read_state_file,
    remove_state_file,
    write_state_file,
)
from repro.spec.queries import ReachQuery


def make_payload(task_id="t", error=""):
    return {"task_id": task_id, "protocol": "cc85a", "engine": "explicit",
            "valuation": {}, "verdict": "error" if error else "holds",
            "obligations": [], "time_seconds": 0.0, "cached": False,
            "error": error}


class TestTaskWireFormat:
    def test_roundtrip_preserves_identity(self):
        task = VerificationTask(
            protocol="mmr14",
            valuation={"n": 4, "t": 1, "f": 1},
            targets=("agreement", "validity"),
            engine="explicit",
            limits=Limits(max_states=1000, max_seconds=5.0),
        )
        restored = VerificationTask.from_dict(
            json.loads(json.dumps(task.to_dict()))
        )
        assert restored == task
        assert restored.dedup_key == task.dedup_key
        assert restored.journal_key == task.journal_key

    def test_default_valuation_survives_as_default(self):
        # "use the registry's smallest valuation" must not be frozen
        # into a concrete dict by the wire trip.
        task = VerificationTask(protocol="rabin83")
        restored = VerificationTask.from_dict(task.to_dict())
        assert restored.valuation is None
        assert "valuation" not in task.to_dict()

    def test_custom_model_refuses_the_wire(self):
        from repro.protocols.registry import by_name

        task = VerificationTask(model=by_name("cc85a").model())
        with pytest.raises(CheckError, match="registry tasks"):
            task.to_dict()

    def test_ad_hoc_queries_refuse_the_wire(self):
        task = VerificationTask(
            protocol="cc85a",
            queries=(ReachQuery(name="q", formula="EF bad", events=()),),
        )
        with pytest.raises(CheckError, match="registry tasks"):
            task.to_dict()

    def test_dedup_key_tracks_task_identity(self):
        base = VerificationTask(protocol="cc85a", targets=("agreement",))
        same = VerificationTask(protocol="cc85a", targets=("agreement",))
        assert base.dedup_key == same.dedup_key
        assert len(base.dedup_key) == 32
        othertarget = VerificationTask(protocol="cc85a",
                                       targets=("validity",))
        otherlimits = VerificationTask(protocol="cc85a",
                                       targets=("agreement",),
                                       limits=Limits(max_states=7))
        assert base.dedup_key != othertarget.dedup_key
        # Same task id under a different budget is a different answer.
        assert base.dedup_key != otherlimits.dedup_key


class TestTaskRegistry:
    def test_claim_then_complete_notifies_all_waiters(self):
        registry = TaskRegistry()
        seen = []
        task = object()
        assert registry.claim("k", task, lambda k, p: seen.append(("a", p)))\
            == ("claimed", None)
        assert registry.claim("k", task, lambda k, p: seen.append(("b", p)))\
            == ("joined", None)
        payload = make_payload()
        registry.complete("k", payload, retain=True)
        assert seen == [("a", payload), ("b", payload)]
        assert registry.resolve("k") == payload
        # A later claim is served done without registering anything.
        assert registry.claim("k", task, lambda k, p: None) \
            == ("done", payload)

    def test_error_completion_notifies_but_is_not_retained(self):
        registry = TaskRegistry()
        seen = []
        registry.claim("k", object(), lambda k, p: seen.append(p))
        payload = make_payload(error="CheckError: boom")
        registry.complete("k", payload, retain=False)
        assert seen == [payload]
        assert registry.resolve("k") is None
        # The next submission computes again instead of replaying.
        assert registry.claim("k", object(), lambda k, p: None)[0] \
            == "claimed"

    def test_adopt_never_displaces(self):
        registry = TaskRegistry()
        registry.adopt("k", make_payload("first"))
        registry.adopt("k", make_payload("second"))
        assert registry.resolve("k")["task_id"] == "first"
        registry.claim("live", object(), lambda k, p: None)
        registry.adopt("live", make_payload())
        assert registry.resolve("live") is None  # in-flight wins

    def test_fail_pending_wakes_every_waiter_with_none(self):
        registry = TaskRegistry()
        seen = []
        registry.claim("k1", object(), lambda k, p: seen.append((k, p)))
        registry.claim("k1", object(), lambda k, p: seen.append((k, p)))
        registry.claim("k2", object(), lambda k, p: seen.append((k, p)))
        assert registry.fail_pending() == 2
        assert sorted(seen) == [("k1", None), ("k1", None), ("k2", None)]
        assert registry.stats() == {"retained": 0, "in_flight": 0}

    def test_stats_counts_both_sides(self):
        registry = TaskRegistry()
        registry.adopt("a", make_payload())
        registry.adopt("b", make_payload())
        registry.claim("c", object(), lambda k, p: None)
        assert registry.stats() == {"retained": 2, "in_flight": 1}


class TestStateFile:
    def test_write_read_remove_roundtrip(self, tmp_path):
        info = {"pid": 4242, "host": "127.0.0.1", "port": 8123}
        write_state_file(tmp_path, info)
        assert read_state_file(tmp_path) == info
        remove_state_file(tmp_path)
        assert read_state_file(tmp_path) is None
        remove_state_file(tmp_path)  # idempotent

    def test_unreadable_state_file_answers_none(self, tmp_path):
        (tmp_path / SERVICE_STATE_NAME).write_text("not json")
        assert read_state_file(tmp_path) is None
        (tmp_path / SERVICE_STATE_NAME).write_text("[1, 2]")
        assert read_state_file(tmp_path) is None
