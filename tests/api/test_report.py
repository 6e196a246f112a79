"""JSON round-trips and verdict aggregation for the report hierarchy."""

import json
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import (
    CounterexampleData,
    ObligationOutcome,
    QueryOutcome,
    RunReport,
    TaskResult,
    worst_verdict,
)
from repro.checker.result import HOLDS, UNKNOWN, VIOLATED
from repro.counter.actions import Action


def roundtrip(obj, cls):
    """to_dict → JSON text → from_dict; must compare equal."""
    text = json.dumps(obj.to_dict())
    restored = cls.from_dict(json.loads(text))
    assert restored == obj
    # A second serialization writes the very same bytes.
    assert json.dumps(restored.to_dict()) == text
    return restored


def make_ce() -> CounterexampleData:
    return CounterexampleData(
        valuation={"n": 4, "t": 1, "f": 1},
        initial_placement={"J0": 2, "J1": 2},
        schedule=(Action("r1", 0), Action("r9", 0, "H"), Action("r3", 1)),
        description="violates inv1[0]",
    )


def make_task_result() -> TaskResult:
    queries = (
        QueryOutcome(query="inv1[0]", verdict=VIOLATED, states_explored=77,
                     time_seconds=0.25, counterexample=make_ce()),
        QueryOutcome(query="inv1[1]", verdict=UNKNOWN, states_explored=1000,
                     limit_tripped="max_states", detail="state budget"),
    )
    outcome = ObligationOutcome(
        target="agreement",
        queries=queries,
        side_conditions={"non_blocking": True, "fair_termination": False},
        time_seconds=0.5,
    )
    return TaskResult(
        task_id="mmr14[f=1,n=4,t=1]/agreement@explicit",
        protocol="mmr14",
        engine="explicit",
        valuation={"n": 4, "t": 1, "f": 1},
        obligations=(outcome,),
        time_seconds=0.6,
    )


names = st.text(min_size=1, max_size=6)
counts = st.dictionaries(names, st.integers(0, 10**6), max_size=4)
actions = st.builds(
    Action,
    rule=names,
    round=st.integers(0, 50),
    branch=st.none() | names,
)
counterexamples = st.builds(
    CounterexampleData,
    valuation=counts,
    initial_placement=counts,
    schedule=st.lists(actions, max_size=8).map(tuple),
    description=st.text(max_size=20),
)
query_outcomes = st.builds(
    QueryOutcome,
    query=names,
    verdict=st.sampled_from((HOLDS, VIOLATED, UNKNOWN)),
    states_explored=st.integers(0, 10**9),
    nschemas=st.integers(0, 10**9),
    time_seconds=st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
    limit_tripped=st.sampled_from(("", "max_states", "max_nodes",
                                   "max_seconds")),
    detail=st.text(max_size=20),
    counterexample=st.none() | counterexamples,
)


class TestWorstVerdict:
    def test_severity_order(self):
        assert worst_verdict([]) == HOLDS
        assert worst_verdict([HOLDS, HOLDS]) == HOLDS
        assert worst_verdict([HOLDS, UNKNOWN]) == UNKNOWN
        assert worst_verdict([UNKNOWN, "error"]) == "error"
        assert worst_verdict([HOLDS, VIOLATED, UNKNOWN]) == VIOLATED


class TestCounterexampleData:
    @settings(max_examples=60, deadline=None)
    @given(ce=counterexamples)
    @example(ce=make_ce())
    def test_roundtrip(self, ce):
        roundtrip(ce, CounterexampleData)

    def test_roundtrip_preserves_branch_none(self):
        restored = roundtrip(make_ce(), CounterexampleData)
        assert restored.schedule[0].branch is None
        assert restored.schedule[1].branch == "H"


class TestOutcomes:
    @settings(max_examples=60, deadline=None)
    @given(query=query_outcomes)
    @example(query=make_task_result().queries[0])
    @example(query=make_task_result().queries[1])
    def test_query_roundtrip(self, query):
        roundtrip(query, QueryOutcome)

    def test_obligation_aggregation(self):
        outcome = make_task_result().obligations[0]
        assert outcome.verdict == VIOLATED  # violated dominates unknown
        assert outcome.states_explored == 1077
        assert outcome.limit_tripped == "max_states"
        assert outcome.counterexample == make_ce()

    def test_failed_side_condition_taints_holds(self):
        outcome = ObligationOutcome(
            target="validity",
            queries=(QueryOutcome(query="inv2[0]", verdict=HOLDS),),
            side_conditions={"non_blocking": False},
        )
        assert outcome.verdict == UNKNOWN

    def test_obligation_roundtrip(self):
        roundtrip(make_task_result().obligations[0], ObligationOutcome)


class TestTaskResult:
    def test_roundtrip(self):
        roundtrip(make_task_result(), TaskResult)

    def test_error_result(self):
        result = TaskResult(task_id="x", protocol="x", engine="explicit",
                            error="CheckError: boom")
        assert result.verdict == "error"
        roundtrip(result, TaskResult)

    def test_outcome_lookup(self):
        result = make_task_result()
        assert result.outcome("agreement").target == "agreement"
        try:
            result.outcome("validity")
        except KeyError:
            pass
        else:
            raise AssertionError("expected KeyError")


class TestRunReport:
    def test_roundtrip(self):
        report = RunReport(
            results=(make_task_result(),),
            processes=4,
            code_version="abc123",
            time_seconds=1.5,
            cache_hits=1,
        )
        roundtrip(report, RunReport)

    def test_summary_mentions_every_task(self):
        report = RunReport(results=(make_task_result(),), processes=2)
        text = report.summary()
        assert "mmr14[f=1,n=4,t=1]/agreement@explicit" in text
        assert "2 processes" in text
        assert "limit:max_states" in text


class TestSupervisionMetadata:
    """attempts / timed_out / worker_restarts survive JSON —
    and stay *out* of the payload at their defaults, so undisturbed
    reports remain byte-identical to pre-supervision ones."""

    def test_task_result_roundtrip_with_retry_fields(self):
        from dataclasses import replace

        result = replace(make_task_result(), attempts=3, timed_out=True)
        restored = roundtrip(result, TaskResult)
        assert restored.attempts == 3
        assert restored.timed_out is True
        assert result.to_dict()["attempts"] == 3
        assert result.to_dict()["timed_out"] is True

    def test_default_retry_fields_are_not_emitted(self):
        payload = make_task_result().to_dict()
        assert "attempts" not in payload
        assert "timed_out" not in payload
        restored = TaskResult.from_dict(payload)
        assert restored.attempts == 1
        assert restored.timed_out is False

    def test_run_report_roundtrip_with_supervision_fields(self):
        report = RunReport(results=(make_task_result(),), processes=4,
                           worker_restarts=2)
        restored = roundtrip(report, RunReport)
        assert restored.worker_restarts == 2

    def test_default_supervision_fields_are_not_emitted(self):
        payload = RunReport(results=(), processes=1).to_dict()
        assert "worker_restarts" not in payload
        restored = RunReport.from_dict(payload)
        assert restored.worker_restarts == 0

    def test_old_payload_carrying_resumed_still_loads(self):
        # Releases with a sweep journal emitted ``resumed`` when nonzero.
        payload = RunReport(results=(make_task_result(),)).to_dict()
        restored = RunReport.from_dict({**payload, "resumed": 3})
        assert restored == RunReport.from_dict(payload)
        assert "resumed" not in restored.to_dict()

    def test_summary_mentions_supervision_events(self):
        from dataclasses import replace

        flaky = replace(make_task_result(), attempts=2, timed_out=True)
        report = RunReport(results=(flaky,), processes=2,
                           worker_restarts=1)
        text = report.summary()
        assert "attempts:2" in text
        assert "timed-out" in text
        assert "1 worker restart" in text


class TestServiceMetadata:
    """deduped / request_id survive JSON — and stay out of the payload
    at their defaults, so local-run reports (and every golden/cache
    blob written before the service existed) keep their exact bytes."""

    def test_task_result_roundtrip_with_deduped(self):
        result = replace(make_task_result(), deduped=True)
        assert result.deduped is True
        restored = roundtrip(result, TaskResult)
        assert restored.deduped is True
        assert result.to_dict()["deduped"] is True

    def test_default_service_fields_are_not_emitted(self):
        payload = make_task_result().to_dict()
        assert "deduped" not in payload
        assert TaskResult.from_dict(payload).deduped is False
        report_payload = RunReport(results=(), processes=1).to_dict()
        assert "request_id" not in report_payload
        assert "deduped" not in report_payload
        restored = RunReport.from_dict(report_payload)
        assert restored.request_id == "" and restored.deduped == 0

    def test_run_report_roundtrip_with_service_fields(self):
        report = RunReport(results=(make_task_result(),), processes=2,
                           request_id="r000042", deduped=3, cache_hits=1)
        restored = roundtrip(report, RunReport)
        assert restored.request_id == "r000042"
        assert restored.deduped == 3

    def test_deduped_flag_does_not_disturb_the_verdict_payload(self):
        result = make_task_result()
        plain, marked = result.to_dict(), replace(result, deduped=True).to_dict()
        marked.pop("deduped")
        assert plain == marked  # identical bytes apart from the flag

    def test_summary_mentions_service_events(self):
        report = RunReport(results=(replace(make_task_result(), deduped=True),),
                           processes=2, request_id="r000007", deduped=1)
        text = report.summary()
        assert "deduped" in text
        assert "request r000007" in text
