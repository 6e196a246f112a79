"""Integration tests for the explicit-state checker.

These encode the paper's expected verdicts at small parameters:

* naive voting — Agreement breaks with one Byzantine process, holds
  without;
* MMR14 — Agreement and Validity hold; the binding condition CB2 is
  violated (the §II adaptive-adversary attack); CB0/CB1/CB4 hold.
"""

import pytest

from repro.checker.explicit import ExplicitChecker
from repro.checker.result import HOLDS, VIOLATED
from repro.counter.schedule import Schedule, is_applicable
from repro.counter.system import CounterSystem, clear_shared_caches
from repro.errors import CheckError, StateBudgetExceeded
from repro.protocols import cc85, mmr14, naive_voting
from repro.spec.obligations import obligations_for
from repro.spec.properties import PropertyLibrary
from tests.counter.test_fairness import pingpong_model, stuck_model

VAL = {"n": 4, "t": 1, "f": 1}


def check_target(checker, target):
    """Check one obligation target's bundle end to end."""
    return checker.check_obligations(obligations_for(checker.model, target))


@pytest.fixture(scope="module")
def mmr_checker():
    return ExplicitChecker(mmr14.model(), VAL)


@pytest.fixture(scope="module")
def refined_checker():
    return ExplicitChecker(mmr14.refined_model(), VAL)


class TestNaiveVoting:
    def test_agreement_violated_with_byzantine(self):
        checker = ExplicitChecker(naive_voting.model(), {"n": 3, "f": 1})
        report = check_target(checker, "agreement")
        assert report.verdict == VIOLATED
        assert report.counterexample is not None

    def test_agreement_holds_without_byzantine(self):
        checker = ExplicitChecker(naive_voting.model(), {"n": 3, "f": 0})
        assert check_target(checker, "agreement").verdict == HOLDS

    def test_validity_holds(self):
        checker = ExplicitChecker(naive_voting.model(), {"n": 3, "f": 1})
        assert check_target(checker, "validity").verdict == HOLDS

    def test_counterexample_replays(self):
        checker = ExplicitChecker(naive_voting.model(), {"n": 3, "f": 1})
        report = check_target(checker, "agreement")
        ce = report.counterexample
        system = CounterSystem(naive_voting.model(), ce.valuation)
        config = system.make_config(ce.initial_placement)
        assert is_applicable(system, config, Schedule(ce.schedule))


class TestMMR14Safety:
    def test_validity_holds(self, mmr_checker):
        report = check_target(mmr_checker, "validity")
        assert report.verdict == HOLDS
        assert report.side_conditions == {
            "non_blocking": True,
            "fair_termination": True,
        }

    def test_inv2_single_query(self, mmr_checker):
        lib = PropertyLibrary(mmr_checker.model)
        result = mmr_checker.check_reach(lib.inv2(0))
        assert result.verdict == HOLDS

    def test_inv1_holds(self, mmr_checker):
        lib = PropertyLibrary(mmr_checker.model)
        assert mmr_checker.check_reach(lib.inv1(0)).verdict == HOLDS
        assert mmr_checker.check_reach(lib.inv1(1)).verdict == HOLDS


class TestMMR14Binding:
    def test_cb2_violated(self, refined_checker):
        lib = PropertyLibrary(refined_checker.model)
        result = refined_checker.check_reach(lib.cb(2))
        assert result.verdict == VIOLATED
        assert result.counterexample is not None

    def test_cb0_cb1_cb4_hold(self, refined_checker):
        lib = PropertyLibrary(refined_checker.model)
        assert refined_checker.check_reach(lib.cb(0)).verdict == HOLDS
        assert refined_checker.check_reach(lib.cb(1)).verdict == HOLDS
        assert refined_checker.check_reach(lib.cb(4)).verdict == HOLDS

    def test_cb2_counterexample_replays(self, refined_checker):
        lib = PropertyLibrary(refined_checker.model)
        ce = refined_checker.check_reach(lib.cb(2)).counterexample
        system = refined_checker.system
        config = system.make_config(ce.initial_placement)
        assert is_applicable(system, config, Schedule(ce.schedule))
        # The attack needs a mixed proposal: both J0 and J1 populated.
        assert ce.initial_placement.get("J0", 0) >= 1
        assert ce.initial_placement.get("J1", 0) >= 1

    def test_termination_bundle_reports_violation(self, refined_checker):
        report = check_target(refined_checker, "termination")
        assert report.verdict == VIOLATED
        violated = {r.query for r in report.queries if r.verdict == VIOLATED}
        assert "cb2" in violated


class TestGames:
    def test_c2prime_holds(self, refined_checker):
        lib = PropertyLibrary(refined_checker.model)
        assert refined_checker.check_game(lib.c2prime(0)).verdict == HOLDS
        assert refined_checker.check_game(lib.c2prime(1)).verdict == HOLDS

    def test_unknown_side_condition_rejected(self, mmr_checker):
        with pytest.raises(CheckError):
            mmr_checker.side_condition("nope")


SIDE_MODELS = {
    "cc85a-validity": (cc85.model_a, VAL),
    "pingpong": (pingpong_model, {"n": 3, "f": 1}),
    "stuck": (stuck_model, {"n": 3, "f": 1}),
}
SIDE_NAMES = ("non_blocking", "fair_termination")
FULL = 400_000


def _side(factory, valuation, name, max_states):
    """``side_condition`` outcome: ``("ok", verdict)`` or what it raised."""
    checker = ExplicitChecker(factory(), valuation, max_states=max_states)
    try:
        return "ok", checker.side_condition(name)
    except StateBudgetExceeded as exc:
        return "raised", type(exc), str(exc)


def _fresh_side(factory, valuation, name, max_states):
    """The outcome of a walk on a freshly bound system (empty memo)."""
    clear_shared_caches()
    return _side(factory, valuation, name, max_states)


class TestSideConditionMemo:
    """A memo hit answers or raises exactly as a fresh walk does."""

    @pytest.fixture(autouse=True)
    def _cold(self):
        clear_shared_caches()
        yield
        clear_shared_caches()

    @pytest.mark.parametrize("budgets", [(FULL, 10), (10, FULL)])
    @pytest.mark.parametrize("name", SIDE_NAMES)
    @pytest.mark.parametrize("model", sorted(SIDE_MODELS))
    def test_second_call_matches_a_fresh_checker(self, model, name, budgets):
        factory, valuation = SIDE_MODELS[model]
        expected = [
            _fresh_side(factory, valuation, name, budget) for budget in budgets
        ]
        clear_shared_caches()
        got = [_side(factory, valuation, name, budget) for budget in budgets]
        assert got == expected

    def test_cc85a_validity_needs_more_than_ten_states(self):
        factory, valuation = SIDE_MODELS["cc85a-validity"]
        assert obligations_for(
            ExplicitChecker(factory(), valuation).model, "validity"
        ).side_conditions == SIDE_NAMES
        for name in SIDE_NAMES:
            assert _fresh_side(factory, valuation, name, 10)[:2] == (
                "raised", StateBudgetExceeded
            )
            assert _fresh_side(factory, valuation, name, FULL) == ("ok", True)

    @pytest.mark.parametrize("name", SIDE_NAMES)
    def test_recorded_budget_is_the_smallest_that_finishes(self, name):
        factory, valuation = SIDE_MODELS["cc85a-validity"]
        system = ExplicitChecker(factory(), valuation).system
        _side(factory, valuation, name, FULL)
        verdict, needed = system.side_conditions[name]
        assert needed > 10
        assert _side(factory, valuation, name, needed) == ("ok", verdict)
        got = _side(factory, valuation, name, needed - 1)
        assert got[:2] == ("raised", StateBudgetExceeded)
        assert got == _fresh_side(factory, valuation, name, needed - 1)
        assert _fresh_side(factory, valuation, name, needed) == ("ok", verdict)

    @pytest.mark.parametrize("name", SIDE_NAMES)
    def test_a_walk_that_raised_is_not_memoized(self, name):
        factory, valuation = SIDE_MODELS["cc85a-validity"]
        checker = ExplicitChecker(factory(), valuation, max_states=10)
        with pytest.raises(StateBudgetExceeded):
            checker.side_condition(name)
        assert name not in checker.system.side_conditions

    @pytest.mark.parametrize("first, then", [SIDE_NAMES, SIDE_NAMES[::-1]])
    @pytest.mark.parametrize("model", sorted(SIDE_MODELS))
    def test_other_condition_after_a_full_walk_matches_a_fresh_one(
        self, model, first, then
    ):
        factory, valuation = SIDE_MODELS[model]
        expected = _fresh_side(factory, valuation, then, 10)
        clear_shared_caches()
        _side(factory, valuation, first, FULL)
        assert _side(factory, valuation, then, 10) == expected

    def test_both_conditions_walk_once_per_system(self, monkeypatch):
        import repro.counter.fairness as fairness

        walked = []
        walk = fairness._side_walk

        def spy(system, *args):
            walked.append(system)
            return walk(system, *args)

        monkeypatch.setattr(fairness, "_side_walk", spy)
        factory, valuation = SIDE_MODELS["cc85a-validity"]
        checker = ExplicitChecker(factory(), valuation)
        report = check_target(checker, "validity")
        assert report.side_conditions == dict.fromkeys(SIDE_NAMES, True)
        assert walked == [checker.system]
        # A second checker binds the same system: both are memo hits.
        report = check_target(ExplicitChecker(factory(), valuation), "validity")
        assert report.side_conditions == dict.fromkeys(SIDE_NAMES, True)
        assert walked == [checker.system]

    def test_unknown_side_condition_still_rejected(self):
        factory, valuation = SIDE_MODELS["stuck"]
        checker = ExplicitChecker(factory(), valuation)
        checker.side_condition("non_blocking")
        with pytest.raises(CheckError):
            checker.side_condition("nope")
