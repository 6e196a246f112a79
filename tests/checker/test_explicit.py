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
from repro.counter.system import CounterSystem
from repro.errors import CheckError
from repro.protocols import mmr14, naive_voting
from repro.spec.properties import PropertyLibrary

VAL = {"n": 4, "t": 1, "f": 1}


@pytest.fixture(scope="module")
def mmr_checker():
    return ExplicitChecker(mmr14.model(), VAL)


@pytest.fixture(scope="module")
def refined_checker():
    return ExplicitChecker(mmr14.refined_model(), VAL)


class TestNaiveVoting:
    def test_agreement_violated_with_byzantine(self):
        checker = ExplicitChecker(naive_voting.model(), {"n": 3, "f": 1})
        report = checker.check_target("agreement")
        assert report.verdict == VIOLATED
        assert report.counterexample is not None

    def test_agreement_holds_without_byzantine(self):
        checker = ExplicitChecker(naive_voting.model(), {"n": 3, "f": 0})
        assert checker.check_target("agreement").verdict == HOLDS

    def test_validity_holds(self):
        checker = ExplicitChecker(naive_voting.model(), {"n": 3, "f": 1})
        assert checker.check_target("validity").verdict == HOLDS

    def test_counterexample_replays(self):
        checker = ExplicitChecker(naive_voting.model(), {"n": 3, "f": 1})
        report = checker.check_target("agreement")
        ce = report.counterexample
        system = CounterSystem(naive_voting.model(), ce.valuation)
        config = system.make_config(ce.initial_placement)
        assert is_applicable(system, config, Schedule(ce.schedule))


class TestMMR14Safety:
    def test_validity_holds(self, mmr_checker):
        report = mmr_checker.check_target("validity")
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
        report = refined_checker.check_target("termination")
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
