"""Tests for the parameterized (schema-based) checker.

Cross-validates against the explicit checker's ground truth: the
parameterized verdicts must agree, and every parameterized
counterexample must replay concretely.
"""

import collections
from fractions import Fraction

import pytest

from repro.checker.parameterized import ParameterizedChecker
from repro.checker.result import HOLDS, VIOLATED
from repro.counter.schedule import Schedule, is_applicable
from repro.counter.system import CounterSystem
from repro.protocols import cc85, fmr05, mmr14, naive_voting
from repro.spec.properties import PropertyLibrary
from tests.checker.test_param_verdicts import CASES as VERDICT_CASES


@pytest.fixture(scope="module")
def naive_checker():
    return ParameterizedChecker(naive_voting.model())


@pytest.fixture(scope="module")
def mmr_checker():
    return ParameterizedChecker(mmr14.refined_model())


class TestNaiveVoting:
    def test_agreement_violated_parametrically(self, naive_checker):
        lib = PropertyLibrary(naive_voting.model())
        result = naive_checker.check_reach(lib.inv1(0))
        assert result.verdict == VIOLATED
        ce = result.counterexample
        # The witness requires a Byzantine process.
        assert ce.valuation["f"] >= 1
        assert naive_voting.model().environment.admits(ce.valuation)

    def test_validity_holds_parametrically(self, naive_checker):
        lib = PropertyLibrary(naive_voting.model())
        assert naive_checker.check_reach(lib.inv2(0)).verdict == HOLDS
        assert naive_checker.check_reach(lib.inv2(1)).verdict == HOLDS

    def test_counterexample_replays(self, naive_checker):
        lib = PropertyLibrary(naive_voting.model())
        ce = naive_checker.check_reach(lib.inv1(0)).counterexample
        system = CounterSystem(naive_checker.model, ce.valuation)
        config = system.make_config(ce.initial_placement)
        assert is_applicable(system, config, Schedule(ce.schedule))

    def test_nschemas_reported(self, naive_checker):
        lib = PropertyLibrary(naive_voting.model())
        result = naive_checker.check_reach(lib.inv1(0))
        assert result.nschemas == naive_checker.nschemas(lib.inv1(0)) > 0


class TestMMR14Binding:
    def test_cb2_violated_with_admissible_witness(self, mmr_checker):
        lib = PropertyLibrary(mmr14.refined_model())
        result = mmr_checker.check_reach(lib.cb(2))
        assert result.verdict == VIOLATED
        valuation = result.counterexample.valuation
        assert mmr14.refined_model().environment.admits(valuation)
        assert valuation["n"] > 3 * valuation["t"]

    def test_cb2_witness_replays_and_witnesses_events(self, mmr_checker):
        lib = PropertyLibrary(mmr14.refined_model())
        query = lib.cb(2)
        ce = mmr_checker.check_reach(query).counterexample
        system = CounterSystem(mmr_checker.model, ce.valuation)
        config = system.make_config(ce.initial_placement)
        witnessed = [event.holds(system, config) for event in query.events]
        for action in ce.schedule:
            config = system.apply(config, action)
            for index, event in enumerate(query.events):
                witnessed[index] = witnessed[index] or event.holds(system, config)
        assert all(witnessed)

    def test_milestone_count(self, mmr_checker):
        assert len(mmr_checker.milestones) == 11


class TestAgreementWithExplicit:
    """Parameterized verdicts match the explicit ground truth."""

    @pytest.mark.parametrize(
        "factory", [cc85.model_a, fmr05.model], ids=["cc85a", "fmr05"]
    )
    def test_validity_holds_both_ways(self, factory):
        from repro.checker.explicit import ExplicitChecker

        model = factory()
        lib = PropertyLibrary(model)
        parametric = ParameterizedChecker(model)
        assert parametric.check_reach(lib.inv2(0)).verdict == HOLDS

    def test_budget_reports_unknown(self):
        model = mmr14.refined_model()
        checker = ParameterizedChecker(model, node_budget=5)
        lib = PropertyLibrary(model)
        result = checker.check_reach(lib.inv1(0))
        assert result.verdict == "unknown"


class TestLeafBudget:
    # About 11 s: the whole budget is spent.
    @pytest.mark.slow_equivalence
    def test_leaf_branch_and_bound_obeys_max_seconds(self):
        """aby22's termination bundle reaches leaves whose exact branch
        and bound ran far past the budget before it polled the deadline.
        Now the bundle ends within the budget plus one LP call."""
        import time

        from repro import api
        from repro.api import Limits

        start = time.perf_counter()
        report = api.verify(
            "aby22", target="termination", engine="parameterized",
            limits=Limits(max_seconds=10),
        )
        elapsed = time.perf_counter() - start
        # 10 s of budget, the setup before the clock starts, and one
        # exact LP of a leaf (about a second on a slow host)
        assert elapsed < 15.0
        [outcome] = report.obligations
        assert outcome.queries[0].limit_tripped == "max_seconds"


class TestObligations:
    def test_bundle_over_reach_queries(self, naive_checker):
        from repro.spec.obligations import validity_obligations

        report = naive_checker.check_obligations(
            validity_obligations(naive_voting.model())
        )
        assert report.verdict == HOLDS
        assert len(report.queries) == 2

    def test_bundle_reports_game_queries_unknown(self, naive_checker):
        from repro.checker.result import UNKNOWN
        from repro.spec.obligations import ObligationSet
        from repro.spec.queries import GameQuery

        lib = PropertyLibrary(naive_voting.model())
        game = GameQuery(name="c2'", formula="E F G ...", events=())
        report = naive_checker.check_obligations(ObligationSet(
            protocol="naive_voting", target="termination",
            reach_queries=(lib.inv2(0),), game_queries=(game,),
        ))
        assert [(q.query, q.verdict) for q in report.queries] == [
            ("inv2[0]", HOLDS), ("c2'", UNKNOWN),
        ]
        assert "explicit engine" in report.queries[1].detail
        assert report.verdict == UNKNOWN


class TestFloatPrunesAreExact:
    # About 35 s: the exact Fraction simplex refutes every pruned LP.
    @pytest.mark.slow_equivalence
    def test_every_float_infeasible_is_exactly_infeasible(self, monkeypatch):
        """A float 'infeasible' only prunes what the exact simplex refutes."""
        pytest.importorskip("scipy")
        from repro.solver.simplex import lp_feasible

        refuted = []
        original = ParameterizedChecker._feasible

        def spy(self, matrix):
            answer = original(self, matrix)
            if not answer:
                refuted.append(matrix.rows)
            return answer

        monkeypatch.setattr(ParameterizedChecker, "_feasible", spy)
        model = fmr05.model()
        checker = ParameterizedChecker(model)
        assert checker.check_reach(PropertyLibrary(model).inv2(0)).verdict == HOLDS
        assert refuted
        for rows in refuted:
            assert not lp_feasible(rows).feasible


def _refutes_in_fractions(rows, certificate):
    """An independent re-check of an integer Farkas certificate."""
    combined = collections.defaultdict(Fraction)
    constant = Fraction(0)
    for index, weight in certificate.items():
        assert type(weight) is int
        coeffs, const, is_eq = rows[index]
        assert is_eq or weight > 0
        constant += weight * Fraction(const)
        for name, coeff in coeffs:
            combined[name] += weight * Fraction(coeff)
    return constant < 0 and all(value <= 0 for value in combined.values())


class TestEveryPruneIsProved:
    """No prefix is pruned on a bare float "infeasible": bound
    propagation, a checked integer Farkas certificate or the exact
    simplex proves each infeasible answer."""

    @pytest.mark.parametrize("case", sorted(VERDICT_CASES))
    def test_every_infeasible_answer_has_a_proof(self, case, monkeypatch):
        pytest.importorskip("scipy.optimize._highspy._core")
        import repro.checker.parameterized as parameterized

        exact_answers = []
        real_exact = parameterized.lp_feasible

        def exact_spy(rows):
            result = real_exact(rows)
            exact_answers.append(result.feasible)
            return result

        proofs = collections.Counter()
        original = ParameterizedChecker._feasible

        def spy(self, matrix):
            before = (self.bound_prunes, len(exact_answers), self.certified)
            answer = original(self, matrix)
            if answer:
                return answer
            if self.bound_prunes != before[0]:
                proofs["bounds"] += 1
            elif len(exact_answers) != before[1]:
                assert exact_answers[-1] is False
                proofs["simplex"] += 1
            else:
                assert matrix.certificate is not None
                assert _refutes_in_fractions(matrix.rows, matrix.certificate)
                assert self.certified == before[2] + 1
                proofs["certificate"] += 1
            return answer

        monkeypatch.setattr(parameterized, "lp_feasible", exact_spy)
        monkeypatch.setattr(ParameterizedChecker, "_feasible", spy)
        factory, queries = VERDICT_CASES[case]
        model = factory()
        checker = ParameterizedChecker(model)
        lib = PropertyLibrary(model)
        certified = 0
        for builder, argument in queries:
            checker.check_reach(getattr(lib, builder)(argument))
            certified += checker.certified
        assert proofs["certificate"] == certified > 0
        assert proofs["bounds"] > 0


class TestShortcutsMatchHiGHS:
    """Every answer of the exact shortcuts is the answer HiGHS gives."""

    @staticmethod
    def _spy(monkeypatch):
        """Log ``(who answered, answer, HiGHS's answer)`` per feasibility
        question; who is "bounds", "witness" or "lp"."""
        pytest.importorskip("scipy")
        from repro.solver.floatlp import RowMatrix, float_feasible

        log = []
        original = ParameterizedChecker._feasible

        def spy(self, matrix):
            prunes, hits = self.bound_prunes, self.witness_hits
            answer = original(self, matrix)
            if self.bound_prunes != prunes:
                who = "bounds"
            elif self.witness_hits != hits:
                who = "witness"
            else:
                log.append(("lp", answer, answer))
                return answer
            log.append((who, answer, float_feasible(RowMatrix(matrix.rows))))
            return answer

        monkeypatch.setattr(ParameterizedChecker, "_feasible", spy)
        return log

    @pytest.mark.parametrize("case", sorted(VERDICT_CASES))
    def test_every_shortcut_answer_matches(self, case, monkeypatch):
        log = self._spy(monkeypatch)
        factory, queries = VERDICT_CASES[case]
        model = factory()
        checker = ParameterizedChecker(model)
        lib = PropertyLibrary(model)
        for builder, argument in queries:
            checker.check_reach(getattr(lib, builder)(argument))
        assert any(who != "lp" for who, _, _ in log)
        for who, answer, highs in log:
            if who != "lp":
                assert answer is (who == "witness")
                assert highs is answer, who

    def test_counters_on_fmr05(self, monkeypatch):
        log = self._spy(monkeypatch)
        model = fmr05.model()
        lib = PropertyLibrary(model)
        checker = ParameterizedChecker(model)
        assert checker.check_reach(lib.inv2(0)).verdict == HOLDS
        # both shortcuts fire: a switched-off one fails here
        counters = (checker.lp_calls, checker.bound_prunes, checker.witness_hits)
        assert counters == (73, 38, 7)
        # each query counts from zero, and every question is counted once
        for query in (lib.inv2(0), lib.inv2(1)):
            log.clear()
            checker.check_reach(query)
            whos = [who for who, _, _ in log]
            assert (
                checker.lp_calls, checker.bound_prunes, checker.witness_hits
            ) == (whos.count("lp"), whos.count("bounds"), whos.count("witness"))


class TestReplayFailureEvent:
    def test_unbuildable_system_is_logged(self, naive_checker, monkeypatch, caplog):
        import logging

        import repro.checker.parameterized as parameterized

        def broken(*_args, **_kwargs):
            raise ValueError("no such valuation")

        monkeypatch.setattr(parameterized, "CounterSystem", broken)
        query = PropertyLibrary(naive_voting.model()).inv1(0)
        with caplog.at_level(logging.WARNING, logger="repro.checker.parameterized"):
            assert not naive_checker._replay(query, {"n": 3, "f": 1}, {}, ())
        [record] = caplog.records
        assert record.name == "repro.checker.parameterized"
        assert record.event == "parameterized.replay_error"
        assert record.query == query.name
        assert record.valuation == {"n": 3, "f": 1}
        assert "no such valuation" in record.error
