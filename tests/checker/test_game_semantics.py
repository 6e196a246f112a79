"""Directed tests for the Lemma-2 game semantics (angelic coin).

Build tiny models where the game verdict is known by construction:

* a protocol that can finish *without deciding* even from a uniform
  start violates C2′ — the adversary needs no coin cooperation;
* the MMR14-style structure satisfies C2′ because with a uniform start
  the only coin-independent exit is the decide branch.
"""

import pytest

from repro.core.builder import AutomatonBuilder
from repro.core.coin import standard_coin_automaton
from repro.core.environment import ge, gt, standard_environment
from repro.core.expression import params
from repro.core.system import SystemModel
from repro.checker.explicit import ExplicitChecker
from repro.checker.result import HOLDS, VIOLATED
from repro.spec.properties import PropertyLibrary

VAL = {"n": 4, "t": 1, "f": 1}


def tiny_model(escape_rule: bool) -> SystemModel:
    """One-step protocol: vote, reach M_v, decide on a matching coin.

    With ``escape_rule`` a process may instead slip into ``E0`` without
    consulting the coin — the C2′ violation the game must find.
    """
    n, t, f = params("n t f")
    b = AutomatonBuilder("tiny" + ("-escape" if escape_rule else ""))
    b.shared("v0", "v1")
    b.coins("cc0", "cc1")
    b.border("J0", value=0)
    b.border("J1", value=1)
    b.initial("I0", value=0)
    b.initial("I1", value=1)
    b.location("M0", value=0)
    b.location("M1", value=1)
    b.final("E0", value=0)
    b.final("E1", value=1)
    b.final("D0", value=0, decision=True)
    b.final("D1", value=1, decision=True)
    b.border_entry("J0", "I0", name="r1")
    b.border_entry("J1", "I1", name="r2")
    b.rule("r3", "I0", "M0", update={"v0": 1})
    b.rule("r4", "I1", "M1", update={"v1": 1})
    b.rule("r5", "M0", "D0", guard=b.var("cc0") > 0)
    b.rule("r6", "M0", "E0", guard=b.var("cc1") > 0)
    b.rule("r7", "M1", "D1", guard=b.var("cc1") > 0)
    b.rule("r8", "M1", "E1", guard=b.var("cc0") > 0)
    if escape_rule:
        b.rule("r9", "M0", "E0", guard=b.var("v0") >= 1)
    b.round_switch("E0", "J0", name="rs1")
    b.round_switch("E1", "J1", name="rs2")
    b.round_switch("D0", "J0", name="rs3")
    b.round_switch("D1", "J1", name="rs4")
    automaton = b.build(check="multi_round")
    env = standard_environment(
        resilience=(gt(n, 3 * t), ge(t, f), ge(f, 0)),
        parameters="n t f",
    )
    return SystemModel(
        name=automaton.name,
        environment=env,
        process=automaton,
        coin=standard_coin_automaton(automaton.shared_vars, ("cc0", "cc1")),
        category="B",
    )


class TestGameVerdicts:
    def test_clean_model_satisfies_c2prime(self):
        model = tiny_model(escape_rule=False)
        checker = ExplicitChecker(model, VAL)
        lib = PropertyLibrary(model)
        assert checker.check_game(lib.c2prime(0)).verdict == HOLDS
        assert checker.check_game(lib.c2prime(1)).verdict == HOLDS

    def test_escape_rule_violates_c2prime(self):
        model = tiny_model(escape_rule=True)
        checker = ExplicitChecker(model, VAL)
        lib = PropertyLibrary(model)
        result = checker.check_game(lib.c2prime(0))
        assert result.verdict == VIOLATED
        # The strategy witness ends with the coin-free escape into E0.
        assert any(action.rule == "r9" for action in result.counterexample.schedule)

    def test_clean_model_satisfies_c1(self):
        """With one coin and exclusive M-population... C1 game holds only
        when mixed occupancy cannot outlive the coin: here M0 and M1 can
        coexist, so the angel cannot save both sides — C1 is violated,
        demonstrating the role the quorum-exclusive guards play in the
        real category-B models."""
        model = tiny_model(escape_rule=False)
        checker = ExplicitChecker(model, VAL)
        lib = PropertyLibrary(model)
        result = checker.check_game(lib.c1())
        assert result.verdict == VIOLATED  # mixed M0/M1 forces mixed finals

    def test_inv1_needs_quorum_guards(self):
        """Without quorum-exclusive guards M0/M1 coexist, so a decision
        D0 (coin 0) can share a round with E1 (also coin 0) — Inv1
        fails.  This isolates exactly what the strong-guard counting
        arguments contribute in the real category-B models."""
        model = tiny_model(escape_rule=False)
        checker = ExplicitChecker(model, VAL)
        lib = PropertyLibrary(model)
        assert checker.check_reach(lib.inv1(0)).verdict == VIOLATED

    def test_opposite_decisions_impossible_single_round(self):
        """D0 and D1 in one round would need both coin outcomes — the
        single coin toss forbids it even in the guard-free model."""
        from repro.spec.propositions import some_at
        from repro.spec.queries import ReachQuery

        model = tiny_model(escape_rule=False)
        checker = ExplicitChecker(model, VAL)
        query = ReachQuery(
            name="both-decide",
            formula="A F (EX{D0}) → G (¬EX{D1})",
            events=(some_at("D0"), some_at("D1")),
        )
        assert checker.check_reach(query).verdict == HOLDS
