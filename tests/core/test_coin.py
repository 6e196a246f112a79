"""Unit tests for the common-coin probabilistic automaton."""

from fractions import Fraction

import pytest

from repro.core.coin import CoinAutomaton, standard_coin_automaton
from repro.core.guards import Var
from repro.core.locations import LocKind, border, final, initial
from repro.core.rules import ProbRule, dirac, fair_coin, make_update
from repro.errors import ValidationError

SHARED = ("b0", "b1")
COINS = ("cc0", "cc1")


class TestStandardCoin:
    def test_structure(self):
        coin = standard_coin_automaton(SHARED, COINS)
        assert {l.name for l in coin.border_locations} == {"J2"}
        assert {l.name for l in coin.initial_locations} == {"I2"}
        assert {l.name for l in coin.final_locations} == {"C0", "C1"}
        assert coin.size() == (6, 6)

    def test_single_non_dirac_rule(self):
        coin = standard_coin_automaton(SHARED, COINS)
        (toss,) = [rule for rule in coin.rules if not rule.is_dirac]
        assert toss.name == "rb"
        assert toss.probability("T0") == Fraction(1, 2)

    def test_canonical(self):
        assert standard_coin_automaton(SHARED, COINS).is_canonical()

    def test_trigger_guard_attached(self):
        from repro.core.expression import params

        n, = params("n")
        coin = standard_coin_automaton(
            SHARED, COINS, trigger_guard=(Var("b0") >= n,)
        )
        assert coin.rule("rb").guard

    def test_requires_two_coin_vars(self):
        with pytest.raises(ValidationError):
            standard_coin_automaton(SHARED, ("cc0",))

    def test_publication_updates(self):
        coin = standard_coin_automaton(SHARED, COINS)
        assert coin.rule("rc").update == (("cc0", 1),)
        assert coin.rule("rd").update == (("cc1", 1),)


class TestValidation:
    def _make(self, rules):
        return CoinAutomaton(
            "c",
            [border("J2"), initial("I2"), final("C0", value=0)],
            SHARED,
            COINS,
            rules,
        )

    def test_coin_guard_rejected(self):
        with pytest.raises(ValidationError):
            self._make([dirac("r", "J2", "I2", guard=(Var("cc0") >= 1,))])

    def test_shared_update_rejected(self):
        with pytest.raises(ValidationError):
            self._make([dirac("r", "J2", "I2", update=make_update({"b0": 1}))])

    def test_unknown_branch_location_rejected(self):
        with pytest.raises(ValidationError):
            self._make([fair_coin("r", "I2", "C0", "nowhere")])

    def test_simple_guard_allowed(self):
        coin = self._make([dirac("r", "J2", "I2", guard=(Var("b0") >= 1,))])
        assert coin.rule("r").guard

    def test_rules_from(self):
        coin = standard_coin_automaton(SHARED, COINS)
        assert {r.name for r in coin.rules_from("I2")} == {"rb"}

    def test_edges_cover_branches(self):
        coin = standard_coin_automaton(SHARED, COINS)
        edges = {(s, d) for s, d, _ in coin.edges()}
        assert ("I2", "T0") in edges and ("I2", "T1") in edges
