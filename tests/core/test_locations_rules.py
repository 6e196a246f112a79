"""Unit tests for locations, rules and probabilistic rules."""

from fractions import Fraction

import pytest

from repro.core.guards import Var
from repro.core.locations import (
    LocKind,
    Location,
    border,
    final,
    initial,
    intermediate,
    start_locations,
)
from repro.core.rules import ProbRule, Rule, dirac, fair_coin, make_update
from repro.errors import ValidationError


class TestLocations:
    def test_constructors_set_kind(self):
        assert border("J0").kind is LocKind.BORDER
        assert initial("I0").kind is LocKind.INITIAL
        assert intermediate("S").kind is LocKind.INTERMEDIATE
        assert final("E0").kind is LocKind.FINAL

    def test_value_recorded(self):
        assert border("J0", value=0).value == 0
        assert intermediate("S").value is None

    def test_decision_requires_final(self):
        with pytest.raises(ValueError):
            Location("D0", LocKind.INTERMEDIATE, 0, decision=True)

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError):
            Location("X", LocKind.INITIAL, value=2)

    def test_decision_final_ok(self):
        loc = final("D0", value=0, decision=True)
        assert loc.decision


class TestStartLocations:
    def test_border_locations_start_a_round(self):
        locs = (initial("I0", value=0), border("J0", value=0),
                intermediate("S"), border("J1", value=1))
        assert start_locations(locs) == (locs[1], locs[3])

    def test_initial_locations_start_when_there_is_no_border(self):
        locs = (initial("I0", value=0), intermediate("S"),
                initial("I1", value=1), final("E0", value=0))
        assert start_locations(locs) == (locs[0], locs[2])


class TestUpdates:
    def test_make_update_canonicalizes(self):
        assert make_update({"b": 1, "a": 2}) == (("a", 2), ("b", 1))

    def test_zero_increments_dropped(self):
        assert make_update({"a": 0}) == ()

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            make_update({"a": -1})


class TestRule:
    def test_guard_and_update_variables(self):
        rule = Rule(
            "r", "A", "B",
            guard=(Var("x") >= 1, Var("y") < 2),
            update=make_update({"z": 1}),
        )
        assert rule.guard_variables() == frozenset({"x", "y"})
        assert rule.updated_variables() == frozenset({"z"})

    def test_self_loop(self):
        assert Rule("r", "A", "A").is_self_loop
        assert not Rule("r", "A", "B").is_self_loop

    def test_str(self):
        rule = Rule("r3", "I0", "S0", update=make_update({"b0": 1}))
        assert "r3" in str(rule) and "b0+=1" in str(rule)


class TestProbRule:
    def test_fair_coin_is_half_half(self):
        rule = fair_coin("rb", "I2", "T0", "T1")
        assert rule.probability("T0") == Fraction(1, 2)
        assert rule.probability("T1") == Fraction(1, 2)
        assert rule.probability("elsewhere") == 0
        assert not rule.is_dirac

    def test_dirac_helper(self):
        rule = dirac("ra", "J2", "I2")
        assert rule.is_dirac
        assert rule.probability("I2") == 1

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            ProbRule("r", "A", (("B", Fraction(1, 2)), ("C", Fraction(1, 3))))

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValidationError):
            ProbRule("r", "A", ())

    def test_non_positive_probability_rejected(self):
        with pytest.raises(ValidationError):
            ProbRule("r", "A", (("B", Fraction(0)), ("C", Fraction(1))))

    def test_biased_coin_allowed(self):
        # An epsilon-good (but not strong) coin is a legal distribution.
        rule = ProbRule(
            "r", "A", (("B", Fraction(1, 3)), ("C", Fraction(2, 3)))
        )
        assert rule.probability("C") == Fraction(2, 3)
