"""Unit tests for threshold guards and the fluent Var API."""

import pytest

from repro.core.expression import params
from repro.core.guards import Cmp, Guard, Var
from repro.errors import SemanticsError


class TestFluentConstruction:
    def test_simple_ge_guard(self):
        n, t, f = params("n t f")
        guard = Var("b0") >= 2 * t + 1 - f
        assert guard.cmp is Cmp.GE
        assert guard.lhs == (("b0", 1),)
        assert guard.rhs == 2 * t + 1 - f

    def test_lt_guard(self):
        guard = Var("m0") < 1
        assert guard.cmp is Cmp.LT
        assert guard.rhs.evaluate({}) == 1

    def test_gt_desugars_to_ge_plus_one(self):
        guard = Var("cc0") > 0
        assert guard.cmp is Cmp.GE
        assert guard.rhs.evaluate({}) == 1

    def test_sum_lhs(self):
        n, t, f = params("n t f")
        guard = Var("a0") + Var("a1") >= n - t - f
        assert guard.lhs == (("a0", 1), ("a1", 1))

    def test_repeated_variable_accumulates(self):
        guard = Var("v0") + Var("v0") >= 3
        assert guard.lhs == (("v0", 2),)

    def test_sum_rejects_non_variables(self):
        with pytest.raises(TypeError):
            Var("a") + 1  # noqa: B018 - testing the failure


class TestEvaluation:
    def test_ge_semantics(self):
        n, t, f = params("n t f")
        guard = Var("b0") >= 2 * t + 1 - f
        ps = {"n": 4, "t": 1, "f": 1}
        assert guard.evaluate({"b0": 2}, ps)
        assert not guard.evaluate({"b0": 1}, ps)

    def test_lt_semantics(self):
        guard = Var("m0") < 1
        assert guard.evaluate({"m0": 0}, {})
        assert not guard.evaluate({"m0": 1}, {})

    def test_sum_semantics(self):
        n, t, f = params("n t f")
        guard = Var("a0") + Var("a1") >= n - t - f
        ps = {"n": 4, "t": 1, "f": 1}
        assert guard.evaluate({"a0": 1, "a1": 1}, ps)
        assert not guard.evaluate({"a0": 1, "a1": 0}, ps)

    def test_missing_variable_raises(self):
        guard = Var("x") >= 0
        with pytest.raises(SemanticsError):
            guard.evaluate({}, {})


class TestNegation:
    def test_negate_ge(self):
        guard = Var("a") >= 2
        neg = guard.negated()
        assert neg.cmp is Cmp.LT
        for value in range(5):
            assert guard.evaluate({"a": value}, {}) != neg.evaluate({"a": value}, {})

    def test_double_negation_is_identity(self):
        guard = Var("a") + Var("b") < 3
        assert guard.negated().negated() == guard


class TestPresentation:
    def test_str_ge(self):
        n, t, f = params("n t f")
        guard = Var("b0") >= 2 * t + 1 - f
        assert str(guard) == "b0 >= -f + 2*t + 1"

    def test_str_sum(self):
        guard = Var("a0") + Var("a1") >= 2
        assert str(guard) == "a0 + a1 >= 2"

    def test_guards_are_hashable_and_deduplicate(self):
        g1 = Var("a") >= 1
        g2 = Var("a") >= 1
        assert len({g1, g2}) == 1

    def test_variables(self):
        guard = Var("a0") + Var("a1") >= 2
        assert guard.variables() == frozenset({"a0", "a1"})
