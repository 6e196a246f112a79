"""Unit tests for parameter expressions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.expression import ParamExpr, params
from repro.errors import SemanticsError


class TestConstruction:
    def test_params_splits_names(self):
        n, t, f = params("n t f")
        assert n.parameters() == ("n",)
        assert t.coefficient("t") == 1

    def test_params_accepts_iterable(self):
        (x,) = params(["x"])
        assert x.coefficient("x") == 1

    def test_constant(self):
        c = ParamExpr.constant(7)
        assert c.parameters() == ()
        assert c.evaluate({}) == 7

    def test_coerce_int(self):
        assert ParamExpr.coerce(3) == ParamExpr.constant(3)

    def test_coerce_passthrough(self):
        n, = params("n")
        assert ParamExpr.coerce(n) is n

    def test_coerce_rejects_float(self):
        with pytest.raises(TypeError):
            ParamExpr.coerce(1.5)

    def test_zero_coefficients_dropped(self):
        n, = params("n")
        expr = n - n
        assert expr.parameters() == ()


class TestArithmetic:
    def test_addition_merges_terms(self):
        n, t = params("n t")
        expr = n + t + n
        assert expr.coefficient("n") == 2
        assert expr.coefficient("t") == 1

    def test_subtraction(self):
        n, t = params("n t")
        expr = n - 2 * t - 1
        assert expr.evaluate({"n": 10, "t": 3}) == 3

    def test_right_subtraction(self):
        t, = params("t")
        expr = 5 - t
        assert expr.evaluate({"t": 2}) == 3

    def test_scalar_multiplication(self):
        t, = params("t")
        assert (3 * t).evaluate({"t": 4}) == 12
        assert (t * 3).evaluate({"t": 4}) == 12

    def test_multiplication_rejects_non_int(self):
        t, = params("t")
        with pytest.raises(TypeError):
            t * 0.5

    def test_negation(self):
        n, = params("n")
        assert (-n).evaluate({"n": 5}) == -5

    def test_paper_guard_rhs(self):
        # The MMR14 threshold 2t + 1 - f.
        n, t, f = params("n t f")
        expr = 2 * t + 1 - f
        assert expr.evaluate({"n": 4, "t": 1, "f": 1}) == 2


class TestEvaluation:
    def test_missing_parameter_raises(self):
        n, = params("n")
        with pytest.raises(SemanticsError):
            n.evaluate({})

    def test_str_rendering(self):
        n, t = params("n t")
        assert str(2 * t + 1) == "2*t + 1"
        assert str(n - t) == "n - t"
        assert str(ParamExpr.constant(0)) == "0"


@given(
    a=st.integers(-5, 5),
    b=st.integers(-5, 5),
    c=st.integers(-5, 5),
    n=st.integers(0, 100),
    t=st.integers(0, 100),
)
def test_evaluation_is_linear(a, b, c, n, t):
    pn, pt = params("n t")
    expr = a * pn + b * pt + c
    assert expr.evaluate({"n": n, "t": t}) == a * n + b * t + c


@given(n=st.integers(0, 50), t=st.integers(0, 50))
def test_expression_equality_is_canonical(n, t):
    pn, pt = params("n t")
    left = pn + pt
    right = pt + pn
    assert left == right
    assert hash(left) == hash(right)
    assert left.evaluate({"n": n, "t": t}) == right.evaluate({"n": n, "t": t})
