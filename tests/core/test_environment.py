"""Unit tests for environments and resilience conditions."""

import pytest

from repro.core.environment import Environment, eq, ge, gt, le, lt, standard_environment
from repro.core.expression import ParamExpr, params
from repro.errors import ModelError, SemanticsError

N, T, F = params("n t f")


def mmr_env():
    return standard_environment(
        resilience=(gt(N, 3 * T), ge(T, F), ge(F, 0)),
        parameters="n t f",
        num_processes=N - F,
    )


class TestConstraints:
    def test_operators(self):
        assert gt(N, 3 * T).holds({"n": 4, "t": 1})
        assert not gt(N, 3 * T).holds({"n": 3, "t": 1})
        assert ge(T, F).holds({"t": 1, "f": 1})
        assert le(F, T).holds({"t": 1, "f": 0})
        assert lt(F, T).holds({"t": 1, "f": 0})
        assert eq(F, T).holds({"t": 1, "f": 1})

    def test_unknown_operator_rejected(self):
        from repro.core.environment import Constraint

        with pytest.raises(ModelError):
            Constraint(N, "!=", T)

    def test_ge_zero_forms_strict(self):
        (form,) = gt(N, 3 * T).ge_zero_forms()
        # n > 3t over integers is n - 3t - 1 >= 0.
        assert form.evaluate({"n": 4, "t": 1}) == 0
        assert form.evaluate({"n": 3, "t": 1}) == -1

    def test_ge_zero_forms_equality_gives_two(self):
        forms = eq(N, T).ge_zero_forms()
        assert len(forms) == 2

    def test_str(self):
        assert str(gt(N, 3 * T)) == "n > 3*t"


class TestEnvironment:
    def test_admits(self):
        env = mmr_env()
        assert env.admits({"n": 4, "t": 1, "f": 1})
        assert not env.admits({"n": 3, "t": 1, "f": 1})
        assert not env.admits({"n": 4, "t": 1, "f": 2})  # f > t

    def test_negative_parameter_rejected(self):
        env = mmr_env()
        with pytest.raises(SemanticsError):
            env.admits({"n": 4, "t": 1, "f": -1})

    def test_missing_parameter_rejected(self):
        env = mmr_env()
        with pytest.raises(SemanticsError):
            env.admits({"n": 4, "t": 1})

    def test_system_size(self):
        env = mmr_env()
        assert env.system_size({"n": 4, "t": 1, "f": 1}) == (3, 1)

    def test_system_size_rejects_inadmissible(self):
        env = mmr_env()
        with pytest.raises(SemanticsError):
            env.system_size({"n": 3, "t": 1, "f": 1})

    def test_undeclared_parameter_in_rc_rejected(self):
        cc, = params("cc")
        with pytest.raises(ModelError):
            Environment(
                parameters=("n",),
                resilience=(ge(cc, 1),),
                num_processes=ParamExpr.var("n"),
            )

    def test_duplicate_parameters_rejected(self):
        with pytest.raises(ModelError):
            Environment(
                parameters=("n", "n"),
                resilience=(),
                num_processes=ParamExpr.var("n"),
            )

    def test_describe_mentions_everything(self):
        text = mmr_env().describe()
        assert "n > 3*t" in text and "-f + n" in text
