"""Tests for the float (HiGHS) feasibility path and its failure events."""

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

OptimizeResult = pytest.importorskip("scipy.optimize").OptimizeResult

from repro.solver import floatlp
from repro.solver.floatlp import (
    RowMatrix,
    float_feasible,
    float_solve,
    rounded_integer_model,
)
from repro.solver.linear import LinearProblem
from repro.solver.simplex import lp_feasible


def _box() -> LinearProblem:
    """2 <= x <= 5, y == x + 1."""
    return (
        LinearProblem()
        .ge({"x": 1}, -2)
        .ge({"x": -1}, 5)
        .eq({"y": 1, "x": -1}, -1)
    )


class TestAnswers:
    def test_feasible_with_vertex(self):
        feasible, assignment = float_solve(_box())
        assert feasible is True
        assert 2 - 1e-9 <= assignment["x"] <= 5 + 1e-9
        assert assignment["y"] == pytest.approx(assignment["x"] + 1)

    def test_infeasible(self):
        problem = _box().ge({"x": -1}, 1)  # x <= 1
        assert float_feasible(problem) is False

    def test_matrix_and_problem_agree(self):
        problem = _box()
        assert float_solve(RowMatrix(problem.rows())) == float_solve(problem)

    def test_matrix_extends_its_base(self):
        problem = _box()
        rows = problem.rows()
        base = RowMatrix(rows[:1])
        base.csr()
        extended = RowMatrix(rows, base)
        assert extended.csr() == RowMatrix(rows).csr()
        assert len(base.csr()[4]) == 1  # the base is not mutated

    def test_empty_problem_feasible(self):
        assert float_solve(LinearProblem()) == (True, {})

    def test_rounded_model_checks_exactly(self):
        problem = _box()
        model = rounded_integer_model(RowMatrix(problem.rows()))
        assert model is not None and problem.check(model)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_agrees_with_exact_simplex(data):
    n = data.draw(st.integers(1, 4))
    problem = LinearProblem()
    for _ in range(data.draw(st.integers(1, 5))):
        coeffs = {
            f"x{j}": data.draw(st.integers(-3, 3), label="coeff") for j in range(n)
        }
        const = data.draw(st.integers(-6, 6), label="const")
        if data.draw(st.booleans(), label="is_eq"):
            problem.eq(coeffs, const)
        else:
            problem.ge(coeffs, const)
    assert float_feasible(problem) == lp_feasible(problem).feasible


class TestFailureEvents:
    """Undecided answers are logged as one structured event each."""

    def test_solver_error_is_logged(self, monkeypatch, caplog):
        def broken(**_kwargs):
            raise FloatingPointError("boom")

        monkeypatch.setattr(floatlp, "milp", broken)
        with caplog.at_level(logging.WARNING, logger="repro.solver.floatlp"):
            assert float_solve(_box()) == (None, None)
        [record] = caplog.records
        assert record.name == "repro.solver.floatlp"
        assert record.event == "floatlp.error"
        assert "boom" in record.error
        assert (record.rows, record.columns) == (3, 2)

    def test_undecided_status_is_logged(self, monkeypatch, caplog):
        def gives_up(**_kwargs):
            return OptimizeResult(status=1, message="iteration limit", x=None)

        monkeypatch.setattr(floatlp, "milp", gives_up)
        with caplog.at_level(logging.WARNING, logger="repro.solver.floatlp"):
            assert float_feasible(_box()) is None
        [record] = caplog.records
        assert record.event == "floatlp.undecided"
        assert record.status == 1

    def test_decided_answers_log_nothing(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.solver.floatlp"):
            float_feasible(_box())
            float_feasible(_box().ge({"x": -1}, 1))
        assert caplog.records == []
