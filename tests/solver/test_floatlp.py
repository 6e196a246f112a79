"""Tests for the float (HiGHS) feasibility path and its failure events."""

import logging
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("scipy.optimize._highspy._core")

from repro.solver import floatlp
from repro.solver.floatlp import (
    RowMatrix,
    float_feasible,
    float_solve,
    rounded_integer_model,
)
from repro.solver.linear import LinearProblem
from repro.solver.shortcuts import refutes, satisfies
from repro.solver.simplex import lp_feasible


def _box() -> LinearProblem:
    """2 <= x <= 5, y == x + 1."""
    return (
        LinearProblem()
        .ge({"x": 1}, -2)
        .ge({"x": -1}, 5)
        .eq({"y": 1, "x": -1}, -1)
    )


def _solve(problem):
    return float_solve(RowMatrix(problem))


class TestAnswers:
    def test_feasible_with_vertex(self):
        feasible, assignment = _solve(_box())
        assert feasible is True
        assert 2 - 1e-9 <= assignment["x"] <= 5 + 1e-9
        assert assignment["y"] == pytest.approx(assignment["x"] + 1)

    def test_infeasible(self):
        problem = _box().ge({"x": -1}, 1)  # x <= 1
        assert float_feasible(RowMatrix(problem)) is False

    def test_infeasible_carries_a_checked_certificate(self):
        rows = _box().ge({"x": -1}, 1)  # x <= 1
        matrix = RowMatrix(rows)
        assert float_feasible(matrix) is False
        assert matrix.vertex is None
        certificate = matrix.certificate
        assert all(type(weight) is int for weight in certificate.values())
        assert refutes(rows, certificate)
        # x >= 2 and x <= 1 are the contradiction; y's row is not needed
        assert set(certificate) == {0, 3}

    def test_constant_rows_are_refuted_exactly(self):
        feasible, certificate = float_solve(RowMatrix([((), -1, False)]))
        assert (feasible, certificate) == (False, {0: 1})
        feasible, certificate = float_solve(
            RowMatrix([((), 0, False), ((), 2, True)])
        )
        assert (feasible, certificate) == (False, {1: -1})

    def test_matrix_extends_its_base(self):
        rows = _box()
        base = RowMatrix(rows[:1])
        base.csr()
        extended = RowMatrix(rows, base)
        assert extended.csr() == RowMatrix(rows).csr()
        assert len(base.csr()[4]) == 1  # the base is not mutated

    def test_empty_problem_feasible(self):
        assert _solve(LinearProblem()) == (True, {})

    def test_rounded_model_checks_exactly(self):
        problem = _box()
        model = rounded_integer_model(RowMatrix(problem))
        assert model is not None
        assert all(v >= 0 for v in model.values())
        assert satisfies(problem, model)


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
    assert float_feasible(RowMatrix(problem)) == lp_feasible(problem).feasible


def _random_rows(data, variables, rows, span):
    problem = LinearProblem()
    for _ in range(data.draw(st.integers(1, rows))):
        coeffs = {
            f"x{j}": data.draw(st.integers(-span, span), label="coeff")
            for j in range(data.draw(st.integers(1, variables)))
        }
        const = data.draw(st.integers(-2 * span, 2 * span), label="const")
        if data.draw(st.booleans(), label="is_eq"):
            problem.eq(coeffs, const)
        else:
            problem.ge(coeffs, const)
    return problem


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_infeasible_answers_are_exact(data):
    """``False`` from the float path implies ``False`` from the exact
    simplex, and the certificate behind it checks."""
    problem = _random_rows(data, variables=6, rows=8, span=5)
    matrix = RowMatrix(problem)
    if float_feasible(matrix) is False:
        assert lp_feasible(problem).feasible is False
        assert refutes(matrix.rows, matrix.certificate)


class TestThreads:
    """Each thread has its own HiGHS object, so threads agree."""

    def test_four_threads_match_one(self):
        rng = random.Random(7)
        problems = []
        for _ in range(120):
            problem = LinearProblem()
            for _ in range(rng.randint(3, 12)):
                coeffs = {f"x{j}": rng.randint(-4, 4) for j in range(8)}
                if rng.random() < 0.3:
                    problem.eq(coeffs, rng.randint(-8, 8))
                else:
                    problem.ge(coeffs, rng.randint(-8, 8))
            problems.append(problem)
        expected = [float_solve(RowMatrix(rows)) for rows in problems]
        assert {True, False} <= {feasible for feasible, _ in expected}

        barrier = threading.Barrier(4)
        results = [None] * 4

        def solve_all(slot):
            barrier.wait(timeout=60)
            results[slot] = [
                [float_solve(RowMatrix(rows)) for rows in problems]
                for _ in range(5)
            ]

        threads = [
            threading.Thread(target=solve_all, args=(slot,)) for slot in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for answers in results:
            assert answers == [expected] * 5


class _Handle:
    """A real HiGHS object with some methods replaced."""

    def __init__(self, **replaced):
        self._real = floatlp._core._Highs()
        self._real.setOptionValue("log_to_console", False)
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestFailureEvents:
    """Undecided answers are logged as one structured event each."""

    @staticmethod
    def _patch(monkeypatch, **replaced):
        handle = _Handle(**replaced)
        monkeypatch.setattr(floatlp, "_highs", lambda: handle)

    def test_solver_error_is_logged(self, monkeypatch, caplog):
        def broken():
            raise FloatingPointError("boom")

        self._patch(monkeypatch, run=broken)
        with caplog.at_level(logging.WARNING, logger="repro.solver.floatlp"):
            assert _solve(_box()) == (None, None)
        [record] = caplog.records
        assert record.name == "repro.solver.floatlp"
        assert record.event == "floatlp.error"
        assert "boom" in record.error
        assert (record.rows, record.columns) == (3, 2)

    def test_undecided_status_is_logged(self, monkeypatch, caplog):
        limit = floatlp._core.HighsModelStatus.kIterationLimit
        self._patch(monkeypatch, getModelStatus=lambda: limit)
        with caplog.at_level(logging.WARNING, logger="repro.solver.floatlp"):
            assert float_feasible(RowMatrix(_box())) is None
        [record] = caplog.records
        assert record.event == "floatlp.undecided"
        assert record.status == int(limit)

    def test_infeasible_without_a_ray_is_undecided(self, monkeypatch, caplog):
        self._patch(monkeypatch, getDualRay=lambda: (None, False, []))
        matrix = RowMatrix(_box().ge({"x": -1}, 1))
        with caplog.at_level(logging.WARNING, logger="repro.solver.floatlp"):
            assert float_feasible(matrix) is None
        assert matrix.certificate is None
        [record] = caplog.records
        assert record.event == "floatlp.uncertified"
        assert record.has_ray is False

    def test_a_ray_that_proves_nothing_is_undecided(self, monkeypatch, caplog):
        # every row weighted 1: the x terms cancel, y's does not
        self._patch(monkeypatch, getDualRay=lambda: (None, True, [1.0] * 4))
        with caplog.at_level(logging.WARNING, logger="repro.solver.floatlp"):
            assert float_feasible(RowMatrix(_box().ge({"x": -1}, 1))) is None
        [record] = caplog.records
        assert record.event == "floatlp.uncertified"

    def test_decided_answers_log_nothing(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.solver.floatlp"):
            float_feasible(RowMatrix(_box()))
            float_feasible(RowMatrix(_box().ge({"x": -1}, 1)))
        assert caplog.records == []
