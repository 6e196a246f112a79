"""Tests for the exact phase-1 simplex, cross-checked against scipy."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.solver.linear import LinearProblem
from repro.solver.shortcuts import satisfies
from repro.solver.simplex import lp_feasible


class TestBasics:
    def test_empty_problem_feasible(self):
        assert lp_feasible(LinearProblem()).feasible

    def test_simple_feasible(self):
        p = LinearProblem().ge({"x": 1}, -2)  # x >= 2
        result = lp_feasible(p)
        assert result.feasible
        assert result.assignment["x"] >= 2

    def test_simple_infeasible(self):
        p = LinearProblem().ge({"x": -1}, -1)  # -x - 1 >= 0 => x <= -1
        assert not lp_feasible(p).feasible

    def test_conflicting_bounds(self):
        p = LinearProblem()
        p.ge({"x": 1}, -5)   # x >= 5
        p.le({"x": 1}, -3)   # x <= 3
        assert not lp_feasible(p).feasible

    def test_equality(self):
        p = LinearProblem().eq({"x": 1, "y": -1}, 0).ge({"x": 1}, -1)
        result = lp_feasible(p)
        assert result.feasible
        assert result.assignment.get("x", 0) == result.assignment.get("y", 0)

    def test_fractional_vertex(self):
        p = LinearProblem()
        p.eq({"x": 2}, -1)  # 2x = 1
        result = lp_feasible(p)
        assert result.feasible
        assert result.assignment["x"] == Fraction(1, 2)

    def test_integer_rows_give_an_exact_fraction_vertex(self):
        # int / int in a pivot would give the float 0.333..., which
        # neither is a Fraction nor equals 1/3.
        p = LinearProblem().eq({"x": 3}, -1)  # 3x = 1
        before = list(p)
        result = lp_feasible(p)
        assert result.feasible
        assert type(result.assignment["x"]) is Fraction
        assert result.assignment["x"] == Fraction(1, 3)
        assert p == before

    def test_assignment_satisfies_problem(self):
        p = LinearProblem()
        p.ge({"x": 1, "y": 2}, -4)   # x + 2y >= 4
        p.le({"x": 1, "y": 1}, -10)  # x + y <= 10
        result = lp_feasible(p)
        assert result.feasible
        assert all(v >= 0 for v in result.assignment.values())
        assert satisfies(p, result.assignment)

    def test_flow_conservation_shape(self):
        # A miniature counter-system flow: n0 = in - out chain.
        p = LinearProblem()
        p.eq({"start": 1, "r1": -1}, 0)          # everyone leaves start
        p.eq({"r1": 1, "r2": -1, "stay": -1}, 0)  # split at the middle
        p.ge({"start": 1}, -3)                    # at least 3 processes
        result = lp_feasible(p)
        assert result.feasible
        assert all(v >= 0 for v in result.assignment.values())
        assert satisfies(p, result.assignment)


def _scipy_feasible(constraints, n):
    """Feasibility of the same system via scipy.linprog (floats)."""
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, const, sense in constraints:
        row = [0.0] * n
        for j, c in coeffs.items():
            row[j] = float(c)
        if sense == "==":
            a_eq.append(row)
            b_eq.append(-float(const))
        else:  # coeffs.x + const >= 0 -> -coeffs.x <= const
            a_ub.append([-v for v in row])
            b_ub.append(float(const))
    result = linprog(
        c=[0.0] * n,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(0, None)] * n,
        method="highs",
    )
    return result.status == 0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_agrees_with_scipy_on_random_systems(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 5))
    constraints = []
    problem = LinearProblem()
    for _ in range(m):
        coeffs = {
            j: data.draw(st.integers(-3, 3), label="coeff") for j in range(n)
        }
        coeffs = {j: c for j, c in coeffs.items() if c}
        const = data.draw(st.integers(-6, 6), label="const")
        sense = data.draw(st.sampled_from([">=", "=="]), label="sense")
        constraints.append((coeffs, const, sense))
        named = {f"x{j}": c for j, c in coeffs.items()}
        if sense == "==":
            problem.eq(named, const)
        else:
            problem.ge(named, const)
    ours = lp_feasible(problem).feasible
    reference = _scipy_feasible(constraints, n)
    assert ours == reference
