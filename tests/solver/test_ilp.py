"""Tests for branch & bound integer feasibility, vs brute force."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver.ilp import SAT, UNKNOWN, UNSAT, ilp_feasible
from repro.solver.linear import LinearProblem
from repro.solver.shortcuts import satisfies


class TestBasics:
    def test_integral_solution_found(self):
        p = LinearProblem().ge({"x": 1}, -3)  # x >= 3
        result = ilp_feasible(p)
        assert result.status == SAT
        assert result.model["x"] >= 3

    def test_fractional_only_is_unsat(self):
        p = LinearProblem().eq({"x": 2}, -1)  # 2x = 1: no integer
        assert ilp_feasible(p).status == UNSAT

    def test_branching_finds_interior_point(self):
        # 2x = y, y <= 5, y >= 3 -> y = 4, x = 2
        p = LinearProblem()
        p.eq({"x": 2, "y": -1}, 0)
        p.le({"y": 1}, -5)
        p.ge({"y": 1}, -3)
        result = ilp_feasible(p)
        assert result.status == SAT
        assert result.model == {"x": 2, "y": 4}

    def test_branching_leaves_the_input_rows_untouched(self):
        # 2x = y, 3 <= y <= 5 needs a branch on x; each branch row goes
        # into a copy of its node, never into the caller's rows.
        p = LinearProblem()
        p.eq({"x": 2, "y": -1}, 0)
        p.le({"y": 1}, -5)
        p.ge({"y": 1}, -3)
        before = list(p)
        result = ilp_feasible(p)
        assert result.status == SAT and result.nodes > 1
        assert p == before

    def test_reads_a_tuple_of_rows(self):
        rows = tuple(LinearProblem().ge({"x": 2}, -3).le({"x": 1}, -2))
        result = ilp_feasible(rows)
        assert result.status == SAT
        assert result.model == {"x": 2}

    def test_model_verified(self):
        p = LinearProblem()
        p.ge({"a": 3, "b": -2}, -1)
        p.eq({"a": 1, "b": 1}, -7)
        result = ilp_feasible(p)
        assert result.status == SAT
        assert all(v >= 0 for v in result.model.values())
        assert satisfies(p, result.model)

    def test_node_budget_reports_unknown(self):
        # 2x - 2y = 1 has no integer solution but an unbounded LP
        # relaxation; a tiny node budget must give up cleanly.
        p = LinearProblem().eq({"x": 2, "y": -2}, -1)
        result = ilp_feasible(p, max_nodes=3)
        assert result.status in (UNSAT, UNKNOWN)

    def test_past_deadline_reports_unknown_after_one_node(self):
        # feasible, so without the deadline it would answer SAT
        p = LinearProblem().ge({"x": 1}, -3)
        result = ilp_feasible(p, deadline=time.perf_counter() - 1.0)
        assert result.status == UNKNOWN
        assert result.nodes <= 1 and result.pivots == 0

    def test_future_deadline_changes_nothing(self):
        p = LinearProblem().eq({"x": 2}, -1)
        far = time.perf_counter() + 3600.0
        assert ilp_feasible(p, deadline=far) == ilp_feasible(p)

    def test_resilience_condition_instance(self):
        # n > 3t, t >= f >= 1: the smallest witness is (4, 1, 1).
        p = LinearProblem()
        p.ge({"n": 1, "t": -3}, -1)
        p.ge({"t": 1, "f": -1}, 0)
        p.ge({"f": 1}, -1)
        result = ilp_feasible(p)
        assert result.status == SAT
        n, t, f = result.model["n"], result.model["t"], result.model["f"]
        assert n > 3 * t and t >= f >= 1


def _brute_force(problem: LinearProblem, box: int) -> bool:
    names = sorted({name for coeffs, _const, _is_eq in problem for name, _c in coeffs})
    for point in itertools.product(range(box + 1), repeat=len(names)):
        if satisfies(problem, dict(zip(names, point))):
            return True
    return False


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_agrees_with_brute_force_in_a_box(data):
    """Within a bounding box, B&B and brute force agree exactly."""
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 4))
    box = 4
    problem = LinearProblem()
    for _ in range(m):
        coeffs = {
            f"x{j}": data.draw(st.integers(-3, 3), label="coeff")
            for j in range(n)
        }
        const = data.draw(st.integers(-8, 8), label="const")
        sense = data.draw(st.sampled_from([">=", "=="]), label="sense")
        if sense == "==":
            problem.eq(coeffs, const)
        else:
            problem.ge(coeffs, const)
    # Close the box so both searches consider the same space.
    for j in range(n):
        problem.le({f"x{j}": 1}, -box)
    ours = ilp_feasible(problem, max_nodes=20_000)
    assert ours.status in (SAT, UNSAT)
    assert (ours.status == SAT) == _brute_force(problem, box)
    if ours.status == SAT:
        assert all(v >= 0 for v in ours.model.values())
        assert satisfies(problem, ours.model)
