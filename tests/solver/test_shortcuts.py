"""Tests for the exact feasibility shortcuts, against the exact simplex."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver.shortcuts import integer_witness, propagate, satisfies
from repro.solver.simplex import lp_feasible


def _row(coeffs, const, is_eq=False):
    return tuple(sorted(coeffs.items())), const, is_eq


def _holds(rows, point):
    """An independent exact check: ``point`` is non-negative and every
    row holds at it, summed in Fractions."""
    if any(value < 0 for value in point.values()):
        return False
    for coeffs, const, is_eq in rows:
        value = Fraction(const) + sum(
            Fraction(coeff) * point.get(name, 0) for name, coeff in coeffs
        )
        if value < 0 or (is_eq and value != 0):
            return False
    return True


@st.composite
def systems(draw):
    """Rows over at most 4 variables with small integer coefficients."""
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = {f"x{j}": draw(st.integers(-3, 3)) for j in range(n)}
        rows.append(
            _row(
                {name: c for name, c in coeffs.items() if c},
                draw(st.integers(-6, 6)),
                draw(st.booleans()),
            )
        )
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=systems(), split=st.integers(0, 6))
def test_an_infeasible_pass_is_exactly_infeasible(rows, split):
    """Propagation says infeasible only where the simplex does, also
    when a parent's bounds are carried over to a child's new rows.  The
    simplex reads the integer rows as they are and answers in exact
    Fractions: its vertex satisfies every row."""
    result = lp_feasible(rows)
    feasible = result.feasible
    if feasible:
        assert all(type(value) is Fraction for value in result.assignment.values())
        assert _holds(rows, result.assignment)
    if propagate(rows) is None:
        assert feasible is False
    parent = propagate(rows[:split])
    if parent is not None and propagate(rows[split:], parent) is None:
        assert feasible is False


@settings(max_examples=200, deadline=None)
@given(
    rows=systems(),
    noise=st.lists(st.floats(-0.6, 0.6), min_size=4, max_size=4),
)
def test_an_accepted_witness_satisfies_the_problem(rows, noise):
    result = lp_feasible(rows)
    names = [f"x{j}" for j in range(4)]
    if result.feasible:  # the exact vertex, perturbed as a float solver's
        vertex = {
            name: float(result.assignment.get(name, 0)) + delta
            for name, delta in zip(names, noise)
        }
    else:
        vertex = dict(zip(names, noise))
    witness = integer_witness(rows, vertex)
    if witness is not None:
        assert _holds(rows, witness)
        assert all(isinstance(value, int) and value > 0 for value in witness.values())


@settings(max_examples=200, deadline=None)
@given(rows=systems(), point=st.lists(st.integers(0, 4), min_size=4, max_size=4))
def test_satisfies_matches_the_problem_check(rows, point):
    assignment = {f"x{j}": value for j, value in enumerate(point)}
    assert satisfies(rows, assignment) == _holds(rows, assignment)


class TestHandMade:
    def test_exact_division_stays_int(self):
        lower, upper = propagate([_row({"x": 2}, -4), _row({"x": -3}, 9)])
        assert lower == {"x": 2} and type(lower["x"]) is int
        assert upper == {"x": 3} and type(upper["x"]) is int

    def test_a_bound_turns_fractional(self):
        """3x >= 1 gives x >= 1/3; 6x <= 1 then crosses it."""
        lower, _upper = propagate([_row({"x": 3}, -1)])
        assert lower == {"x": Fraction(1, 3)}
        rows = [_row({"x": 3}, -1), _row({"x": -6}, 1)]
        assert propagate(rows) is None
        assert lp_feasible(rows).feasible is False

    def test_no_integer_rounding(self):
        """2x == 1 has the real solution x = 1/2 (and no integer one)."""
        rows = [_row({"x": 2}, -1, is_eq=True)]
        assert propagate(rows) == ({"x": Fraction(1, 2)}, {"x": Fraction(1, 2)})

    def test_a_row_above_its_maximum(self):
        """x + y == 4 with x, y <= 1 cannot hold."""
        rows = [
            _row({"x": -1}, 1),
            _row({"y": -1}, 1),
            _row({"x": 1, "y": 1}, -4, is_eq=True),
        ]
        assert propagate(rows) is None

    def test_bounds_are_not_modified(self):
        parent = propagate([_row({"x": 1}, -1)])
        child = propagate([_row({"x": -1, "y": 1}, -1)], parent)
        assert parent == ({"x": 1}, {})
        assert child == ({"x": 1, "y": 2}, {})
        assert propagate([_row({"x": 1}, 0)], parent) is parent

    def test_witness_checks_every_row(self):
        rows = [_row({"x": 1, "y": -1}, 0, is_eq=True), _row({"x": 1}, -1)]
        assert integer_witness(rows, {"x": 1.0000001, "y": 0.9999999}) == {
            "x": 1, "y": 1,
        }
        assert integer_witness(rows, {"x": 1.6, "y": 1.4}) is None
