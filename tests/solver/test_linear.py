"""Tests for the one constraint type: rows and their builders."""

import repro.solver
from repro.solver.linear import LinearProblem, row


class TestRow:
    def test_coefficients_are_sorted_and_zero_free(self):
        assert row({"y": 2, "x": -1, "z": 0}, 3) == (
            (("x", -1), ("y", 2)), 3, False
        )

    def test_defaults_to_a_homogeneous_inequality(self):
        assert row({"x": 1}) == ((("x", 1),), 0, False)

    def test_equality_keeps_its_flag(self):
        assert row({"x": 1}, -2, is_eq=True) == ((("x", 1),), -2, True)

    def test_all_zero_coefficients_leave_a_constant_row(self):
        assert row({"x": 0, "y": 0}, -1) == ((), -1, False)


class TestLinearProblem:
    def test_builders_append_canonical_rows_and_chain(self):
        problem = LinearProblem().ge({"b": 1, "a": 2}, -3).eq({"a": 1}, -1)
        assert isinstance(problem, list)
        assert problem == [row({"a": 2, "b": 1}, -3), row({"a": 1}, -1, True)]

    def test_le_is_negated_into_a_ge_row(self):
        # x - 2y + 4 <= 0  <=>  -x + 2y - 4 >= 0
        problem = LinearProblem().le({"x": 1, "y": -2}, 4)
        assert problem == [((("x", -1), ("y", 2)), -4, False)]


def test_package_exports_the_row_type_and_builder():
    assert {"Row", "row", "LinearProblem"} <= set(repro.solver.__all__)
    assert repro.solver.row is row
    assert not {"LinConstraint", "constraint", "GE", "EQ"} & set(
        repro.solver.__all__
    )
