"""Exact linear-arithmetic solving (the SMT-backend substitute).

The parameterized checker reduces every schema to a conjunction of
linear constraints over non-negative integers, each one integer
:data:`~repro.solver.linear.Row` built by
:func:`~repro.solver.linear.row`.  This package decides those rows with
an exact Fraction-based phase-1 simplex
(:func:`~repro.solver.simplex.lp_feasible`) and branch & bound
(:func:`~repro.solver.ilp.ilp_feasible`); both read the rows as the
encoder wrote them.
"""

from repro.solver.ilp import SAT, UNKNOWN, UNSAT, IlpResult, ilp_feasible
from repro.solver.linear import LinearProblem, Row, row
from repro.solver.simplex import SimplexResult, lp_feasible

__all__ = [
    "IlpResult",
    "LinearProblem",
    "Row",
    "SAT",
    "SimplexResult",
    "UNKNOWN",
    "UNSAT",
    "ilp_feasible",
    "lp_feasible",
    "row",
]
