"""Floating-point LP feasibility via scipy (HiGHS) — the fast pruning path.

The schema DFS asks thousands of "is this prefix still realizable?"
questions; answering each with the exact Fraction simplex is needlessly
slow.  The exact shortcuts of :mod:`repro.solver.shortcuts` answer many
of them first; the rest come here.  Only the *infeasible* answer prunes
the DFS, and leaf verdicts are confirmed by the exact solver (see
:mod:`repro.checker.parameterized`), so a numerically optimistic
"feasible" merely costs time.  The vertex of a feasible answer is left
on the :class:`RowMatrix`; the DFS keeps it as the prefix's witness
only after rounding it to integers and checking it exactly.  Returns
``None`` (no answer) on any solver hiccup, which callers treat as "do
not prune"; each such hiccup is logged as one ``floatlp.*`` event on
this module's logger.

One path: constraint rows (:data:`repro.solver.linear.Row`) become a
sparse CSR matrix, handed to :func:`scipy.optimize.milp` as one
two-sided :class:`~scipy.optimize.LinearConstraint` with no integrality
(so HiGHS solves the LP relaxation) and the default ``x >= 0`` bounds.
The schema DFS hands in a :class:`RowMatrix` that extends its parent
prefix's matrix, so each row is converted once per DFS path.

A call takes milliseconds, not microseconds, and most of it is not
HiGHS: on the param-validity workload (cc85a, fmr05, rabin83 validity;
2-vCPU 2.1 GHz VM, python 3.11, scipy 1.17) a call costs about 1.5 ms,
of which HiGHS's own solve is about 0.35 ms and scipy's wrapper (input
checks, option handling, model transfer) most of the rest.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Sequence, Union

from repro.solver.linear import LinearProblem, Row
from repro.solver.shortcuts import satisfies

try:  # numpy and scipy are optional; the exact solver always works.
    import numpy as np
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import csr_array

    _HAVE_SCIPY = True
except Exception:  # pragma: no cover - environment without numpy or scipy
    _HAVE_SCIPY = False

logger = logging.getLogger(__name__)

#: scipy's milp status codes this module decides on
_OPTIMAL = 0
_INFEASIBLE = 2


class RowMatrix:
    """Constraint rows in CSR form, converted on first use.

    ``base``, when given, is the matrix of a prefix of ``rows``: its
    arrays are copied and only the remaining rows converted, so a chain
    of growing problems (the schema DFS, child = parent rows + a few)
    converts every row once.  Columns are numbered in order of first
    appearance.

    The exact shortcuts of :mod:`repro.solver.shortcuts` keep their
    per-prefix state here, so it travels down the DFS path with the
    matrix: ``bounds`` (propagated variable bounds), ``witness`` (an
    integer point satisfying every row) and ``vertex`` (the float point
    :func:`float_feasible` found, if any).
    """

    __slots__ = ("rows", "base", "_csr", "bounds", "witness", "vertex")

    def __init__(self, rows: Sequence[Row], base: Optional["RowMatrix"] = None):
        self.rows = rows
        self.base = base
        self._csr = None
        self.bounds = None
        self.witness = None
        self.vertex = None

    def new_rows(self) -> Sequence[Row]:
        """The rows that ``base`` lacks (all rows when there is none)."""
        if self.base is None:
            return self.rows
        return self.rows[len(self.base.rows):]

    def csr(self):
        """``(columns, indptr, indices, data, lower, upper)`` as lists."""
        if self._csr is None:
            if self.base is None:
                columns: Dict[str, int] = {}
                indptr: List[int] = [0]
                indices: List[int] = []
                data: List[float] = []
                lower: List[float] = []
                upper: List[float] = []
            else:
                columns, indptr, indices, data, lower, upper = (
                    part.copy() for part in self.base.csr()
                )
            for coeffs, const, is_eq in self.rows[len(lower):]:
                for name, coeff in coeffs:
                    indices.append(columns.setdefault(name, len(columns)))
                    data.append(coeff)
                indptr.append(len(indices))
                # coeffs.x + const >= 0  <=>  coeffs.x >= -const (== if is_eq)
                lower.append(-const)
                upper.append(-const if is_eq else float("inf"))
            self._csr = (columns, indptr, indices, data, lower, upper)
        return self._csr


def float_solve(problem: Union[LinearProblem, RowMatrix]):
    """Feasibility plus a float vertex.

    Returns ``(feasible, assignment)`` where ``feasible`` is ``True`` /
    ``False`` / ``None`` (undecided) and ``assignment`` maps variables to
    floats when feasible.
    """
    if not _HAVE_SCIPY:
        return None, None
    if isinstance(problem, LinearProblem):
        problem = RowMatrix(problem.rows())
    columns, indptr, indices, data, lower, upper = problem.csr()
    if not columns:  # constant rows only: decide them directly
        feasible = all(low <= 0 <= up for low, up in zip(lower, upper))
        return feasible, {} if feasible else None
    n = len(columns)
    try:
        matrix = csr_array(
            (np.array(data, dtype=float), indices, indptr), shape=(len(lower), n)
        )
        result = milp(
            c=np.zeros(n),
            constraints=LinearConstraint(
                matrix, np.array(lower, dtype=float), np.array(upper, dtype=float)
            ),
        )
    except Exception as exc:
        logger.warning(
            "float LP solve raised; answer undecided",
            extra={
                "event": "floatlp.error",
                "error": repr(exc),
                "rows": len(lower),
                "columns": n,
            },
        )
        return None, None
    if result.status == _OPTIMAL:
        return True, dict(zip(columns, result.x.tolist()))
    if result.status == _INFEASIBLE:
        return False, None
    logger.warning(
        "float LP undecided: %s",
        result.message,
        extra={
            "event": "floatlp.undecided",
            "status": result.status,
            "rows": len(lower),
            "columns": n,
        },
    )
    return None, None


def float_feasible(problem: Union[LinearProblem, RowMatrix]) -> Optional[bool]:
    """Feasibility over non-negative reals; ``None`` when undecided.

    Given a :class:`RowMatrix`, it also leaves the float vertex of a
    feasible answer (else ``None``) in the matrix's ``vertex``.
    """
    feasible, assignment = float_solve(problem)
    if isinstance(problem, RowMatrix):
        problem.vertex = assignment
    return feasible


def rounded_integer_model(matrix: RowMatrix) -> Optional[dict]:
    """Try to turn a leaf's float vertex into an exact integer model.

    Counter-system polytopes usually have integral vertices; rounding
    the HiGHS solution and *exactly* re-checking it against the rows
    resolves most SAT leaves without touching the (slow) exact branch &
    bound.  The vertex :func:`float_feasible` left on ``matrix`` is
    reused; HiGHS runs here only when there is none (an exact shortcut
    or the exact simplex decided the leaf).  Returns a verified model or
    ``None``.
    """
    assignment = matrix.vertex
    if assignment is None:
        _feasible, assignment = float_solve(matrix)
        if assignment is None:
            return None
    for rounder in (round, lambda v: int(v) + (v - int(v) > 1e-9)):
        candidate = {
            name: max(0, int(rounder(value))) for name, value in assignment.items()
        }
        if satisfies(matrix.rows, candidate):
            return candidate
    return None
