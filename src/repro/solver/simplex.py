"""Exact rational feasibility via phase-1 simplex.

The only question the schema checker ever asks an LP is *"is this
conjunction of linear constraints feasible over non-negative
rationals?"* — we answer it with a textbook phase-1 simplex over
:class:`fractions.Fraction` (no floating-point error, no licensing, no
SMT dependency).  Bland's anti-cycling rule guarantees termination.

It reads the encoder's integer rows (:data:`repro.solver.linear.Row`)
as they are and makes each coefficient and constant a ``Fraction`` as
it builds the tableau.  Columns are the variables in sorted order and
tableau rows keep the input order, so Bland's rule is deterministic.

Standard form construction: each row ``a.x + c >= 0`` becomes
``a.x - s = -c`` with a fresh slack ``s >= 0``; equalities pass through.
Rows are sign-normalized to a non-negative right-hand side and seeded
with artificial variables, whose sum is minimized; the problem is
feasible iff that optimum is zero, and the final basis then yields a
vertex assignment (used by branch & bound to pick fractional variables).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.errors import SolverError
from repro.solver.linear import Row

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class SimplexResult:
    """Outcome of a rational feasibility check."""

    feasible: bool
    #: a satisfying vertex (only when feasible); variables absent are 0.
    assignment: Dict[str, Fraction]
    pivots: int = 0


def lp_feasible(rows: Sequence[Row]) -> SimplexResult:
    """Decide feasibility of ``rows`` over non-negative rationals."""
    if not rows:
        return SimplexResult(True, {})
    variables = sorted({name for coeffs, _c, _e in rows for name, _v in coeffs})
    var_index = {name: j for j, name in enumerate(variables)}
    n_vars = len(variables)

    # --- standard form: A x' = b with x' >= 0 --------------------------
    # Fractions throughout: int / int in a pivot would give a float.
    n_slacks = sum(1 for _coeffs, _const, is_eq in rows if not is_eq)
    total = n_vars + n_slacks
    tableau: List[List[Fraction]] = []
    slack_cursor = 0
    for coeffs, const, is_eq in rows:
        full = [ZERO] * (total + 1)
        for name, coeff in coeffs:
            full[var_index[name]] = Fraction(coeff)
        full[-1] = Fraction(-const)  # a.x + c >= 0  <=>  a.x >= -c
        if not is_eq:
            full[n_vars + slack_cursor] = -ONE  # surplus: a.x - s = b
            slack_cursor += 1
        tableau.append(full)

    # Normalize to b >= 0 so artificials can seed a feasible basis.
    for row in tableau:
        if row[-1] < 0:
            for j in range(len(row)):
                row[j] = -row[j]

    # --- artificials + phase-1 objective --------------------------------
    m = len(tableau)
    art_base = total
    for i, row in enumerate(tableau):
        artificial = [ZERO] * m
        artificial[i] = ONE
        row[-1:-1] = artificial  # insert before RHS column
    width = total + m + 1
    basis = [art_base + i for i in range(m)]

    # Objective row: minimize sum of artificials.  With the artificial
    # basis, the reduced-cost row is the negated column sums of the
    # non-artificial part (textbook initialization).
    objective = [ZERO] * width
    for row in tableau:
        for j in range(width):
            objective[j] += row[j]
    for j in range(total, total + m):
        objective[j] = ZERO  # reduced costs of basic artificials are 0

    pivots = 0
    max_pivots = 20_000 + 200 * width
    while True:
        # Bland's rule: smallest index with positive reduced cost.
        entering = -1
        for j in range(total + m):
            if objective[j] > 0:
                entering = j
                break
        if entering < 0:
            break
        # Ratio test, again breaking ties by smallest basis index.
        leaving = -1
        best: Optional[Fraction] = None
        for i, row in enumerate(tableau):
            if row[entering] <= 0:
                continue
            ratio = row[-1] / row[entering]
            if best is None or ratio < best or (
                ratio == best and basis[i] < basis[leaving]
            ):
                best = ratio
                leaving = i
        if leaving < 0:
            raise SolverError("phase-1 objective unbounded; malformed tableau")
        _pivot(tableau, objective, basis, leaving, entering)
        pivots += 1
        if pivots > max_pivots:
            raise SolverError("simplex exceeded pivot budget (cycling?)")

    infeasibility = objective[-1]
    if infeasibility != 0:
        return SimplexResult(False, {}, pivots)

    assignment: Dict[str, Fraction] = {}
    for i, var in enumerate(basis):
        if var < n_vars:
            assignment[variables[var]] = tableau[i][-1]
    return SimplexResult(True, assignment, pivots)


def _pivot(
    tableau: List[List[Fraction]],
    objective: List[Fraction],
    basis: List[int],
    leaving: int,
    entering: int,
) -> None:
    """Standard tableau pivot: make ``entering`` basic in row ``leaving``."""
    row = tableau[leaving]
    factor = row[entering]
    tableau[leaving] = [value / factor for value in row]
    row = tableau[leaving]
    for i, other in enumerate(tableau):
        if i == leaving or other[entering] == 0:
            continue
        scale = other[entering]
        tableau[i] = [a - scale * b for a, b in zip(other, row)]
    if objective[entering] != 0:
        scale = objective[entering]
        for j in range(len(objective)):
            objective[j] -= scale * row[j]
    basis[leaving] = entering
