"""Integer feasibility by branch & bound over the exact simplex.

The schema encoder needs *integer* solutions (counters, rule counts and
parameters are naturals).  We branch on a fractional coordinate of the
LP vertex: ``x <= floor(v)`` / ``x >= floor(v) + 1``, exploring the
floor side first (counter systems usually have small witnesses).  The
search is complete for bounded problems; since parameters are unbounded
above, a node budget caps the search and reports ``UNKNOWN`` — callers
(the parameterized checker) treat that as "no verdict at this schema".
An optional wall-clock deadline, polled once per node, stops it the
same way.

The input is the encoder's own rows (:data:`repro.solver.linear.Row`);
each node is those rows plus one bound row per branch taken.
The returned model is verified against the original rows
(:func:`repro.solver.shortcuts.satisfies`, plus non-negativity) before
being handed back, so a SAT answer is always trustworthy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.errors import SolverError
from repro.solver.linear import Row, row
from repro.solver.shortcuts import satisfies
from repro.solver.simplex import lp_feasible

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


@dataclass
class IlpResult:
    """Outcome of an integer feasibility check."""

    status: str
    model: Optional[Dict[str, int]] = None
    nodes: int = 0
    pivots: int = 0


def _fractional_variable(assignment: Dict[str, Fraction]) -> Optional[str]:
    for name in sorted(assignment):
        if assignment[name].denominator != 1:
            return name
    return None


def ilp_feasible(
    rows: Sequence[Row],
    max_nodes: int = 5_000,
    deadline: Optional[float] = None,
) -> IlpResult:
    """Decide integer feasibility of ``rows`` (non-negative integers).

    ``deadline`` is a :func:`time.perf_counter` instant; once it has
    passed, the next node returns ``UNKNOWN`` instead of solving.
    """
    stack: List[Sequence[Row]] = [rows]
    nodes = 0
    pivots = 0
    exhausted = True
    while stack:
        nodes += 1
        if nodes > max_nodes or (
            deadline is not None and time.perf_counter() > deadline
        ):
            exhausted = False
            break
        node = stack.pop()
        relaxation = lp_feasible(node)
        pivots += relaxation.pivots
        if not relaxation.feasible:
            continue
        branch_var = _fractional_variable(relaxation.assignment)
        if branch_var is None:
            model = {
                name: int(value)
                for name, value in relaxation.assignment.items()
            }
            # Defensive re-check: a SAT verdict must satisfy the input.
            if any(v < 0 for v in model.values()) or not satisfies(rows, model):
                raise SolverError(
                    "internal error: integral vertex fails the constraints"
                )
            return IlpResult(SAT, model, nodes, pivots)
        value = relaxation.assignment[branch_var]
        floor = value.numerator // value.denominator
        # Explore x <= floor first (pushed last): small witnesses first.
        stack.append([*node, row({branch_var: 1}, -(floor + 1))])
        stack.append([*node, row({branch_var: -1}, floor)])
    if exhausted:
        return IlpResult(UNSAT, None, nodes, pivots)
    return IlpResult(UNKNOWN, None, nodes, pivots)
