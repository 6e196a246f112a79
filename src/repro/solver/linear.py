"""Linear integer arithmetic constraints as plain rows.

The schema encoder (§V reduction) produces conjunctions of linear
constraints over non-negative integer variables: rule-execution counts,
location counters at context boundaries, shared-variable values and the
environment parameters.  Each constraint is one :data:`Row`, and every
solver reads the same rows: the exact shortcuts
(:mod:`repro.solver.shortcuts`), HiGHS (:mod:`repro.solver.floatlp`),
the exact simplex (:mod:`repro.solver.simplex`) for rational and the
branch & bound (:mod:`repro.solver.ilp`) for integer feasibility.

All variables are implicitly constrained to be **non-negative** — every
quantity in a counter system is.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Mapping, Tuple, Union

Number = Union[int, Fraction]

#: A constraint as a plain row ``(coeffs, const, is_eq)``: ``coeffs`` is
#: a canonical (sorted, zero-free) tuple of ``(name, coeff)`` pairs, and
#: the row reads ``coeffs . x + const == 0`` if ``is_eq`` else ``>= 0``.
Row = Tuple[Tuple[Tuple[str, Number], ...], Number, bool]


def row(coeffs: Mapping[str, Number], const: Number = 0, is_eq: bool = False) -> Row:
    """Canonical row ``coeffs . x + const (>=|==) 0`` (sorted, zero-free)."""
    return tuple(sorted((name, c) for name, c in coeffs.items() if c)), const, is_eq


class LinearProblem(List[Row]):
    """A list of rows with builders; each returns the problem to chain."""

    def ge(self, coeffs: Mapping[str, Number], const: Number = 0) -> "LinearProblem":
        """Add ``coeffs . x + const >= 0``."""
        self.append(row(coeffs, const))
        return self

    def le(self, coeffs: Mapping[str, Number], const: Number = 0) -> "LinearProblem":
        """Add ``coeffs . x + const <= 0`` (negated into a ``>=`` row)."""
        self.append(row({name: -c for name, c in coeffs.items()}, -const))
        return self

    def eq(self, coeffs: Mapping[str, Number], const: Number = 0) -> "LinearProblem":
        """Add ``coeffs . x + const == 0``."""
        self.append(row(coeffs, const, True))
        return self
