"""Linear integer arithmetic problems.

The schema encoder (§V reduction) produces conjunctions of linear
constraints over non-negative integer variables: rule-execution counts,
location counters at context boundaries, shared-variable values and the
environment parameters.  :class:`LinearProblem` collects such
constraints; :mod:`repro.solver.simplex` decides rational feasibility
and :mod:`repro.solver.ilp` integer feasibility.

All variables are implicitly constrained to be **non-negative** — every
quantity in a counter system is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import SolverError

Number = Union[int, Fraction]

GE = ">="
EQ = "=="

#: A constraint as a plain row ``(coeffs, const, is_eq)``: ``coeffs`` is
#: a canonical (sorted, zero-free) tuple of ``(name, coeff)`` pairs, and
#: the row reads ``coeffs . x + const == 0`` if ``is_eq`` else ``>= 0``.
Row = Tuple[Tuple[Tuple[str, Number], ...], Number, bool]


def _coerce(coeffs: Mapping[str, Number]) -> Dict[str, Fraction]:
    return {name: Fraction(value) for name, value in coeffs.items() if value != 0}


@dataclass(frozen=True)
class LinConstraint:
    """``sum(coeffs[v] * v) + const  (>=|==)  0``."""

    coeffs: Tuple[Tuple[str, Fraction], ...]
    const: Fraction
    sense: str

    def __post_init__(self) -> None:
        if self.sense not in (GE, EQ):
            raise SolverError(f"unknown constraint sense {self.sense!r}")

    def evaluate(self, assignment: Mapping[str, Number]) -> Fraction:
        total = Fraction(self.const)
        for name, coeff in self.coeffs:
            total += coeff * Fraction(assignment.get(name, 0))
        return total

    def satisfied(self, assignment: Mapping[str, Number]) -> bool:
        value = self.evaluate(assignment)
        return value >= 0 if self.sense == GE else value == 0

    def __str__(self) -> str:
        terms = " + ".join(f"{coeff}*{name}" for name, coeff in self.coeffs) or "0"
        return f"{terms} + {self.const} {self.sense} 0"


def constraint(
    coeffs: Mapping[str, Number], const: Number = 0, sense: str = GE
) -> LinConstraint:
    """Build a canonical constraint."""
    canonical = tuple(sorted(_coerce(coeffs).items()))
    return LinConstraint(canonical, Fraction(const), sense)


class LinearProblem:
    """A conjunction of linear constraints over non-negative variables."""

    def __init__(self, constraints: Optional[Iterable[LinConstraint]] = None):
        self.constraints: List[LinConstraint] = list(constraints or [])

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> "LinearProblem":
        """The problem of canonical rows (same constraints as ``ge``/``eq``)."""
        return cls(
            LinConstraint(
                tuple((name, Fraction(coeff)) for name, coeff in coeffs),
                Fraction(const),
                EQ if is_eq else GE,
            )
            for coeffs, const, is_eq in rows
        )

    def rows(self) -> List[Row]:
        """The constraints as rows (the float solver's input)."""
        return [
            (item.coeffs, item.const, item.sense == EQ) for item in self.constraints
        ]

    # ------------------------------------------------------------------
    def add(self, item: LinConstraint) -> "LinearProblem":
        self.constraints.append(item)
        return self

    def ge(self, coeffs: Mapping[str, Number], const: Number = 0) -> "LinearProblem":
        """Add ``coeffs . x + const >= 0``."""
        return self.add(constraint(coeffs, const, GE))

    def le(self, coeffs: Mapping[str, Number], const: Number = 0) -> "LinearProblem":
        """Add ``coeffs . x + const <= 0`` (negated into a GE constraint)."""
        negated = {name: -Fraction(value) for name, value in coeffs.items()}
        return self.add(constraint(negated, -Fraction(const), GE))

    def eq(self, coeffs: Mapping[str, Number], const: Number = 0) -> "LinearProblem":
        """Add ``coeffs . x + const == 0``."""
        return self.add(constraint(coeffs, const, EQ))

    # ------------------------------------------------------------------
    def variables(self) -> Tuple[str, ...]:
        names = set()
        for item in self.constraints:
            for name, _coeff in item.coeffs:
                names.add(name)
        return tuple(sorted(names))

    def extended(self, extra: Iterable[LinConstraint]) -> "LinearProblem":
        """A copy with additional constraints (used by branch & bound)."""
        return LinearProblem(self.constraints + list(extra))

    def check(self, assignment: Mapping[str, Number]) -> bool:
        """Does a (non-negative) assignment satisfy every constraint?"""
        for name in self.variables():
            if Fraction(assignment.get(name, 0)) < 0:
                return False
        return all(item.satisfied(assignment) for item in self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def __str__(self) -> str:
        return "\n".join(str(item) for item in self.constraints)
