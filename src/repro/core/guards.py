"""Threshold guards over shared and coin variables.

The paper (§III-B) defines a *simple guard* as an expression

    ``b . x  >=  a_bar . p^T + a_0``     or     ``b . x  <  a_bar . p^T + a_0``

where ``x`` ranges over shared variables, and a *coin guard* with the
same shape over coin variables.  Rule ``r21`` of MMR14 compares a *sum*
of shared variables (``a0 + a1 >= n - t - f``), so the left-hand side is
a linear combination of variables rather than a single one.

Guards are built fluently from :class:`Var` objects::

    n, t, f = params("n t f")
    b0, b1 = Var("b0"), Var("b1")
    g1 = b0 >= 2 * t + 1 - f
    g2 = (b0 + b1) < n - t

A rule's guard is a *conjunction* of such atomic guards (possibly empty,
meaning ``true``); see :class:`repro.core.rules.Rule`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Tuple, Union

from repro.core.expression import ParamExpr, ParamExprLike
from repro.errors import SemanticsError


class Cmp(enum.Enum):
    """Comparison operator of a threshold guard."""

    GE = ">="
    LT = "<"

    def flipped(self) -> "Cmp":
        """The complementary operator (negation of the guard)."""
        return Cmp.LT if self is Cmp.GE else Cmp.GE


def _normalize_lhs(coeffs: Mapping[str, int]) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted((name, c) for name, c in coeffs.items() if c != 0))


@dataclass(frozen=True)
class Guard:
    """An atomic threshold guard ``lhs (>=|<) rhs``.

    Attributes:
        lhs: canonical tuple of ``(variable, coefficient)`` pairs.
        cmp: the comparison operator.
        rhs: affine parameter expression on the right-hand side.
    """

    lhs: Tuple[Tuple[str, int], ...]
    cmp: Cmp
    rhs: ParamExpr

    def variables(self) -> FrozenSet[str]:
        """The set of variables mentioned on the left-hand side."""
        return frozenset(name for name, _ in self.lhs)

    def negated(self) -> "Guard":
        """The logical negation: ``x >= e`` becomes ``x < e`` and vice versa."""
        return Guard(self.lhs, self.cmp.flipped(), self.rhs)

    def lhs_value(self, variables: Mapping[str, int]) -> int:
        """Evaluate the left-hand side under a variable valuation."""
        total = 0
        for name, coeff in self.lhs:
            if name not in variables:
                raise SemanticsError(
                    f"variable {name!r} missing from valuation {dict(variables)!r}"
                )
            total += coeff * variables[name]
        return total

    def evaluate(
        self, variables: Mapping[str, int], parameters: Mapping[str, int]
    ) -> bool:
        """Truth value of the guard under variable + parameter valuations."""
        lhs = self.lhs_value(variables)
        rhs = self.rhs.evaluate(parameters)
        return lhs >= rhs if self.cmp is Cmp.GE else lhs < rhs

    def __str__(self) -> str:
        parts = []
        for name, coeff in self.lhs:
            if coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}*{name}")
        lhs = " + ".join(parts) if parts else "0"
        return f"{lhs} {self.cmp.value} {self.rhs}"


#: A rule guard: conjunction of atomic guards.  Empty tuple means ``true``.
GuardConjunction = Tuple[Guard, ...]

TRUE: GuardConjunction = ()


class Var:
    """A fluent handle for a (shared or coin) variable.

    Supports ``+`` with other :class:`Var`/:class:`VarSum` objects to
    build left-hand sides, and ``>=``, ``<``, ``>`` against parameter
    expressions or integers to build :class:`Guard` objects.  ``>`` is
    sugar for ``>= rhs + 1`` (integers only take integer values).
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _coeffs(self) -> Dict[str, int]:
        return {self.name: 1}

    def __add__(self, other: Union["Var", "VarSum"]) -> "VarSum":
        return VarSum(self._coeffs()).__add__(other)

    def __ge__(self, rhs: ParamExprLike) -> Guard:
        return VarSum(self._coeffs()).__ge__(rhs)

    def __lt__(self, rhs: ParamExprLike) -> Guard:
        return VarSum(self._coeffs()).__lt__(rhs)

    def __gt__(self, rhs: ParamExprLike) -> Guard:
        return VarSum(self._coeffs()).__gt__(rhs)

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class VarSum:
    """A linear combination of variables used as a guard left-hand side."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[str, int]):
        self.coeffs = dict(coeffs)

    def __add__(self, other: Union[Var, "VarSum"]) -> "VarSum":
        merged = dict(self.coeffs)
        if isinstance(other, Var):
            merged[other.name] = merged.get(other.name, 0) + 1
        elif isinstance(other, VarSum):
            for name, coeff in other.coeffs.items():
                merged[name] = merged.get(name, 0) + coeff
        else:
            raise TypeError(f"cannot add {other!r} to a variable sum")
        return VarSum(merged)

    def __ge__(self, rhs: ParamExprLike) -> Guard:
        return Guard(_normalize_lhs(self.coeffs), Cmp.GE, ParamExpr.coerce(rhs))

    def __lt__(self, rhs: ParamExprLike) -> Guard:
        return Guard(_normalize_lhs(self.coeffs), Cmp.LT, ParamExpr.coerce(rhs))

    def __gt__(self, rhs: ParamExprLike) -> Guard:
        return Guard(
            _normalize_lhs(self.coeffs), Cmp.GE, ParamExpr.coerce(rhs) + 1
        )

    def __repr__(self) -> str:
        return f"VarSum({self.coeffs!r})"
