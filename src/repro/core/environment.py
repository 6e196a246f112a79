"""Environments ``Env = (Pi, RC, N)`` of threshold automata.

An environment (§III-B) fixes the set of parameters ``Pi`` (ranging over
non-negative integers), a *resilience condition* ``RC`` — a linear
integer arithmetic formula over the parameters (e.g. ``n > 3t ∧ t >= f``)
— and a function ``N`` mapping each admissible parameter valuation to
the number of explicitly modelled processes and common coins.  For the
protocols of the paper ``N(n, t, f, cc) = (n - f, 1)``: only correct
processes are modelled explicitly, plus one common-coin automaton.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

from repro.core.expression import ParamExpr, ParamExprLike
from repro.errors import ModelError, SemanticsError

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


@dataclass(frozen=True)
class Constraint:
    """A single linear comparison between two parameter expressions."""

    lhs: ParamExpr
    op: str
    rhs: ParamExpr

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ModelError(f"unknown comparison operator {self.op!r}")

    def holds(self, valuation: Mapping[str, int]) -> bool:
        """Evaluate the constraint under a parameter valuation."""
        return _OPS[self.op](self.lhs.evaluate(valuation), self.rhs.evaluate(valuation))

    def ge_zero_forms(self) -> Tuple[ParamExpr, ...]:
        """Equivalent list of expressions required to be ``>= 0``.

        Integer semantics: ``a > b`` becomes ``a - b - 1 >= 0``; an
        equality contributes two expressions.  Used by the ILP encoder.
        """
        diff = self.lhs - self.rhs
        if self.op == ">=":
            return (diff,)
        if self.op == ">":
            return (diff - 1,)
        if self.op == "<=":
            return (-diff,)
        if self.op == "<":
            return (-diff - 1,)
        return (diff, -diff)  # equality

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


def gt(lhs: ParamExprLike, rhs: ParamExprLike) -> Constraint:
    """Constraint ``lhs > rhs``."""
    return Constraint(ParamExpr.coerce(lhs), ">", ParamExpr.coerce(rhs))


def ge(lhs: ParamExprLike, rhs: ParamExprLike) -> Constraint:
    """Constraint ``lhs >= rhs``."""
    return Constraint(ParamExpr.coerce(lhs), ">=", ParamExpr.coerce(rhs))


def eq(lhs: ParamExprLike, rhs: ParamExprLike) -> Constraint:
    """Constraint ``lhs = rhs``."""
    return Constraint(ParamExpr.coerce(lhs), "=", ParamExpr.coerce(rhs))


def le(lhs: ParamExprLike, rhs: ParamExprLike) -> Constraint:
    """Constraint ``lhs <= rhs``."""
    return Constraint(ParamExpr.coerce(lhs), "<=", ParamExpr.coerce(rhs))


def lt(lhs: ParamExprLike, rhs: ParamExprLike) -> Constraint:
    """Constraint ``lhs < rhs``."""
    return Constraint(ParamExpr.coerce(lhs), "<", ParamExpr.coerce(rhs))


@dataclass(frozen=True)
class Environment:
    """An environment ``(Pi, RC, N)``.

    Attributes:
        parameters: the names in ``Pi`` (each ranges over ``N0``).
        resilience: the conjunction ``RC`` of linear constraints.
        num_processes: expression for the number of explicitly modelled
            (correct) process automata, e.g. ``n - f``.
        num_coins: number of common-coin automata modelled (paper: 1).
    """

    parameters: Tuple[str, ...]
    resilience: Tuple[Constraint, ...]
    num_processes: ParamExpr
    num_coins: int = 1

    def __post_init__(self) -> None:
        declared = set(self.parameters)
        if len(declared) != len(self.parameters):
            raise ModelError("duplicate parameter names in environment")
        mentioned = set(self.num_processes.parameters())
        for constraint in self.resilience:
            mentioned |= set(constraint.lhs.parameters())
            mentioned |= set(constraint.rhs.parameters())
        unknown = mentioned - declared
        if unknown:
            raise ModelError(
                f"environment mentions undeclared parameters: {sorted(unknown)}"
            )
        if self.num_coins < 0:
            raise ModelError("num_coins must be non-negative")

    # ------------------------------------------------------------------
    def check_valuation(self, valuation: Mapping[str, int]) -> None:
        """Raise unless ``valuation`` covers all parameters with ints >= 0."""
        for name in self.parameters:
            if name not in valuation:
                raise SemanticsError(f"parameter {name!r} missing from valuation")
            if valuation[name] < 0:
                raise SemanticsError(
                    f"parameter {name!r} must be a non-negative integer, "
                    f"got {valuation[name]}"
                )

    def admits(self, valuation: Mapping[str, int]) -> bool:
        """True iff the valuation satisfies the resilience condition."""
        self.check_valuation(valuation)
        return all(constraint.holds(valuation) for constraint in self.resilience)

    def system_size(self, valuation: Mapping[str, int]) -> Tuple[int, int]:
        """Apply ``N``: number of modelled processes and coins.

        Raises:
            SemanticsError: when the valuation is inadmissible or yields
                a non-positive process count.
        """
        if not self.admits(valuation):
            raise SemanticsError(
                f"valuation {dict(valuation)!r} violates the resilience condition"
            )
        count = self.num_processes.evaluate(valuation)
        if count <= 0:
            raise SemanticsError(
                f"valuation {dict(valuation)!r} yields {count} modelled processes"
            )
        return count, self.num_coins

    def describe(self) -> str:
        """One-line human-readable description."""
        rc = " & ".join(str(c) for c in self.resilience) or "true"
        return (
            f"Pi={{{', '.join(self.parameters)}}}; RC: {rc}; "
            f"N -> ({self.num_processes}, {self.num_coins})"
        )


def standard_environment(
    resilience: Sequence[Constraint],
    parameters: str = "n t f",
    num_processes: ParamExprLike = None,
    num_coins: int = 1,
) -> Environment:
    """The common case: parameters ``n t f``, ``N = (n - f, num_coins)``."""
    names = tuple(parameters.split())
    if num_processes is None:
        num_processes = ParamExpr.var("n") - ParamExpr.var("f")
    return Environment(
        parameters=names,
        resilience=tuple(resilience),
        num_processes=ParamExpr.coerce(num_processes),
        num_coins=num_coins,
    )
