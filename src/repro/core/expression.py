"""Linear expressions over the environment parameters.

Threshold guards in the paper compare a combination of shared variables
against an affine expression over the parameters::

    b * x  >=  a_bar . p^T + a_0

This module implements the right-hand side: :class:`ParamExpr`, an
immutable affine expression ``sum(coeff_i * p_i) + const`` over named
parameters, with natural arithmetic operators so protocol models read
like the paper (e.g. ``2 * t + 1 - f``).

:func:`params` is the intended entry point::

    n, t, f = params("n t f")
    rhs = n - t - f          # a ParamExpr
    rhs.evaluate({"n": 4, "t": 1, "f": 1})   # -> 2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Tuple, Union

from repro.errors import SemanticsError

#: Anything accepted where a parameter expression is expected.
ParamExprLike = Union["ParamExpr", int]


def _normalize(coeffs: Mapping[str, int]) -> Tuple[Tuple[str, int], ...]:
    """Drop zero coefficients and impose a canonical (sorted) order."""
    return tuple(sorted((name, c) for name, c in coeffs.items() if c != 0))


@dataclass(frozen=True)
class ParamExpr:
    """An immutable affine expression over named integer parameters.

    Attributes:
        coeffs: canonical (sorted, zero-free) tuple of ``(name, coeff)``.
        const: the additive integer constant.
    """

    coeffs: Tuple[Tuple[str, int], ...] = ()
    const: int = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def constant(value: int) -> "ParamExpr":
        """The constant expression ``value``."""
        return ParamExpr((), int(value))

    @staticmethod
    def var(name: str, coeff: int = 1) -> "ParamExpr":
        """The expression ``coeff * name``."""
        return ParamExpr(_normalize({name: coeff}), 0)

    @staticmethod
    def coerce(value: ParamExprLike) -> "ParamExpr":
        """Coerce an int (or ParamExpr) into a :class:`ParamExpr`."""
        if isinstance(value, ParamExpr):
            return value
        if isinstance(value, int):
            return ParamExpr.constant(value)
        raise TypeError(f"cannot interpret {value!r} as a parameter expression")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def parameters(self) -> Tuple[str, ...]:
        """Names of parameters with non-zero coefficient, sorted."""
        return tuple(name for name, _ in self.coeffs)

    def coefficient(self, name: str) -> int:
        """Coefficient of parameter ``name`` (0 when absent)."""
        for var, coeff in self.coeffs:
            if var == name:
                return coeff
        return 0

    def evaluate(self, valuation: Mapping[str, int]) -> int:
        """Evaluate under a full parameter valuation.

        Raises:
            SemanticsError: if a mentioned parameter is missing from
                ``valuation``.
        """
        total = self.const
        for name, coeff in self.coeffs:
            if name not in valuation:
                raise SemanticsError(
                    f"parameter {name!r} missing from valuation {dict(valuation)!r}"
                )
            total += coeff * valuation[name]
        return total

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ParamExprLike) -> "ParamExpr":
        other = ParamExpr.coerce(other)
        merged = dict(self.coeffs)
        for name, coeff in other.coeffs:
            merged[name] = merged.get(name, 0) + coeff
        return ParamExpr(_normalize(merged), self.const + other.const)

    def __radd__(self, other: ParamExprLike) -> "ParamExpr":
        return self.__add__(other)

    def __neg__(self) -> "ParamExpr":
        return ParamExpr(
            tuple((name, -coeff) for name, coeff in self.coeffs), -self.const
        )

    def __sub__(self, other: ParamExprLike) -> "ParamExpr":
        return self.__add__(-ParamExpr.coerce(other))

    def __rsub__(self, other: ParamExprLike) -> "ParamExpr":
        return ParamExpr.coerce(other).__add__(-self)

    def __mul__(self, factor: int) -> "ParamExpr":
        if not isinstance(factor, int):
            raise TypeError("parameter expressions support integer scaling only")
        return ParamExpr(
            _normalize({name: coeff * factor for name, coeff in self.coeffs}),
            self.const * factor,
        )

    def __rmul__(self, factor: int) -> "ParamExpr":
        return self.__mul__(factor)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        parts = []
        for name, coeff in self.coeffs:
            if coeff == 1:
                term = name
            elif coeff == -1:
                term = f"-{name}"
            else:
                term = f"{coeff}*{name}"
            parts.append(term)
        if self.const or not parts:
            parts.append(str(self.const))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def params(names: Union[str, Iterable[str]]) -> Tuple[ParamExpr, ...]:
    """Create symbolic parameters from a whitespace-separated string.

    >>> n, t, f = params("n t f")
    >>> str(2 * t + 1 - f)
    '-f + 2*t + 1'
    """
    if isinstance(names, str):
        names = names.split()
    return tuple(ParamExpr.var(name) for name in names)
