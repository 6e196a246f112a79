"""Exact shortcuts that decide LP feasibility without a solver call.

The schema DFS asks whether the rows of a prefix
(:data:`repro.solver.linear.Row`, over the reals with ``x >= 0``) are
feasible, and a child prefix is its parent's rows plus a few new ones.
Two exact tests settle many of these questions before HiGHS is asked:

* :func:`propagate` makes one interval pass over rows, tightening
  per-variable bounds.  A row whose largest value under the bounds is
  below 0 (for an equality, also one whose smallest value is above 0),
  or a variable whose bounds cross, proves the rows infeasible.  Bounds
  derived from a parent's rows hold for every child, so a child passes
  only its new rows, starting from its parent's bounds.
* :func:`integer_witness` rounds a float vertex to non-negative
  integers and keeps the point only if it satisfies every row exactly
  (:func:`satisfies`).  A child whose new rows hold at its parent's
  witness is feasible, with the same witness.

:func:`refutes` is the exact check behind HiGHS's *infeasible*: it
accepts integer Farkas multipliers only if they prove that the rows
have no solution (:mod:`repro.solver.floatlp` rounds them from the
solver's dual ray).

All compute in Python ``int``; a bound becomes a ``Fraction`` only
when a division is not exact.  None rounds to integers on the way
(the question is the same real relaxation HiGHS solves), so each answer
is a proof, never a guess.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.solver.linear import Number, Row

#: ``(lower, upper)`` per variable: a missing lower bound is 0 and a
#: missing upper bound is +infinity.
Bounds = Tuple[Dict[str, Number], Dict[str, Number]]


def _div(num: Number, den: Number) -> Number:
    """``num / den``, an ``int`` when the division is exact."""
    if type(num) is int and type(den) is int:
        quotient, remainder = divmod(num, den)
        return Fraction(num, den) if remainder else quotient
    return Fraction(num) / den


def propagate(
    rows: Sequence[Row], bounds: Optional[Bounds] = None
) -> Optional[Bounds]:
    """One bound-propagation pass over ``rows``.

    Returns the tightened bounds, or ``None`` when the pass proves that
    ``rows`` have no real solution with ``x >= 0`` inside ``bounds``.
    ``bounds`` must be implied by constraints already known (``None``:
    only ``x >= 0``); it is never modified, and is returned as it is
    when nothing tightens.
    """
    lower, upper = bounds if bounds is not None else ({}, {})
    copied = bounds is None
    for coeffs, const, is_eq in rows:
        for sign in (1, -1) if is_eq else (1,):
            # the row is sign * (coeffs . x + const) >= 0
            top = sign * const  # its largest value over the bounded terms
            unbounded = 0  # terms with no finite largest value
            for name, coeff in coeffs:
                if sign * coeff > 0:
                    high = upper.get(name)
                    if high is None:
                        unbounded += 1
                    else:
                        top += sign * coeff * high
                else:
                    top += sign * coeff * lower.get(name, 0)
            if not unbounded and top < 0:
                return None
            if unbounded > 1:
                continue
            # Each term must cover what the others cannot reach:
            # a * x >= -(top without the term's own largest value).
            for name, coeff in coeffs:
                coeff *= sign
                if coeff > 0:
                    high = upper.get(name)
                    if high is None:
                        rest = top
                    elif unbounded:
                        continue
                    else:
                        rest = top - coeff * high
                    low = _div(-rest, coeff)
                    if low <= lower.get(name, 0):
                        continue
                    if high is not None and low > high:
                        return None
                    if not copied:
                        lower, upper, copied = dict(lower), dict(upper), True
                    lower[name] = low
                elif not unbounded:
                    low = lower.get(name, 0)
                    high = _div(top - coeff * low, -coeff)
                    current = upper.get(name)
                    if current is not None and high >= current:
                        continue
                    if high < low:
                        return None
                    if not copied:
                        lower, upper, copied = dict(lower), dict(upper), True
                    upper[name] = high
    return (lower, upper) if copied else bounds


def satisfies(rows: Sequence[Row], point: Mapping[str, Number]) -> bool:
    """Does ``point`` (absent variables are 0) satisfy every row?"""
    value_of = point.get
    for coeffs, const, is_eq in rows:
        value = const
        for name, coeff in coeffs:
            value += coeff * value_of(name, 0)
        if value < 0 or (is_eq and value):
            return False
    return True


def refutes(rows: Sequence[Row], multipliers: Mapping[int, Number]) -> bool:
    """Do ``multipliers`` (``{row index: weight}``) prove that ``rows``
    have no solution with ``x >= 0``?

    Farkas: the weighted sum of the rows, ``sum_i w_i * (a_i . x + c_i)``,
    is ``>= 0`` at every solution when ``w_i >= 0`` on each ``>=`` row
    (an equality's weight may have either sign).  If every variable's
    combined coefficient ``sum_i w_i * a_i`` is ``<= 0`` and the combined
    constant ``sum_i w_i * c_i`` is ``< 0``, the sum is negative at every
    ``x >= 0``, so no solution exists.
    """
    combined: Dict[str, Number] = {}
    constant = 0
    for index, weight in multipliers.items():
        coeffs, const, is_eq = rows[index]
        if weight < 0 and not is_eq:
            return False
        constant += weight * const
        for name, coeff in coeffs:
            combined[name] = combined.get(name, 0) + weight * coeff
    return constant < 0 and all(value <= 0 for value in combined.values())


def integer_witness(
    rows: Sequence[Row], vertex: Mapping[str, float]
) -> Optional[Dict[str, int]]:
    """``vertex`` rounded to non-negative integers, if that point
    satisfies every row exactly; otherwise ``None``.

    The witness lists its non-zero variables only.
    """
    point = {}
    for name, value in vertex.items():
        rounded = round(value)
        if rounded > 0:
            point[name] = rounded
    return point if satisfies(rows, point) else None
