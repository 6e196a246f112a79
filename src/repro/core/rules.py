"""Transition rules of (probabilistic) threshold automata.

A *rule* of a non-probabilistic threshold automaton (§III-B) is a tuple
``r = (from, to, phi, u)`` with source and destination locations, a
conjunction of guards ``phi`` and a non-negative update vector ``u``
over the shared and coin variables.

A rule of a *probabilistic* threshold automaton replaces the single
destination with a distribution ``delta_to`` over locations.  A rule
whose distribution is concentrated on one location is called *Dirac*.
Probabilities are exact :class:`fractions.Fraction` values (the common
coins considered in the paper are *strong*, i.e. 1/2-good, so the
typical distribution is ``{heads: 1/2, tails: 1/2}``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Mapping, Tuple

from repro.core.guards import GuardConjunction
from repro.errors import ValidationError

#: Canonical update vector representation: sorted, zero-free increments.
UpdateVector = Tuple[Tuple[str, int], ...]


def make_update(updates: Mapping[str, int]) -> UpdateVector:
    """Canonicalize an update mapping; rejects negative increments.

    The paper requires update vectors in ``N^(|Gamma|+|Omega|)`` — shared
    variables only ever increase, which is what makes threshold guards
    monotone and the schema method sound.
    """
    for name, incr in updates.items():
        if incr < 0:
            raise ValidationError(
                f"update decrements variable {name!r}; updates must be non-negative"
            )
    return tuple(sorted((n, i) for n, i in updates.items() if i != 0))


@dataclass(frozen=True)
class Rule:
    """A Dirac (deterministic-destination) threshold-automaton rule."""

    name: str
    source: str
    target: str
    guard: GuardConjunction = ()
    update: UpdateVector = ()

    def guard_variables(self) -> FrozenSet[str]:
        """All variables mentioned by the rule's guard conjunction."""
        names: set = set()
        for g in self.guard:
            names |= g.variables()
        return frozenset(names)

    def updated_variables(self) -> FrozenSet[str]:
        """Variables incremented by this rule."""
        return frozenset(name for name, _ in self.update)

    @property
    def is_self_loop(self) -> bool:
        return self.source == self.target

    def __str__(self) -> str:
        guard = " & ".join(str(g) for g in self.guard) or "true"
        update = ", ".join(f"{n}+={i}" for n, i in self.update) or "-"
        return f"{self.name}: {self.source} -> {self.target} [{guard}] ({update})"


@dataclass(frozen=True)
class ProbRule:
    """A probabilistic rule ``(from, delta_to, phi, u)`` of a coin automaton.

    Attributes:
        branches: the distribution ``delta_to`` as ``(target, probability)``
            pairs; probabilities must be positive and sum to 1.
    """

    name: str
    source: str
    branches: Tuple[Tuple[str, Fraction], ...]
    guard: GuardConjunction = ()
    update: UpdateVector = ()

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValidationError(f"rule {self.name!r} has an empty distribution")
        total = Fraction(0)
        for target, prob in self.branches:
            if prob <= 0:
                raise ValidationError(
                    f"rule {self.name!r} has non-positive branch probability "
                    f"{prob} towards {target!r}"
                )
            total += prob
        if total != 1:
            raise ValidationError(
                f"rule {self.name!r} branch probabilities sum to {total}, not 1"
            )

    @property
    def is_dirac(self) -> bool:
        """True iff the destination distribution is a point mass."""
        return len(self.branches) == 1

    def probability(self, target: str) -> Fraction:
        """Probability assigned to ``target`` (0 if absent)."""
        for loc, prob in self.branches:
            if loc == target:
                return prob
        return Fraction(0)

    def guard_variables(self) -> FrozenSet[str]:
        names: set = set()
        for g in self.guard:
            names |= g.variables()
        return frozenset(names)

    def updated_variables(self) -> FrozenSet[str]:
        return frozenset(name for name, _ in self.update)

    def __str__(self) -> str:
        guard = " & ".join(str(g) for g in self.guard) or "true"
        dist = ", ".join(f"{t}:{p}" for t, p in self.branches)
        return f"{self.name}: {self.source} -> {{{dist}}} [{guard}]"


def dirac(name: str, source: str, target: str,
          guard: GuardConjunction = (), update: UpdateVector = ()) -> ProbRule:
    """Convenience constructor for a Dirac probabilistic rule."""
    return ProbRule(name, source, ((target, Fraction(1)),), guard, update)


def fair_coin(name: str, source: str, heads: str, tails: str,
              guard: GuardConjunction = ()) -> ProbRule:
    """A strong (1/2-good) coin toss rule: 1/2 to ``heads``, 1/2 to ``tails``."""
    half = Fraction(1, 2)
    return ProbRule(name, source, ((heads, half), (tails, half)), guard)


def coin_toss(name: str, source: str,
              branches: Tuple[Tuple[str, Fraction], ...],
              guard: GuardConjunction = ()) -> ProbRule:
    """A general coin toss: any rational destination lottery.

    Zero-probability branches are dropped (a :class:`CoinSpec` with a
    vanishing extra outcome collapses to the two-branch shape);
    validation of positivity and the sum-to-1 invariant happens in
    :class:`ProbRule`.
    """
    kept = tuple((target, Fraction(p)) for target, p in branches if p != 0)
    return ProbRule(name, source, kept, guard)
