"""Atomic propositions over location counters.

The paper's Table III uses two shorthands over a location set ``S``:

* ``EX{S}`` — at least one automaton is in a location of ``S``
  (``∨_{ℓ∈S} κ[ℓ] ≠ 0``);
* ``ALL{S}`` — all automata are inside ``S``
  (``∧_{ℓ∈L\\S} κ[ℓ] = 0``).

Both are instances of two linear atoms closed under negation:

* :func:`some_at` — ``Σ_{ℓ∈S} κ[ℓ] >= bound``;
* :func:`none_at` — ``Σ_{ℓ∈S} κ[ℓ] = 0``.

``ALL{S}`` is encoded as ``none_at(complement of S)`` by the property
builders, which know the relevant location universe (the process
automaton's locations — the coin automaton never counts as a process).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Tuple


class PropKind(enum.Enum):
    #: Sum of the counters over ``locations`` is at least ``bound``.
    SOME = "some"
    #: Sum of the counters over ``locations`` equals zero.
    NONE = "none"


@dataclass(frozen=True)
class Prop:
    """A linear atomic proposition over round-local location counters."""

    kind: PropKind
    locations: Tuple[str, ...]
    bound: int = 1

    def __post_init__(self) -> None:
        if self.kind is PropKind.SOME and self.bound < 1:
            raise ValueError("SOME propositions need a bound >= 1")

    # ------------------------------------------------------------------
    def holds(self, system, config, round_no: int = 0) -> bool:
        """Evaluate against an explicit configuration.

        ``system`` is a :class:`repro.counter.system.CounterSystem`
        providing the location index.
        """
        total = 0
        for name in self.locations:
            total += config.counter(round_no, system.loc_index[name])
        if self.kind is PropKind.SOME:
            return total >= self.bound
        return total == 0

    def compile(self, system, round_no: int = 0) -> "Callable[[object], bool]":
        """Compile to an index-based closure over the flat state layout.

        Resolves the location names against ``system``'s index maps
        *once* and returns a predicate reading absolute offsets out of
        ``config.data``.  ``system`` may equally be the shared
        :class:`~repro.counter.program.ProtocolProgram`, which compiles
        each query proposition once for its proposition table.  The
        closure assumes configurations with the same flat block layout
        tracking at least ``round_no + 1`` rounds, which holds for every
        reachable state the checker feeds it.
        """
        offsets = tuple(
            round_no * system.block + system.loc_index[name]
            for name in self.locations
        )
        if self.kind is PropKind.SOME:
            bound = self.bound
            if len(offsets) == 1:
                only = offsets[0]

                def holds_some_one(config) -> bool:
                    return config.data[only] >= bound

                return holds_some_one

            def holds_some(config) -> bool:
                data = config.data
                total = 0
                for offset in offsets:
                    total += data[offset]
                return total >= bound

            return holds_some

        def holds_none(config) -> bool:
            data = config.data
            for offset in offsets:
                if data[offset]:
                    return False
            return True

        return holds_none

    def negated(self) -> "Prop":
        """Logical negation — stays within the two-atom fragment.

        ``¬(Σ >= 1)`` is ``Σ = 0`` and vice versa; bounds > 1 negate to
        ``Σ <= bound - 1``, which the fragment only supports for
        ``bound == 1`` (the only case the paper's formulas need).
        """
        if self.kind is PropKind.SOME:
            if self.bound != 1:
                raise ValueError("cannot negate SOME with bound > 1 in fragment")
            return Prop(PropKind.NONE, self.locations)
        return Prop(PropKind.SOME, self.locations, 1)

    def __str__(self) -> str:
        inner = ", ".join(self.locations)
        if self.kind is PropKind.SOME:
            if self.bound == 1:
                return f"EX{{{inner}}}"
            return f"#[{inner}] >= {self.bound}"
        return f"¬EX{{{inner}}}"


def some_at(*locations: str, bound: int = 1) -> Prop:
    """``Σ κ[ℓ] >= bound`` over the given locations (default: EX)."""
    return Prop(PropKind.SOME, tuple(locations), bound)


def none_at(*locations: str) -> Prop:
    """``Σ κ[ℓ] = 0`` over the given locations (i.e. ``¬EX{S}``)."""
    return Prop(PropKind.NONE, tuple(locations))
