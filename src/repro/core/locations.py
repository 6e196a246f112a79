"""Locations of threshold automata.

The paper partitions the locations of a threshold automaton into border
locations ``B``, initial locations ``I``, final locations ``F`` and the
remaining intermediate locations; for binary consensus each of ``B``,
``I``, ``F`` is further split by the binary value ``0``/``1``, and final
locations may additionally be *decision* locations ``D_v ⊆ F_v``
(§III-B).  The single-round construction (Definition 3) adds copies of
border locations, here marked :attr:`LocKind.BORDER_COPY`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


class LocKind(enum.Enum):
    """Structural role of a location inside a threshold automaton."""

    BORDER = "border"
    INITIAL = "initial"
    INTERMEDIATE = "intermediate"
    FINAL = "final"
    #: Copy of a border location introduced by the single-round
    #: construction of Definition 3 (the ``B'`` locations).
    BORDER_COPY = "border_copy"


@dataclass(frozen=True)
class Location:
    """A single automaton location.

    Attributes:
        name: unique identifier inside the automaton.
        kind: structural role (border/initial/final/...).
        value: for binary-consensus partitioning, the binary value 0 or 1
            associated with the location, or ``None`` when the location
            is not value-classified (e.g. intermediate locations, or the
            ``M_bot`` output of a crusader agreement).
        decision: True iff the location is a decision (accepting)
            location; only final locations may be decisions.
    """

    name: str
    kind: LocKind = LocKind.INTERMEDIATE
    value: Optional[int] = None
    decision: bool = False

    def __post_init__(self) -> None:
        if self.value not in (None, 0, 1):
            raise ValueError(f"location value must be 0, 1 or None, got {self.value!r}")
        if self.decision and self.kind is not LocKind.FINAL:
            raise ValueError(f"decision location {self.name!r} must be final")

    def __str__(self) -> str:
        return self.name


def border(name: str, value: Optional[int] = None) -> Location:
    """A border location (round entry point)."""
    return Location(name, LocKind.BORDER, value)


def initial(name: str, value: Optional[int] = None) -> Location:
    """An initial location (start of the round body)."""
    return Location(name, LocKind.INITIAL, value)


def intermediate(name: str, value: Optional[int] = None) -> Location:
    """An ordinary in-round location."""
    return Location(name, LocKind.INTERMEDIATE, value)


def final(name: str, value: Optional[int] = None, decision: bool = False) -> Location:
    """A final location; ``decision=True`` marks it accepting (in ``D_v``)."""
    return Location(name, LocKind.FINAL, value, decision)


def start_locations(locations: Sequence[Location]) -> Tuple[Location, ...]:
    """Where a round starts: the border locations, else the initial ones."""
    borders = tuple(l for l in locations if l.kind is LocKind.BORDER)
    if borders:
        return borders
    return tuple(l for l in locations if l.kind is LocKind.INITIAL)
