"""Verification query shapes (§V of the paper).

Every proof obligation the paper discharges with ByMC reduces to one of
two shapes over the single-round system:

* :class:`ReachQuery` — an **A-query**: a non-probabilistic formula
  ``A(F p → G q)`` or ``A(init-premise → G q)``.  Its *violation* is a
  finite schedule that witnesses every *event* in :attr:`events` (in any
  order), starting from an initial configuration allowed by
  :attr:`init_filter`.  All safety conditions (Inv1, Inv2, C2,
  CB0–CB4) are A-queries.

* :class:`GameQuery` — an **E-query** arising from Lemma 2:
  ``∀ adversary ∃ path ⊨ φ``.  Its violation is an adversary *strategy*
  that forces every event in :attr:`events` against all resolutions of
  the coin's probabilistic branches.  The probabilistic termination
  conditions (C1, C2′) are E-queries.

``init_filter`` pins the number of processes placed in given start
locations (e.g. ``{"J1": 0}`` models the premise "no correct process
starts the round with estimate 1").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.spec.propositions import Prop


@dataclass(frozen=True)
class ReachQuery:
    """An A-query; violated by a multi-event reachability witness."""

    name: str
    formula: str
    events: Tuple[Prop, ...]
    init_filter: Optional[Dict[str, int]] = None
    #: Human note, e.g. which paper property this discharges.
    note: str = ""

    def __str__(self) -> str:
        return f"{self.name}: {self.formula}"


@dataclass(frozen=True)
class GameQuery:
    """An E-query; violated by a coin-proof adversary strategy."""

    name: str
    formula: str
    events: Tuple[Prop, ...]
    init_filter: Optional[Dict[str, int]] = None
    note: str = ""

    def __str__(self) -> str:
        return f"{self.name}: {self.formula}"

