"""Per-category proof obligations (§V-B, Propositions 1–5).

The paper divides common-coin protocols into three categories and gives
each a sufficient-condition bundle for Agreement, Validity and
Almost-Sure Termination.  :func:`obligations_for` assembles the full
bundle for one protocol model:

========  ==========================================================
Category  Almost-sure termination conditions
========  ==========================================================
(A)       C1 (probabilistic, Lemma 2) and C2 (non-probabilistic)
(B)       C1 and C2′ (both probabilistic, Lemma 2)
(C)       CB0–CB4 (binding, on the refined model) and C2′ —
          binding + coin independence yields C1 (Proposition 5)
========  ==========================================================

All bundles additionally include the Theorem 2 side conditions for the
single-round system: non-blocking and fair termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.system import SystemModel
from repro.errors import CheckError
from repro.spec.properties import PropertyLibrary
from repro.spec.queries import GameQuery, ReachQuery


@dataclass(frozen=True)
class ObligationSet:
    """Everything to discharge for one protocol and one consensus property."""

    protocol: str
    #: "agreement" | "validity" | "termination"
    target: str
    reach_queries: Tuple[ReachQuery, ...] = ()
    game_queries: Tuple[GameQuery, ...] = ()
    #: names of Theorem 2 side conditions to establish once per protocol
    side_conditions: Tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.reach_queries) + len(self.game_queries)


def agreement_obligations(model: SystemModel) -> ObligationSet:
    """Inv1 for both values (Proposition 1)."""
    lib = PropertyLibrary(model)
    return ObligationSet(
        protocol=model.name,
        target="agreement",
        reach_queries=lib.agreement_queries(),
        side_conditions=("non_blocking", "fair_termination"),
    )


def validity_obligations(model: SystemModel) -> ObligationSet:
    """Inv2 for both values (Proposition 1)."""
    lib = PropertyLibrary(model)
    return ObligationSet(
        protocol=model.name,
        target="validity",
        reach_queries=lib.validity_queries(),
        side_conditions=("non_blocking", "fair_termination"),
    )


def termination_obligations(model: SystemModel) -> ObligationSet:
    """The category-specific A.S.-termination bundle (§V-B)."""
    lib = PropertyLibrary(model)
    category = model.category
    if category == "A":
        return ObligationSet(
            protocol=model.name,
            target="termination",
            reach_queries=(lib.c2(0), lib.c2(1)),
            game_queries=(lib.c1(),),
            side_conditions=("non_blocking", "fair_termination"),
        )
    if category == "B":
        return ObligationSet(
            protocol=model.name,
            target="termination",
            game_queries=(lib.c1(), lib.c2prime(0), lib.c2prime(1)),
            side_conditions=("non_blocking", "fair_termination"),
        )
    if category == "C":
        return ObligationSet(
            protocol=model.name,
            target="termination",
            reach_queries=lib.binding_queries(),
            game_queries=(lib.c2prime(0), lib.c2prime(1)),
            side_conditions=("non_blocking", "fair_termination"),
        )
    raise CheckError(
        f"{model.name}: protocol has no termination category "
        f"(got {category!r}); cannot build termination obligations"
    )


def obligations_for(model: SystemModel, target: str) -> ObligationSet:
    """Dispatch by target: agreement / validity / termination."""
    if target == "agreement":
        return agreement_obligations(model)
    if target == "validity":
        return validity_obligations(model)
    if target == "termination":
        return termination_obligations(model)
    raise CheckError(f"unknown verification target {target!r}")
