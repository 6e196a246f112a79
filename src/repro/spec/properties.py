"""The paper's property library (Table III and §V).

:class:`PropertyLibrary` derives, from a protocol's
:class:`~repro.core.system.SystemModel`, the location sets
``I_v, B_v, F_v, D_v, E_v`` (and the crusader sets ``M``/``N`` for
category (C)) and builds the paper's proof obligations:

* round invariants **Inv1**, **Inv2** (⇒ Agreement, Validity —
  Proposition 1);
* termination conditions **C1**, **C2**, **C2′** (Propositions 2, 3);
* binding conditions **CB0–CB4** (Propositions 4, 5, run on the
  Fig. 6-refined model).

Formulas are rendered in the exact shorthand of Table III, e.g.::

    (Inv1)  A F (EX{D0}) → G (¬EX{E1, D1})
    (Inv2)  A ALL{I0} → G (¬EX{E1, D1})
    (C1)    A F (EX{D0, E0}) → G (¬EX{D1, E1})
    (CB0)   A F (EX{M0}) → G (¬EX{M1})
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.locations import LocKind
from repro.core.system import SystemModel
from repro.errors import CheckError
from repro.spec.propositions import some_at
from repro.spec.queries import GameQuery, ReachQuery


class PropertyLibrary:
    """Builds the paper's verification queries for one protocol model."""

    def __init__(self, model: SystemModel):
        self.model = model
        process = model.process
        self._initial: Dict[int, Tuple[str, ...]] = {}
        self._final: Dict[int, Tuple[str, ...]] = {}
        self._decision: Dict[int, Tuple[str, ...]] = {}
        for v in (0, 1):
            self._initial[v] = tuple(
                loc.name for loc in process.locations_of(LocKind.INITIAL, value=v)
            )
            self._final[v] = tuple(
                loc.name for loc in process.locations_of(LocKind.FINAL, value=v)
            )
            self._decision[v] = tuple(
                loc.name
                for loc in process.locations_of(LocKind.FINAL, value=v, decision=True)
            )
        borders = process.locations_of(LocKind.BORDER)
        self._start_by_value: Dict[int, Tuple[str, ...]] = {}
        start_pool = borders if borders else process.locations_of(LocKind.INITIAL)
        for v in (0, 1):
            self._start_by_value[v] = tuple(
                loc.name for loc in start_pool if loc.value == v
            )

    # ------------------------------------------------------------------
    # Location sets
    # ------------------------------------------------------------------
    def estimate_locs(self, value: int) -> Tuple[str, ...]:
        """``E_v = F_v \\ D_v`` — finals that did not decide."""
        decisions = set(self._decision[value])
        return tuple(name for name in self._final[value] if name not in decisions)

    def undecided_finals(self, value: int) -> Tuple[str, ...]:
        """``F \\ D_v`` — every final except the ``v`` decisions."""
        result = list(self.estimate_locs(0)) + list(self.estimate_locs(1))
        result += list(self._decision[1 - value])
        return tuple(result)

    def crusader(self, role: str) -> str:
        """Name of a crusader location (``M0``/``M1``/``Mbot``/``N*``)."""
        try:
            return self.model.crusader_locations[role]
        except KeyError:
            raise CheckError(
                f"{self.model.name}: model does not define crusader location "
                f"{role!r} (category-C queries need the refined model)"
            ) from None

    def all_start_with(self, value: int) -> Dict[str, int]:
        """Init filter pinning every process to start with ``value``."""
        return {name: 0 for name in self._start_by_value[1 - value]}

    # ------------------------------------------------------------------
    # Safety: round invariants
    # ------------------------------------------------------------------
    def inv1(self, value: int) -> ReachQuery:
        """(Inv1): a ``v`` decision forbids any ``1-v`` final, same round."""
        dv = self._decision[value]
        other = self._final[1 - value]
        return ReachQuery(
            name=f"inv1[{value}]",
            formula=(
                f"A F (EX{{{', '.join(dv)}}}) → "
                f"G (¬EX{{{', '.join(other)}}})"
            ),
            events=(some_at(*dv), some_at(*other)),
            note="round invariant 1 (Agreement via Proposition 1)",
        )

    def inv2(self, value: int) -> ReachQuery:
        """(Inv2): all start ``v`` ⇒ none ends ``1-v`` in that round."""
        other = self._final[1 - value]
        start = self._initial[value]
        return ReachQuery(
            name=f"inv2[{value}]",
            formula=(
                f"A ALL{{{', '.join(start)}}} → "
                f"G (¬EX{{{', '.join(other)}}})"
            ),
            events=(some_at(*other),),
            init_filter=self.all_start_with(value),
            note="round invariant 2 (Validity via Proposition 1)",
        )

    def agreement_queries(self) -> Tuple[ReachQuery, ...]:
        return (self.inv1(0), self.inv1(1))

    def validity_queries(self) -> Tuple[ReachQuery, ...]:
        return (self.inv2(0), self.inv2(1))

    # ------------------------------------------------------------------
    # Termination conditions
    # ------------------------------------------------------------------
    def c1(self) -> GameQuery:
        """(C1): positive-probability lower bound on a uniform round end.

        Via Lemma 2 this is the E-query "for every round-rigid adversary
        some coin resolution ends the round uniform"; its violation is
        an adversary strategy forcing both values into final locations
        against every coin outcome.
        """
        f0, f1 = self._final[0], self._final[1]
        return GameQuery(
            name="c1",
            formula=(
                f"A F (EX{{{', '.join(f0)}}}) → G (¬EX{{{', '.join(f1)}}})"
            ),
            events=(some_at(*f0), some_at(*f1)),
            note="termination condition C1 (probability bound, Lemma 2)",
        )

    def c2(self, value: int) -> ReachQuery:
        """(C2): uniform start stays uniform (category-A protocols)."""
        query = self.inv2(value)
        return ReachQuery(
            name=f"c2[{value}]",
            formula=query.formula,
            events=query.events,
            init_filter=query.init_filter,
            note="termination condition C2 (same formula as Inv2)",
        )

    def c2prime(self, value: int) -> GameQuery:
        """(C2′): uniform start ⇒ all decide ``v`` with positive probability.

        Violation: an adversary strategy that, from an all-``v`` start,
        forces some process to finish without deciding ``v`` no matter
        how the coin falls.
        """
        bad = self.undecided_finals(value)
        start = self._initial[value]
        return GameQuery(
            name=f"c2'[{value}]",
            formula=(
                f"A ALL{{{', '.join(start)}}} → "
                f"G (¬EX{{{', '.join(bad)}}})"
            ),
            events=(some_at(*bad),),
            init_filter=self.all_start_with(value),
            note="termination condition C2' (probabilistic decide, Lemma 2)",
        )

    # ------------------------------------------------------------------
    # Binding conditions (category C)
    # ------------------------------------------------------------------
    def cb(self, index: int) -> ReachQuery:
        """(CB0)–(CB4) from §V-B (need the Fig. 6-refined model)."""
        m0, m1 = self.crusader("M0"), self.crusader("M1")
        if index == 0:
            first, second, label = m0, (m1,), "M0 then never M1"
        elif index == 1:
            first, second, label = m1, (m0,), "M1 then never M0"
        elif index == 2:
            first, second, label = self.crusader("N0"), (m1,), "N0 then never M1"
        elif index == 3:
            first, second, label = self.crusader("N1"), (m0,), "N1 then never M0"
        elif index == 4:
            first, second, label = self.crusader("Nbot"), (m0, m1), (
                "Nbot then never M0/M1"
            )
        else:
            raise CheckError(f"no binding condition CB{index}")
        return ReachQuery(
            name=f"cb{index}",
            formula=(
                f"A F (EX{{{first}}}) → G (¬EX{{{', '.join(second)}}})"
            ),
            events=(some_at(first), some_at(*second)),
            note=f"binding condition CB{index} ({label})",
        )

    def binding_queries(self) -> Tuple[ReachQuery, ...]:
        return tuple(self.cb(i) for i in range(5))
