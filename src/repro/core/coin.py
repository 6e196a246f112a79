"""Probabilistic threshold automata for common coins (§III-B of the paper).

A common-coin automaton ``PTAc = (Lc, Vc, Rc)`` shares the variable
space with the process automaton but its rules carry *distributions*
over destination locations.  The paper's restrictions, enforced here:

* guards may only be conjunctions of *simple* guards (over shared
  variables) — the coin may be triggered by process progress but never
  reads its own coin variables;
* updates must not modify shared variables — the coin communicates its
  outcome exclusively through the coin variables Ω (e.g. ``cc0++`` /
  ``cc1++``);
* unlike Bertrand et al.'s PTA, non-Dirac rules may appear anywhere,
  not only in front of final locations.

The typical instance (Fig. 4(b) of the paper) is produced by
:func:`standard_coin_automaton`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.automaton import AutomatonBase, strongly_connected_components
from repro.core.coinspec import CoinSpec, resolve_coin_spec
from repro.core.guards import Guard
from repro.core.locations import LocKind, border, final, initial, intermediate
from repro.core.rules import ProbRule, coin_toss, dirac, make_update
from repro.errors import ValidationError


class CoinAutomaton(AutomatonBase):
    """A probabilistic threshold automaton modelling the common coin.

    Constructed like :class:`~repro.core.automaton.ThresholdAutomaton`
    (``name, locations, shared_vars, coin_vars, rules``) but with
    :class:`~repro.core.rules.ProbRule` rules.
    """

    def _validate(self) -> None:
        shared, coin = set(self.shared_vars), set(self.coin_vars)
        for rule in self.rules:
            if rule.source not in self._loc_by_name:
                raise ValidationError(
                    f"{self.name}: rule {rule.name!r} references unknown "
                    f"location {rule.source!r}"
                )
            for target, _prob in rule.branches:
                if target not in self._loc_by_name:
                    raise ValidationError(
                        f"{self.name}: rule {rule.name!r} references unknown "
                        f"location {target!r}"
                    )
            guard_vars = rule.guard_variables()
            unknown = guard_vars - shared - coin
            if unknown:
                raise ValidationError(
                    f"{self.name}: rule {rule.name!r} guards undeclared "
                    f"variables {sorted(unknown)}"
                )
            if guard_vars & coin:
                raise ValidationError(
                    f"{self.name}: coin rule {rule.name!r} must use simple "
                    f"guards only (found coin variables "
                    f"{sorted(guard_vars & coin)})"
                )
            updated = rule.updated_variables()
            unknown = updated - shared - coin
            if unknown:
                raise ValidationError(
                    f"{self.name}: rule {rule.name!r} updates undeclared "
                    f"variables {sorted(unknown)}"
                )
            if updated & shared:
                raise ValidationError(
                    f"{self.name}: coin rule {rule.name!r} must not update "
                    f"shared variables ({sorted(updated & shared)})"
                )
            self._rules_from[rule.source].append(rule)

    # ------------------------------------------------------------------
    def edges(self) -> Tuple[Tuple[str, str, ProbRule], ...]:
        result = []
        for rule in self.rules:
            for target, _prob in rule.branches:
                result.append((rule.source, target, rule))
        return tuple(result)

    def _is_round_switch(self, rule: ProbRule) -> bool:
        if not rule.is_dirac:
            return False
        source = self.location(rule.source)
        target = self.location(rule.branches[0][0])
        return source.kind is LocKind.FINAL and target.kind is LocKind.BORDER

    def is_canonical(self) -> bool:
        """True iff every rule on an (in-round) cycle has a zero update.

        As for process automata, cycles closed by round-switch rules are
        benign because variables are per-round copies.
        """
        component = strongly_connected_components(
            (loc.name for loc in self.locations),
            (
                (src, dst)
                for src, dst, rule in self.edges()
                if not self._is_round_switch(rule)
            ),
        )
        for rule in self.rules:
            if not rule.update or self._is_round_switch(rule):
                continue
            for target, _prob in rule.branches:
                if rule.source == target or component[rule.source] == component[target]:
                    return False
        return True

    def __repr__(self) -> str:
        return (
            f"CoinAutomaton({self.name!r}, |L|={len(self.locations)}, "
            f"|R|={len(self.rules)})"
        )


def standard_coin_automaton(
    shared_vars: Sequence[str],
    coin_vars: Sequence[str] = ("cc0", "cc1"),
    prefix: str = "coin",
    trigger_guard: Tuple[Guard, ...] = (),
    spec: Optional[CoinSpec] = None,
) -> CoinAutomaton:
    """The Fig. 4(b) common-coin automaton, generalized over a spec.

    Locations ``J2 -> I2 -> {T0, T1} -> {C0, C1} -> J2``: the coin
    enters the round (``ra``), tosses (``rb``, with the spec's branch
    lottery — the default :class:`~repro.core.coinspec.PerfectCoin`
    gives the paper's strong 1/2 / 1/2 coin), publishes the outcome by
    incrementing ``cc0`` or ``cc1`` (``rc`` / ``rd``) and
    round-switches back (``re`` / ``rf``).  (The paper draws the
    toss-outcome locations as ``N0``/``N1``; we call them ``T0`` /
    ``T1`` so they cannot collide with the ``N0``/``N1``/``N⊥``
    locations that the Fig. 6 binding refinement adds to the *process*
    automaton — the combined system keeps one location namespace.)

    Specs with a third outcome extend the lozenge by one path:

    * :class:`~repro.core.coinspec.DeltaFailingCoin` — ``rb`` reaches
      ``Tbot`` with probability δ; ``rg: Tbot -> Cbot`` publishes
      *nothing* and ``rh`` round-switches, so the round's coin guards
      never fire;
    * :class:`~repro.core.coinspec.DisagreeingCoin` — ``rb`` reaches
      ``TS`` with probability ρ; ``rg: TS -> CS`` publishes *both*
      variables of the secondary (split-view) pair.

    Args:
        shared_vars: the shared variables of the accompanying process
            automaton (the spaces must coincide).
        coin_vars: the two *primary* outcome counters, default
            ``cc0``/``cc1`` (a disagreeing spec appends its secondary
            pair itself).
        prefix: prefix used in the automaton name.
        trigger_guard: optional simple-guard conjunction on the toss rule
            ``rb`` (e.g. the coin may only be revealed once enough
            processes asked for it).
        spec: the :class:`~repro.core.coinspec.CoinSpec` (or spec
            string / None for the default perfect coin).
    """
    if len(coin_vars) != 2:
        raise ValidationError("standard coin automaton needs exactly 2 coin variables")
    spec = resolve_coin_spec(spec)
    p0, p1, p_extra = spec.toss_probabilities()
    full_vars = spec.coin_vars_for(tuple(coin_vars))

    if p_extra == 0:
        locations = (
            border("J2"),
            initial("I2"),
            intermediate("T0", value=0),
            intermediate("T1", value=1),
            final("C0", value=0),
            final("C1", value=1),
        )
        rules = (
            dirac("ra", "J2", "I2"),
            coin_toss("rb", "I2", (("T0", p0), ("T1", p1)),
                      guard=tuple(trigger_guard)),
            dirac("rc", "T0", "C0", update=make_update({coin_vars[0]: 1})),
            dirac("rd", "T1", "C1", update=make_update({coin_vars[1]: 1})),
            dirac("re", "C0", "J2"),
            dirac("rf", "C1", "J2"),
        )
        return CoinAutomaton(
            f"{prefix}-cc", locations, shared_vars, full_vars, rules
        )

    if spec.needs_split_vars():
        t_extra, c_extra = "TS", "CS"
        publish = make_update({name: 1 for name in full_vars[2:]})
    else:
        t_extra, c_extra = "Tbot", "Cbot"
        publish = ()  # a failed round publishes no coin value at all
    locations = (
        border("J2"),
        initial("I2"),
        intermediate("T0", value=0),
        intermediate("T1", value=1),
        intermediate(t_extra),
        final("C0", value=0),
        final("C1", value=1),
        final(c_extra),
    )
    rules = (
        dirac("ra", "J2", "I2"),
        coin_toss("rb", "I2", (("T0", p0), ("T1", p1), (t_extra, p_extra)),
                  guard=tuple(trigger_guard)),
        dirac("rc", "T0", "C0", update=make_update({coin_vars[0]: 1})),
        dirac("rd", "T1", "C1", update=make_update({coin_vars[1]: 1})),
        dirac("rg", t_extra, c_extra, update=publish),
        dirac("re", "C0", "J2"),
        dirac("rf", "C1", "J2"),
        dirac("rh", c_extra, "J2"),
    )
    return CoinAutomaton(
        f"{prefix}-cc", locations, shared_vars, full_vars, rules
    )
