"""The paper's three model transformations.

* **Definition 1** — :func:`derandomize`: replace probability with
  non-determinism, turning every branch of a non-Dirac rule of the coin
  automaton ``PTAc`` into its own Dirac rule of ``TAc``.
* **Definition 3** — :func:`single_round` /
  :func:`single_round_coin`: build the single-round automaton ``TA_rd``
  by copying border locations (``B'``), redirecting round-switch rules
  into the copies and parking processes there with self-loops.
* **Fig. 6** — :func:`refine_bca`: refine the ``S -> M⊥`` transition of
  a Binary-Crusader-Agreement protocol through the bookkeeping locations
  ``N0``, ``N1``, ``N⊥`` so that the binding conditions CB2–CB4 become
  expressible as counter propositions.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.automaton import ThresholdAutomaton
from repro.core.coin import CoinAutomaton
from repro.core.guards import Cmp, Guard
from repro.core.expression import ParamExpr
from repro.core.locations import LocKind, Location, intermediate
from repro.core.rules import Rule
from repro.errors import ValidationError

#: Suffix appended to a border location's name to form its ``B'`` copy.
BORDER_COPY_SUFFIX = "__end"


def border_copy_name(border: str) -> str:
    """Name of the ``B'`` copy of border location ``border``."""
    return border + BORDER_COPY_SUFFIX


def derandomize(coin: CoinAutomaton, name: Optional[str] = None) -> ThresholdAutomaton:
    """Definition 1: the non-probabilistic automaton ``TA_PTA``.

    Every Dirac rule is kept as-is; every probabilistic branch ``l`` with
    ``delta_to(l) > 0`` of a non-Dirac rule ``r`` becomes its own rule
    named ``{r.name}@{l}``.
    """
    rules = []
    for rule in coin.rules:
        if rule.is_dirac:
            target = rule.branches[0][0]
            rules.append(Rule(rule.name, rule.source, target, rule.guard, rule.update))
        else:
            for target, _prob in rule.branches:
                rules.append(
                    Rule(
                        f"{rule.name}@{target}",
                        rule.source,
                        target,
                        rule.guard,
                        rule.update,
                    )
                )
    return ThresholdAutomaton(
        name or f"{coin.name}-np",
        coin.locations,
        coin.shared_vars,
        coin.coin_vars,
        rules,
        role="coin",
    )


def _single_round_parts(
    locations: Sequence[Location],
    loc_of,
) -> Tuple[Tuple[Location, ...], Tuple[Rule, ...]]:
    """Shared part of Definition 3: B' copies and their self-loops."""
    copies = []
    loops = []
    for loc in locations:
        if loc.kind is not LocKind.BORDER:
            continue
        copy = Location(
            border_copy_name(loc.name), LocKind.BORDER_COPY, loc.value, False
        )
        copies.append(copy)
        loops.append(Rule(f"loop_{copy.name}", copy.name, copy.name))
    return tuple(copies), tuple(loops)


def single_round(
    automaton: ThresholdAutomaton, name: Optional[str] = None
) -> ThresholdAutomaton:
    """Definition 3 applied to a (derandomized) threshold automaton.

    Round-switch rules ``(f, b, true, 0)`` are redirected to the border
    copies ``(f, b', true, 0)``; everything else is preserved.
    """
    copies, loops = _single_round_parts(automaton.locations, automaton.location)
    switch = set(automaton.round_switch_rules)
    rules = []
    for rule in automaton.rules:
        if rule in switch:
            rules.append(
                Rule(rule.name, rule.source, border_copy_name(rule.target))
            )
        else:
            rules.append(rule)
    rules.extend(loops)
    result = ThresholdAutomaton(
        name or f"{automaton.name}-rd",
        tuple(automaton.locations) + copies,
        automaton.shared_vars,
        automaton.coin_vars,
        rules,
        role=automaton.role,
    )
    result.check_single_round_form()
    return result


def single_round_coin(
    coin: CoinAutomaton, name: Optional[str] = None
) -> CoinAutomaton:
    """Definition 3 applied directly to the probabilistic coin automaton.

    Needed for the single-round *probabilistic* counter system
    ``Sys(TAn_rd, TAc_rd)`` of Lemma 2, where coin branches stay
    probabilistic.  Round-switch rules of the coin are its rules from
    final locations to border locations.
    """
    from repro.core.rules import dirac

    copies, loop_rules = _single_round_parts(coin.locations, coin.location)
    rules = []
    for rule in coin.rules:
        source_kind = coin.location(rule.source).kind
        is_switch = (
            source_kind is LocKind.FINAL
            and rule.is_dirac
            and coin.location(rule.branches[0][0]).kind is LocKind.BORDER
        )
        if is_switch:
            rules.append(
                dirac(rule.name, rule.source, border_copy_name(rule.branches[0][0]))
            )
        else:
            rules.append(rule)
    for loop in loop_rules:
        rules.append(dirac(loop.name, loop.source, loop.target))
    return CoinAutomaton(
        name or f"{coin.name}-rd",
        tuple(coin.locations) + copies,
        coin.shared_vars,
        coin.coin_vars,
        rules,
    )


def refine_bca(
    automaton: ThresholdAutomaton,
    rule_name: str,
    m0_var: str,
    m1_var: str,
    n0: str = "N0",
    n1: str = "N1",
    nbot: str = "Nbot",
    name: Optional[str] = None,
) -> ThresholdAutomaton:
    """Fig. 6: refine the ``S -> M⊥`` rule of a category-(C) protocol.

    The rule ``r3 = (S, M⊥, φ, 0)`` is replaced by::

        r3A = (S, N0,  φ ∧ m0 > 0, 0)
        r3B = (S, N1,  φ ∧ m1 > 0, 0)
        r3C = (S, N⊥,  φ ∧ m0 = 0 ∧ m1 = 0, 0)
        r3{0,1,⊥} = (N{0,1,⊥}, M⊥, true, 0)

    which lets the binding conditions CB2–CB4 refer to the counters of
    ``N0``/``N1``/``N⊥`` instead of unsupported propositions about the
    exact number of received messages.

    Args:
        automaton: the process automaton containing ``rule_name``.
        rule_name: name of the ``S -> M⊥`` rule to refine.
        m0_var / m1_var: shared variables counting received messages
            with value 0 / 1 in the refined step.
        n0 / n1 / nbot: names for the three bookkeeping locations.
    """
    try:
        rule = automaton.rule(rule_name)
    except KeyError:
        raise ValidationError(
            f"{automaton.name}: no rule named {rule_name!r} to refine"
        ) from None
    if rule.update:
        raise ValidationError(
            f"{automaton.name}: rule {rule_name!r} must keep shared variables "
            f"unchanged to be refinable"
        )
    for fresh in (n0, n1, nbot):
        if automaton.has_location(fresh):
            raise ValidationError(
                f"{automaton.name}: location {fresh!r} already exists"
            )
    for var in (m0_var, m1_var):
        if var not in automaton.shared_vars:
            raise ValidationError(
                f"{automaton.name}: {var!r} is not a shared variable"
            )

    positive_m0 = Guard(((m0_var, 1),), Cmp.GE, ParamExpr.constant(1))
    positive_m1 = Guard(((m1_var, 1),), Cmp.GE, ParamExpr.constant(1))
    zero_m0 = Guard(((m0_var, 1),), Cmp.LT, ParamExpr.constant(1))
    zero_m1 = Guard(((m1_var, 1),), Cmp.LT, ParamExpr.constant(1))

    new_locations = tuple(automaton.locations) + (
        intermediate(n0, value=0),
        intermediate(n1, value=1),
        intermediate(nbot),
    )
    new_rules = [r for r in automaton.rules if r.name != rule_name]
    new_rules.extend(
        [
            Rule(f"{rule_name}A", rule.source, n0, rule.guard + (positive_m0,)),
            Rule(f"{rule_name}B", rule.source, n1, rule.guard + (positive_m1,)),
            Rule(f"{rule_name}C", rule.source, nbot, rule.guard + (zero_m0, zero_m1)),
            Rule(f"{rule_name}0", n0, rule.target),
            Rule(f"{rule_name}1", n1, rule.target),
            Rule(f"{rule_name}bot", nbot, rule.target),
        ]
    )
    return ThresholdAutomaton(
        name or f"{automaton.name}-refined",
        new_locations,
        automaton.shared_vars,
        automaton.coin_vars,
        new_rules,
        role=automaton.role,
    )
