"""Threshold automata for correct processes (§III-B of the paper).

A threshold automaton ``TAn = (Ln, Vn, Rn)`` has locations partitioned
into border/initial/intermediate/final sets, variables split into shared
variables Γ and coin variables Ω, and guarded rules with non-negative
update vectors.  This module implements the non-probabilistic automaton
used for correct processes, together with the structural validation
rules stated in the paper:

* ``|B| = |I|``, border locations feed initial locations through
  ``(l, l', true, 0)`` rules;
* round-switch rules lead from final locations to border locations of
  the next round, also with trivial guard and update;
* a location is a border location iff all incoming edges are
  round-switch rules, and final iff its only outgoing edge is one;
* the automaton is *canonical*: every rule lying on a cycle has a zero
  update vector;
* a rule's guard is either a conjunction of simple guards (over shared
  variables) or of coin guards (over coin variables), and process rules
  never update coin variables.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.locations import LocKind, Location
from repro.core.rules import Rule
from repro.errors import ValidationError


def strongly_connected_components(
    nodes: Iterable[str], edges: Iterable[Tuple[str, str]]
) -> Dict[str, int]:
    """Map each node to an SCC id (iterative Tarjan).

    Exposed for reuse by the transforms and analysis modules.
    """
    adjacency: Dict[str, List[str]] = {node: [] for node in nodes}
    for src, dst in edges:
        adjacency[src].append(dst)

    index_of: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    component: Dict[str, int] = {}
    counter = [0]
    comp_counter = [0]

    for root in adjacency:
        if root in index_of:
            continue
        work = [(root, iter(adjacency[root]))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adjacency[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component[member] = comp_counter[0]
                    if member == node:
                        break
                comp_counter[0] += 1
    return component


class AutomatonBase:
    """Name-indexed accessors shared by both kinds of automaton.

    Stores the common fields, rejects duplicate location and rule
    names, and indexes both by name.  ``_rules_from`` starts empty per
    location; the subclass's ``_validate`` fills it once it has checked
    that every rule endpoint names a location.
    :class:`ThresholdAutomaton` and :class:`repro.core.coin.
    CoinAutomaton` stay distinct classes: their rules, edges and
    canonicity differ.
    """

    def __init__(
        self,
        name: str,
        locations: Sequence[Location],
        shared_vars: Sequence[str],
        coin_vars: Sequence[str],
        rules: Sequence,
    ):
        self.name = name
        self.locations: Tuple[Location, ...] = tuple(locations)
        self.shared_vars: Tuple[str, ...] = tuple(shared_vars)
        self.coin_vars: Tuple[str, ...] = tuple(coin_vars)
        self.rules = tuple(rules)
        names = [loc.name for loc in self.locations]
        if len(set(names)) != len(names):
            raise ValidationError(f"{self.name}: duplicate location names")
        rule_names = [rule.name for rule in self.rules]
        if len(set(rule_names)) != len(rule_names):
            raise ValidationError(f"{self.name}: duplicate rule names")
        self._loc_by_name = {loc.name: loc for loc in self.locations}
        self._rule_by_name = {rule.name: rule for rule in self.rules}
        self._rules_from: Dict[str, list] = {
            loc.name: [] for loc in self.locations
        }
        self._validate()

    def location(self, name: str) -> Location:
        """The location named ``name`` (raises ``KeyError`` if absent)."""
        return self._loc_by_name[name]

    def has_location(self, name: str) -> bool:
        return name in self._loc_by_name

    def rule(self, name: str):
        """The rule named ``name`` (raises ``KeyError`` if absent)."""
        return self._rule_by_name[name]

    def rules_from(self, location: str) -> tuple:
        return tuple(self._rules_from[location])

    def locations_of(
        self,
        kind: Optional[LocKind] = None,
        value: Optional[int] = None,
        decision: Optional[bool] = None,
    ) -> Tuple[Location, ...]:
        """Locations filtered by kind, value and/or decision flag."""
        result = []
        for loc in self.locations:
            if kind is not None and loc.kind is not kind:
                continue
            if value is not None and loc.value != value:
                continue
            if decision is not None and loc.decision != decision:
                continue
            result.append(loc)
        return tuple(result)

    @property
    def border_locations(self) -> Tuple[Location, ...]:
        return self.locations_of(kind=LocKind.BORDER)

    @property
    def initial_locations(self) -> Tuple[Location, ...]:
        return self.locations_of(kind=LocKind.INITIAL)

    @property
    def final_locations(self) -> Tuple[Location, ...]:
        return self.locations_of(kind=LocKind.FINAL)

    def size(self) -> Tuple[int, int]:
        """``(|L|, |R|)`` — the size columns of the paper's Table II."""
        return len(self.locations), len(self.rules)


class ThresholdAutomaton(AutomatonBase):
    """A non-probabilistic threshold automaton.

    ``role`` distinguishes the constraints the paper places on the two
    kinds of automata sharing one variable space:

    * ``"process"`` (default): rules never update coin variables, and a
      rule guard is homogeneous — all-simple or all-coin;
    * ``"coin"``: the shape obtained by derandomizing a
      :class:`repro.core.coin.CoinAutomaton` (Definition 1) — guards are
      simple only, updates touch coin variables only.
    """

    def __init__(
        self,
        name: str,
        locations: Sequence[Location],
        shared_vars: Sequence[str],
        coin_vars: Sequence[str],
        rules: Sequence[Rule],
        role: str = "process",
    ):
        if role not in ("process", "coin"):
            raise ValidationError(f"unknown automaton role {role!r}")
        self.role = role
        super().__init__(name, locations, shared_vars, coin_vars, rules)

    # ------------------------------------------------------------------
    # Construction-time validation and indexing
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        var_names = list(self.shared_vars) + list(self.coin_vars)
        if len(set(var_names)) != len(var_names):
            raise ValidationError(f"{self.name}: duplicate variable names")
        shared, coin = set(self.shared_vars), set(self.coin_vars)
        for rule in self.rules:
            for endpoint in (rule.source, rule.target):
                if endpoint not in self._loc_by_name:
                    raise ValidationError(
                        f"{self.name}: rule {rule.name!r} references unknown "
                        f"location {endpoint!r}"
                    )
            guard_vars = rule.guard_variables()
            unknown = guard_vars - shared - coin
            if unknown:
                raise ValidationError(
                    f"{self.name}: rule {rule.name!r} guards undeclared "
                    f"variables {sorted(unknown)}"
                )
            # Guard homogeneity: either all simple or all coin (§III-B).
            if guard_vars and not (guard_vars <= shared or guard_vars <= coin):
                raise ValidationError(
                    f"{self.name}: rule {rule.name!r} mixes shared and coin "
                    f"variables in its guard"
                )
            updated = rule.updated_variables()
            unknown = updated - shared - coin
            if unknown:
                raise ValidationError(
                    f"{self.name}: rule {rule.name!r} updates undeclared "
                    f"variables {sorted(unknown)}"
                )
            if self.role == "process":
                # Process rules must keep coin variables unchanged.
                touched_coins = updated & coin
                if touched_coins:
                    raise ValidationError(
                        f"{self.name}: process rule {rule.name!r} updates coin "
                        f"variables {sorted(touched_coins)}"
                    )
            else:
                # Derandomized coin rules: simple guards, coin-only updates.
                if guard_vars & coin:
                    raise ValidationError(
                        f"{self.name}: coin rule {rule.name!r} must use simple "
                        f"guards only"
                    )
                if updated & shared:
                    raise ValidationError(
                        f"{self.name}: coin rule {rule.name!r} must not update "
                        f"shared variables"
                    )
        self._rules_to = {loc.name: [] for loc in self.locations}
        for rule in self.rules:
            self._rules_from[rule.source].append(rule)
            self._rules_to[rule.target].append(rule)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def rules_to(self, location: str) -> Tuple[Rule, ...]:
        return tuple(self._rules_to[location])

    @property
    def border_copy_locations(self) -> Tuple[Location, ...]:
        return self.locations_of(kind=LocKind.BORDER_COPY)

    @property
    def round_switch_rules(self) -> Tuple[Rule, ...]:
        """Rules from final to border locations (the set ``S``)."""
        return tuple(
            rule
            for rule in self.rules
            if self.location(rule.source).kind is LocKind.FINAL
            and self.location(rule.target).kind is LocKind.BORDER
        )

    @property
    def border_entry_rules(self) -> Tuple[Rule, ...]:
        """Rules from border to initial locations."""
        return tuple(
            rule
            for rule in self.rules
            if self.location(rule.source).kind is LocKind.BORDER
            and self.location(rule.target).kind is LocKind.INITIAL
        )

    def edges(self) -> Tuple[Tuple[str, str, Rule], ...]:
        """All ``(source, target, rule)`` edges."""
        return tuple((rule.source, rule.target, rule) for rule in self.rules)

    # ------------------------------------------------------------------
    # Deep validation
    # ------------------------------------------------------------------
    def is_canonical(self) -> bool:
        """True iff every rule on a cycle has a zero update vector."""
        return not self._non_canonical_rules()

    def _non_canonical_rules(self) -> List[Rule]:
        # Round-switch edges close the inter-round loop of a multi-round
        # automaton, but updates apply to per-round variable copies, so
        # those cycles are benign; canonicity concerns in-round cycles.
        switch = set(self.round_switch_rules)
        component = strongly_connected_components(
            (loc.name for loc in self.locations),
            ((r.source, r.target) for r in self.rules if r not in switch),
        )
        offending = []
        for rule in self.rules:
            if not rule.update or rule in switch:
                continue
            if rule.is_self_loop or component[rule.source] == component[rule.target]:
                offending.append(rule)
        return offending

    def check_canonical(self) -> None:
        """Raise :class:`ValidationError` unless the automaton is canonical."""
        offending = self._non_canonical_rules()
        if offending:
            names = ", ".join(rule.name for rule in offending)
            raise ValidationError(
                f"{self.name}: non-canonical, rules on cycles with updates: {names}"
            )

    def _check_trivial_rule(self, rule: Rule, context: str) -> None:
        if rule.guard or rule.update:
            raise ValidationError(
                f"{self.name}: {context} rule {rule.name!r} must have a true "
                f"guard and zero update"
            )

    def _check_value_respect(self, rule: Rule, context: str) -> None:
        src = self.location(rule.source)
        dst = self.location(rule.target)
        if src.value is not None and dst.value is not None and src.value != dst.value:
            raise ValidationError(
                f"{self.name}: {context} rule {rule.name!r} connects value "
                f"{src.value} to value {dst.value}"
            )

    def check_multi_round_form(self) -> None:
        """Validate the multi-round structure from §III-B.

        Checks ``|B| = |I|``, the shape of border-entry and round-switch
        rules, the characterization of border/final locations through the
        round-switch set, value respect, and canonicity.
        """
        borders = self.border_locations
        initials = self.initial_locations
        if len(borders) != len(initials):
            raise ValidationError(
                f"{self.name}: |B| = {len(borders)} but |I| = {len(initials)}"
            )
        if self.border_copy_locations:
            raise ValidationError(
                f"{self.name}: multi-round automaton must not contain border copies"
            )
        switch = set(self.round_switch_rules)
        for loc in borders:
            outgoing = [r for r in self.rules_from(loc.name) if not r.is_self_loop]
            if len(outgoing) != 1:
                raise ValidationError(
                    f"{self.name}: border location {loc.name!r} must have exactly "
                    f"one outgoing rule, found {len(outgoing)}"
                )
            rule = outgoing[0]
            if self.location(rule.target).kind is not LocKind.INITIAL:
                raise ValidationError(
                    f"{self.name}: border location {loc.name!r} must feed an "
                    f"initial location"
                )
            self._check_trivial_rule(rule, "border-entry")
            self._check_value_respect(rule, "border-entry")
            incoming = [r for r in self.rules_to(loc.name) if not r.is_self_loop]
            bad = [r for r in incoming if r not in switch]
            if bad:
                raise ValidationError(
                    f"{self.name}: border location {loc.name!r} has non-round-"
                    f"switch incoming rules: {[r.name for r in bad]}"
                )
        for loc in self.final_locations:
            outgoing = [r for r in self.rules_from(loc.name) if not r.is_self_loop]
            if len(outgoing) != 1 or outgoing[0] not in switch:
                raise ValidationError(
                    f"{self.name}: final location {loc.name!r} must have exactly "
                    f"one outgoing rule, a round-switch rule"
                )
            self._check_trivial_rule(outgoing[0], "round-switch")
            self._check_value_respect(outgoing[0], "round-switch")
        self.check_canonical()

    def check_single_round_form(self) -> None:
        """Validate the single-round structure from Definition 3."""
        copies = self.border_copy_locations
        if not copies:
            raise ValidationError(
                f"{self.name}: single-round automaton must contain border copies"
            )
        if self.round_switch_rules:
            raise ValidationError(
                f"{self.name}: single-round automaton must not contain "
                f"round-switch rules"
            )
        for loc in copies:
            outgoing = self.rules_from(loc.name)
            if any(not rule.is_self_loop for rule in outgoing):
                raise ValidationError(
                    f"{self.name}: border copy {loc.name!r} may only carry "
                    f"self-loops"
                )
        for loc in self.final_locations:
            outgoing = [r for r in self.rules_from(loc.name) if not r.is_self_loop]
            if len(outgoing) != 1:
                raise ValidationError(
                    f"{self.name}: final location {loc.name!r} must have exactly "
                    f"one outgoing rule, found {len(outgoing)}"
                )
            rule = outgoing[0]
            if self.location(rule.target).kind is not LocKind.BORDER_COPY:
                raise ValidationError(
                    f"{self.name}: final location {loc.name!r} must feed a "
                    f"border copy"
                )
            self._check_trivial_rule(rule, "end-of-round")
            self._check_value_respect(rule, "end-of-round")
        self.check_canonical()

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"ThresholdAutomaton({self.name!r}, |L|={len(self.locations)}, "
            f"|R|={len(self.rules)})"
        )
