"""Milestones: the threshold events that structure schemas.

Shared and coin variables only ever *increase* inside a round, so every
threshold condition ``lhs >= rhs(p)`` flips from false to true at most
once along a round's execution — ByMC calls these flip events
*milestones*.  A guard atom contributes exactly one milestone:

* a ``>=`` atom is true from its milestone on;
* a ``<`` atom is true *until* its milestone (the same event
  ``lhs >= rhs``, reached from below).

Milestones admit a *precedence* partial order: if ``lhs1 >= lhs2``
pointwise and ``rhs1 <= rhs2`` for every admissible parameter valuation,
event 1 can never happen after event 2 (e.g. ``b0 >= t+1-f`` always
precedes ``b0 >= 2t+1-f``).  Schemas only enumerate orderings consistent
with this order, which is where the milestone-count sensitivity of the
paper's Table IV comes from.

This module also builds the :class:`CombinedModel` — the single-round
process automaton plus the *derandomized* coin automaton folded into
one rule universe — which both the encoder and the schema enumerator
consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.expression import ParamExpr
from repro.core.guards import Guard
from repro.core.locations import LocKind, Location
from repro.core.rules import Rule
from repro.core.system import SystemModel
from repro.core.transforms import derandomize
from repro.errors import CheckError
from repro.solver.ilp import UNSAT, ilp_feasible
from repro.solver.linear import LinearProblem


@dataclass(frozen=True)
class Milestone:
    """The event ``lhs >= rhs`` (monotone, happens at most once)."""

    lhs: Tuple[Tuple[str, int], ...]
    rhs: ParamExpr

    @staticmethod
    def of_guard(guard: Guard) -> "Milestone":
        return Milestone(guard.lhs, guard.rhs)

    def __str__(self) -> str:
        terms = " + ".join(
            name if coeff == 1 else f"{coeff}*{name}" for name, coeff in self.lhs
        )
        return f"[{terms} reaches {self.rhs}]"


@dataclass(frozen=True)
class BranchInfo:
    """Maps a derandomized coin rule back to its probabilistic origin."""

    original_rule: str
    branch: Optional[str]


class CombinedModel:
    """Single-round process + derandomized coin in one rule universe."""

    def __init__(self, model: SystemModel):
        if model.process.locations_of(LocKind.BORDER) and not model.process.locations_of(
            LocKind.BORDER_COPY
        ):
            raise CheckError(
                f"{model.name}: CombinedModel expects a single-round model; "
                f"call model.single_round() first"
            )
        self.model = model
        self.locations: List[Location] = list(model.process.locations)
        self.rules: List[Rule] = list(model.process.rules)
        self.branch_info: Dict[str, BranchInfo] = {
            rule.name: BranchInfo(rule.name, None) for rule in model.process.rules
        }
        if model.coin is not None:
            coin_np = derandomize(model.coin)
            self.locations.extend(coin_np.locations)
            for rule in coin_np.rules:
                self.rules.append(rule)
                if "@" in rule.name:
                    original, branch = rule.name.split("@", 1)
                    self.branch_info[rule.name] = BranchInfo(original, branch)
                else:
                    self.branch_info[rule.name] = BranchInfo(rule.name, None)
        # Stutter rules (trivial self-loops) never matter for reachability.
        self.rules = [
            rule
            for rule in self.rules
            if not (rule.is_self_loop and not rule.update)
        ]
        self.loc_by_name = {loc.name: loc for loc in self.locations}
        self.variables = list(model.shared_vars) + list(model.coin_vars)
        self.process_start = _start_locations(model.process.locations)
        self.coin_start = (
            _start_locations(model.coin.locations) if model.coin is not None else ()
        )

    # ------------------------------------------------------------------
    def topological_rule_order(self) -> List[Rule]:
        """Rules sorted by the depth of their source in the location DAG.

        Within one schema segment rules fire as blocks in this order;
        for acyclic in-round location graphs (all the paper's protocols)
        any realizable multiset of executions is realizable in block
        order (sources first, swap argument as for Theorem 1).
        """
        adjacency: Dict[str, List[str]] = {loc.name: [] for loc in self.locations}
        indegree: Dict[str, int] = {loc.name: 0 for loc in self.locations}
        for rule in self.rules:
            if rule.is_self_loop:
                continue
            adjacency[rule.source].append(rule.target)
            indegree[rule.target] += 1
        depth: Dict[str, int] = {}
        frontier = [name for name, deg in indegree.items() if deg == 0]
        for name in frontier:
            depth[name] = 0
        queue = list(frontier)
        while queue:
            node = queue.pop()
            for succ in adjacency[node]:
                candidate = depth[node] + 1
                if candidate > depth.get(succ, -1):
                    depth[succ] = candidate
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    queue.append(succ)
        if len(depth) != len(adjacency):
            # In-round cycles: fall back to declaration order (sound for
            # the encoder because it replays every counterexample).
            return list(self.rules)
        indexed = list(enumerate(self.rules))
        indexed.sort(key=lambda pair: (depth.get(pair[1].source, 0), pair[0]))
        return [rule for _i, rule in indexed]


def _start_locations(locations: Sequence[Location]) -> Tuple[Location, ...]:
    borders = tuple(l for l in locations if l.kind is LocKind.BORDER)
    if borders:
        return borders
    return tuple(l for l in locations if l.kind is LocKind.INITIAL)


# ----------------------------------------------------------------------
# Extraction and precedence
# ----------------------------------------------------------------------
def extract_milestones(combined: CombinedModel) -> List[Milestone]:
    """Distinct milestones over all rule guards, in first-seen order."""
    seen: Dict[Milestone, None] = {}
    for rule in combined.rules:
        for atom in rule.guard:
            seen.setdefault(Milestone.of_guard(atom), None)
    return list(seen)


def _holds_over_rc(expr: ParamExpr, model: SystemModel) -> bool:
    """Is ``expr >= 0`` valid for every admissible parameter valuation?

    Decided by refuting ``expr <= -1`` under the resilience condition
    (an exact ILP query over the parameters only).
    """
    problem = LinearProblem()
    for item in model.environment.resilience:
        for form in item.ge_zero_forms():
            problem.ge(dict(form.coeffs), form.const)
    problem.ge(
        {name: -coeff for name, coeff in expr.coeffs}, -expr.const - 1
    )  # -expr - 1 >= 0  <=>  expr <= -1
    return ilp_feasible(problem, max_nodes=2_000).status == UNSAT


def precedes(a: Milestone, b: Milestone, model: SystemModel) -> bool:
    """Must event ``a`` happen no later than event ``b``?

    Sufficient condition: ``a.lhs >= b.lhs`` coefficient-wise (so the
    left-hand sides compare pointwise for non-negative variables) and
    ``a.rhs <= b.rhs`` for all admissible parameters — then whenever
    ``b`` has fired, ``a`` has too.
    """
    if a == b:
        return False
    b_coeffs = dict(b.lhs)
    for name, coeff in b_coeffs.items():
        if dict(a.lhs).get(name, 0) < coeff:
            return False
    # a.lhs >= b.lhs pointwise requires every coefficient of a to
    # dominate b's; extra variables in a only increase its lhs.
    return _holds_over_rc(b.rhs - a.rhs, model)


def precedence_order(
    milestones: Sequence[Milestone], model: SystemModel
) -> Dict[Milestone, FrozenSet[Milestone]]:
    """``predecessors[m]`` = milestones that must fire before ``m``."""
    predecessors: Dict[Milestone, FrozenSet[Milestone]] = {}
    for b in milestones:
        preds = frozenset(a for a in milestones if a != b and precedes(a, b, model))
        predecessors[b] = preds
    # Sanity: mutual precedence would make enumeration empty.
    for b, preds in predecessors.items():
        for a in preds:
            if b in predecessors[a]:
                raise CheckError(
                    f"milestones {a} and {b} mutually precede each other; "
                    f"merge the equivalent guards"
                )
    return predecessors
