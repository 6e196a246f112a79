"""Encoding a schema (prefix) into linear integer arithmetic.

Given a schema prefix ``t_1 .. t_k`` (milestone flips and event
placements), the encoder builds one conjunction of linear constraints
whose integer solutions are exactly the parameter valuations, initial
configurations and per-segment rule-execution counts of schedules that
realize the prefix:

* **Population**: processes distributed over start locations sum to
  ``N(p)``; the coin automaton starts with ``num_coins`` tokens; the
  resilience condition constrains the parameters.
* **Flow**: location counters at every boundary are linear expressions
  over the initial counters and execution counts; within a segment
  rules fire as blocks in topological order, and each block requires its
  source counter (at block time) to cover its executions — for acyclic
  in-round graphs this is realizability-complete (swap argument).
* **Context**: a rule may fire in a segment only when all its ``>=``
  guards' milestones have flipped and none of its ``<`` guards' have.
* **Milestones**: at its boundary, a milestone's threshold holds over
  the accumulated variable values.
* **Events**: at its boundary, the query event's counter proposition
  holds.

The constraints are plain integer rows ``(coeffs, const, is_eq)``, each
built by :func:`repro.solver.linear.row`.  Every solver reads them as
they are: the exact shortcuts, HiGHS, the exact simplex and the branch
& bound.

**Incremental encoding is exact.**  The schema DFS extends a prefix by
one item at a time, so :meth:`SchemaEncoder.encode` accepts the parent
prefix's encoding and only appends the new segment's block rows and the
new boundary row.  This reproduces the from-scratch rows because
nothing about segment ``i`` depends on the items after it: a rule is
available in segment ``i`` iff its ``>=`` milestones sit at boundaries
``<= i`` and none of its ``<`` milestones do (boundary ``j`` belongs to
item ``j - 1``), so appending item ``k`` adds a position ``k + 1`` that
no earlier segment can see.  The earlier rows, block lists and the
symbolic counters after the last segment (``kappa``, ``g``) are
therefore the parent's, unchanged.

Every SAT model is decoded back into a concrete schedule
(:meth:`SchemaEncoder.extract`) and *replayed* on the explicit
counter-system semantics before a counterexample is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.checker.milestones import CombinedModel, Milestone
from repro.checker.schemas import SchemaItem
from repro.core.guards import Cmp
from repro.core.rules import Rule
from repro.counter.actions import Action
from repro.errors import CheckError
from repro.solver.linear import Row, row
from repro.spec.propositions import PropKind
from repro.spec.queries import ReachQuery

Expr = Dict[str, int]  # linear expression: var -> coeff ("" = constant)

CONST = ""


def _expr() -> Expr:
    return {CONST: 0}


def _add(expr: Expr, var: str, coeff: int) -> None:
    expr[var] = expr.get(var, 0) + coeff


def _merge_scaled(target: Expr, source: Expr, scale: int) -> None:
    for var, coeff in source.items():
        target[var] = target.get(var, 0) + scale * coeff


def _expr_row(expr: Expr, offset: int = 0, is_eq: bool = False) -> Row:
    """Row ``expr + offset (>=|==) 0``."""
    coeffs = {var: c for var, c in expr.items() if var != CONST}
    return row(coeffs, expr.get(CONST, 0) + offset, is_eq)


def _copy_state(state: Dict[str, Expr]) -> Dict[str, Expr]:
    return {name: dict(expr) for name, expr in state.items()}


@dataclass
class EncodedPrefix:
    """The constraint rows of a schema prefix plus decoding tables.

    ``kappa``/``g``/``positions`` are the symbolic state after the last
    segment; a child prefix's encoding continues from them.
    """

    rows: List[Row]
    #: per segment: list of (x-variable name, rule) blocks in firing order
    blocks: List[List[Tuple[str, Rule]]]
    start_vars: Dict[str, str]  # location name -> k0 variable
    #: location counters / shared variables as linear expressions
    kappa: Dict[str, Expr]
    g: Dict[str, Expr]
    #: milestone -> boundary position (boundary j = j-th prefix item)
    positions: Dict[Milestone, int]


class SchemaEncoder:
    """Builds the constraint rows of schema prefixes."""

    def __init__(self, combined: CombinedModel):
        self.combined = combined
        self.topo_rules = combined.topological_rule_order()
        # Per rule: milestones of its >= atoms and of its < atoms.
        self._ge_milestones: Dict[str, Tuple[Milestone, ...]] = {}
        self._lt_milestones: Dict[str, Tuple[Milestone, ...]] = {}
        for rule in combined.rules:
            ge, lt = [], []
            for atom in rule.guard:
                milestone = Milestone.of_guard(atom)
                (ge if atom.cmp is Cmp.GE else lt).append(milestone)
            self._ge_milestones[rule.name] = tuple(ge)
            self._lt_milestones[rule.name] = tuple(lt)

    # ------------------------------------------------------------------
    def _available(
        self, rule: Rule, segment: int, positions: Mapping[Milestone, int]
    ) -> bool:
        """May ``rule`` fire in ``segment`` under the prefix's contexts?

        A milestone at boundary position ``j`` is in force from segment
        ``j`` on (boundary ``j`` sits *before* segment ``j``).
        """
        for milestone in self._ge_milestones[rule.name]:
            position = positions.get(milestone)
            if position is None or position > segment:
                return False
        for milestone in self._lt_milestones[rule.name]:
            position = positions.get(milestone)
            if position is not None and position <= segment:
                return False
        return True

    def _base(
        self, init_filter: Optional[Mapping[str, int]]
    ) -> Tuple[List[Row], Dict[str, str], Dict[str, Expr], Dict[str, Expr]]:
        """Resilience and population rows plus the initial symbolic state."""
        combined = self.combined
        env = combined.model.environment
        rows: List[Row] = [
            row(dict(form.coeffs), form.const)
            for item in env.resilience
            for form in item.ge_zero_forms()
        ]
        start_vars = {loc.name: f"k0_{loc.name}" for loc in combined.process_start}
        n_expr = env.num_processes
        population = {var: 1 for var in start_vars.values()}
        for name, coeff in n_expr.coeffs:
            population[name] = population.get(name, 0) - coeff
        rows.append(row(population, -n_expr.const, is_eq=True))
        # At least one modelled process.
        rows.append(row(dict(n_expr.coeffs), n_expr.const - 1))
        for loc in combined.coin_start:
            var = f"k0_{loc.name}"
            start_vars[loc.name] = var
            rows.append(row({var: 1}, -env.num_coins, is_eq=True))
        for loc_name, count in (init_filter or {}).items():
            var = start_vars.get(loc_name)
            if var is None:
                raise CheckError(f"init filter pins non-start location {loc_name!r}")
            rows.append(row({var: 1}, -count, is_eq=True))

        kappa: Dict[str, Expr] = {loc.name: _expr() for loc in combined.locations}
        for loc_name, var in start_vars.items():
            _add(kappa[loc_name], var, 1)
        g: Dict[str, Expr] = {v: _expr() for v in combined.variables}
        return rows, start_vars, kappa, g

    @staticmethod
    def _block(
        kappa: Dict[str, Expr], g: Dict[str, Expr], rule: Rule, xvar: str
    ) -> Row:
        """Fire ``rule`` ``xvar`` times; the row says its source covers it."""
        covered = _expr_row({**kappa[rule.source], xvar: -1})
        _add(kappa[rule.source], xvar, -1)
        _add(kappa[rule.target], xvar, 1)
        for var_name, increment in rule.update:
            _add(g[var_name], xvar, increment)
        return covered

    @staticmethod
    def _threshold(milestone: Milestone, g: Dict[str, Expr]) -> Row:
        """The milestone's threshold holds over the current ``g``."""
        condition: Expr = _expr()
        for var_name, coeff in milestone.lhs:
            _merge_scaled(condition, g[var_name], coeff)
        for name, coeff in milestone.rhs.coeffs:
            _add(condition, name, -coeff)
        return _expr_row(condition, -milestone.rhs.const)

    # ------------------------------------------------------------------
    def encode(
        self,
        prefix: Sequence[SchemaItem],
        query: ReachQuery,
        parent: Optional[EncodedPrefix] = None,
    ) -> EncodedPrefix:
        """Encode the prefix (and its event placements) as integer rows.

        ``parent``, when given, is the encoding of a shorter prefix of
        ``prefix`` under the same ``query``; only the items after it are
        encoded (see the module docstring for why this is exact).
        """
        if parent is None:
            rows, start_vars, kappa, g = self._base(query.init_filter)
            blocks: List[List[Tuple[str, Rule]]] = []
            positions: Dict[Milestone, int] = {}
        else:
            rows = list(parent.rows)
            start_vars = parent.start_vars
            kappa, g = _copy_state(parent.kappa), _copy_state(parent.g)
            blocks = list(parent.blocks)
            positions = dict(parent.positions)

        for index in range(len(blocks), len(prefix)):
            item = prefix[index]
            segment = index  # segment S_index runs before boundary index+1
            segment_blocks: List[Tuple[str, Rule]] = []
            for rule in self.topo_rules:
                if not self._available(rule, segment, positions):
                    continue
                xvar = f"x{segment}_{rule.name}"
                segment_blocks.append((xvar, rule))
                rows.append(self._block(kappa, g, rule, xvar))
            blocks.append(segment_blocks)

            # Boundary condition for the item itself.
            if isinstance(item, Milestone):
                positions[item] = index + 1
                rows.append(self._threshold(item, g))
            else:
                event = query.events[item.index]
                total: Expr = _expr()
                for loc_name in event.locations:
                    _merge_scaled(total, kappa[loc_name], 1)
                if event.kind is PropKind.SOME:
                    rows.append(_expr_row(total, -event.bound))
                else:
                    rows.append(_expr_row(total, is_eq=True))

        return EncodedPrefix(rows, blocks, start_vars, kappa, g, positions)

    # ------------------------------------------------------------------
    def encode_set_relaxation(self, flipped) -> List[Row]:
        """Order-insensitive relaxation: can this milestone *set* flip at all?

        One segment containing every rule whose ``>=`` guards lie inside
        ``flipped`` (``<`` guards are ignored — more permissive), with
        all milestone thresholds imposed at the final boundary.  Shared
        variables are monotone, so any ordered schedule realizing the
        set also satisfies this relaxation: infeasibility soundly prunes
        *every* ordering of the set.  Returns the constraint rows only;
        the caller caches the answer per frozenset.
        """
        rows, _start_vars, kappa, g = self._base(None)
        for rule in self.topo_rules:
            if all(m in flipped for m in self._ge_milestones[rule.name]):
                rows.append(self._block(kappa, g, rule, f"xs_{rule.name}"))
        for milestone in flipped:
            rows.append(self._threshold(milestone, g))
        return rows

    # ------------------------------------------------------------------
    def extract(
        self, encoded: EncodedPrefix, model_values: Mapping[str, int]
    ) -> Tuple[Dict[str, int], Dict[str, int], Tuple[Action, ...]]:
        """Decode an ILP model into (valuation, placement, schedule)."""
        env = self.combined.model.environment
        valuation = {name: model_values.get(name, 0) for name in env.parameters}
        placement = {
            loc_name: model_values.get(var, 0)
            for loc_name, var in encoded.start_vars.items()
        }
        actions: List[Action] = []
        for segment_blocks in encoded.blocks:
            for xvar, rule in segment_blocks:
                count = model_values.get(xvar, 0)
                if count <= 0:
                    continue
                info = self.combined.branch_info[rule.name]
                action = Action(info.original_rule, 0, info.branch)
                actions.extend([action] * count)
        return valuation, placement, tuple(actions)
