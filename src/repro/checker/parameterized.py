"""The parameterized (schema-based) checker — our ByMC substitute.

Checks A-queries for **all** admissible parameter valuations at once by
searching the schema tree:

1. Milestones and their precedence order are extracted from the
   single-round model (:mod:`repro.checker.milestones`).
2. A DFS enumerates schema prefixes (interleavings of milestone flips
   and event placements, events eagerly first).
3. Every prefix is encoded into linear arithmetic
   (:mod:`repro.checker.encoder`); an infeasible prefix prunes its whole
   subtree.  Feasibility (over the reals, ``x >= 0``) is decided by the
   first of: one exact bound-propagation pass over the rows the parent
   prefix lacks, from the parent's bounds (proves infeasible); the
   parent's integer witness, checked exactly on those rows (proves
   feasible); the float HiGHS LP, whose "infeasible" counts only with
   an integer Farkas certificate checked exactly; the exact simplex
   when HiGHS is undecided.  So every prune rests on an exact proof.
   The shortcuts (:mod:`repro.solver.shortcuts`) answer as HiGHS does,
   and the DFS prunes the same prefixes with or without them; they only
   save solver calls.
4. A complete schema (all events placed) is decided exactly by the
   Fraction-based branch & bound (which polls the query deadline); a
   SAT model is decoded into a concrete schedule and **replayed on the
   explicit counter-system semantics** before being reported as a
   counterexample.

Verdicts: ``violated`` (with a replayed counterexample), ``holds``
(schema tree exhausted, all leaves refuted), or ``unknown`` (budget
exceeded or an ILP gave up).  ``nschemas`` reports the unreduced analytic
schema count of :func:`repro.checker.schemas.count_schemas`, not the
paper's Table II count: the DFS visits far fewer nodes.

:meth:`ParameterizedChecker.check_obligations` decides each mirrored
query pair (``inv2[0]``/``inv2[1]``, ``cb0``/``cb1``, ...) with one DFS,
through a 0<->1 value swap checked once per model (:func:`value_swap`).
"""

from __future__ import annotations

import logging
import re
import time
from collections import Counter
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.checker.encoder import SchemaEncoder
from repro.checker.milestones import (
    CombinedModel,
    Milestone,
    extract_milestones,
    precedence_order,
)
from repro.checker.result import (
    HOLDS,
    UNKNOWN,
    VIOLATED,
    CounterexampleData,
    ObligationOutcome,
    QueryOutcome,
)
from repro.checker.schemas import EventItem, count_schemas, iter_extensions
from repro.checker.timebox import TimeBudgeted
from repro.core.guards import Guard
from repro.core.system import SystemModel
from repro.counter.actions import Action
from repro.counter.system import CounterSystem
from repro.solver.floatlp import RowMatrix, float_feasible, rounded_integer_model
from repro.solver.ilp import SAT, UNSAT, ilp_feasible
from repro.solver.shortcuts import integer_witness, propagate, satisfies
from repro.solver.simplex import lp_feasible
from repro.spec.obligations import ObligationSet
from repro.spec.queries import ReachQuery

logger = logging.getLogger(__name__)

#: Branch-and-bound node budget of the exact ILP at one leaf.
LEAF_ILP_NODES = 4_000

#: The last digit of a name, when it is a value digit (``J0__end``).
_VALUE_DIGIT = re.compile(r"[01](?=\D*$)")

#: A name map; names it does not mention map to themselves.
Swap = Dict[str, str]


def _flip_digit(name: str) -> str:
    match = _VALUE_DIGIT.search(name)
    if match is None:
        return name
    return f"{name[:match.start()]}{1 - int(match.group())}{name[match.end():]}"


def _renamed(terms, swap: Swap) -> tuple:
    return tuple(sorted((swap.get(name, name), c) for name, c in terms))


def _rule_image(rule, swap: Swap) -> tuple:
    guard = frozenset(
        Guard(_renamed(atom.lhs, swap), atom.cmp, atom.rhs) for atom in rule.guard
    )
    return (swap.get(rule.source, rule.source), swap.get(rule.target, rule.target),
            guard, _renamed(rule.update, swap))


def _swap_mismatch(combined: CombinedModel, swap: Swap) -> str:
    """The first part of ``combined`` that ``swap`` does not map onto
    itself, or ``""`` when it is an automorphism of all the schema DFS
    reads (the coin is derandomized, so no probability enters)."""
    locations = set(combined.locations)
    for loc in combined.locations:
        value = None if loc.value is None else 1 - loc.value
        image = replace(loc, name=swap.get(loc.name, loc.name), value=value)
        if image not in locations:
            return f"location {loc.name} has no mirror {image.name}"
    for start in (combined.process_start, combined.coin_start):
        names = {loc.name for loc in start}
        if {swap.get(name, name) for name in names} != names:
            return f"start locations {sorted(names)}"
    rules = Counter(_rule_image(rule, {}) for rule in combined.rules)
    for rule in combined.rules:
        if rules[_rule_image(rule, swap)] != rules[_rule_image(rule, {})]:
            return f"rule {rule}"
    forms = {
        (form.coeffs, form.const)
        for item in combined.model.environment.resilience
        for form in item.ge_zero_forms()
    }
    if {(_renamed(coeffs, swap), const) for coeffs, const in forms} != forms:
        return "resilience condition"
    return ""


def value_swap(combined: CombinedModel) -> Optional[Swap]:
    """The 0<->1 swap of ``combined``, checked, or None if it has none.

    Value-tagged locations map to the location of the other value whose
    name flips the last value digit (``J0__end`` <-> ``J1__end``);
    variables whose flipped name is a variable map to it (``cc0`` <->
    ``cc1``).  Everything else maps to itself.
    """
    names = set(combined.variables)
    tagged = [loc.name for loc in combined.locations if loc.value is not None]
    swap = {v: _flip_digit(v) for v in names if _flip_digit(v) in names - {v}}
    swap.update((name, _flip_digit(name)) for name in tagged)
    mismatch = _swap_mismatch(combined, swap)
    if not mismatch:
        return swap
    if tagged:
        logger.debug(
            "no 0/1 value swap",
            extra={
                "event": "parameterized.no_value_swap",
                "model": combined.model.name,
                "mismatch": mismatch,
            },
        )
    return None


def query_image(query: ReachQuery, swap: Swap) -> tuple:
    """``query``'s events (location sets, in event order) and init
    filter, renamed by ``swap``: equal images mean equal A-queries."""
    events = tuple(
        (e.kind, frozenset(swap.get(n, n) for n in e.locations), e.bound)
        for e in query.events
    )
    pins = query.init_filter
    if pins is not None:
        pins = frozenset((swap.get(n, n), c) for n, c in pins.items())
    return events, pins


class _Budget(Exception):
    """Internal: a resource limit tripped (carries the limit name)."""

    def __init__(self, limit: str):
        super().__init__(limit)
        self.limit = limit


class ParameterizedChecker(TimeBudgeted):
    """Schema-based verification of A-queries over all parameters."""

    def __init__(
        self,
        model: SystemModel,
        node_budget: int = 100_000,
        max_seconds: Optional[float] = None,
    ):
        self.model = model.as_single_round()
        self.combined = CombinedModel(self.model)
        self.encoder = SchemaEncoder(self.combined)
        self.milestones: List[Milestone] = extract_milestones(self.combined)
        self.predecessors = precedence_order(self.milestones, self.model)
        self.node_budget = node_budget
        # max_seconds: wall-clock budget per query — or per obligation
        # bundle under check_obligations (TimeBudgeted mixin, same
        # semantics as the explicit checker).
        self._init_time_budget(max_seconds)
        #: order-insensitive feasibility of milestone sets (shared
        #: across queries — it does not depend on the events)
        self._set_cache: Dict[frozenset, bool] = {}
        #: schema count per number of query events (queries share it)
        self._nschemas: Dict[int, int] = {}
        # statistics of the latest check
        self.nodes = 0
        self.leaves = 0
        self.pruned = 0
        self.unknown_leaves = 0
        #: feasibility questions of the latest check, by who answered:
        #: HiGHS, bound propagation (infeasible), a parent's witness
        #: (feasible); ``certified`` counts the HiGHS answers that were
        #: infeasible with a checked Farkas certificate
        self.lp_calls = 0
        self.bound_prunes = 0
        self.witness_hits = 0
        self.certified = 0
        #: the checked 0<->1 swap (None: no symmetry), and how many
        #: outcomes the latest bundle reused through it
        self.swap = value_swap(self.combined)
        self.mirrored = 0

    # ------------------------------------------------------------------
    def nschemas(self, query: ReachQuery) -> int:
        """Unreduced analytic schema count for the query."""
        n_events = len(query.events)
        if n_events not in self._nschemas:
            self._nschemas[n_events] = count_schemas(
                self.milestones, self.predecessors, n_events
            )
        return self._nschemas[n_events]

    # ------------------------------------------------------------------
    def _feasible(self, matrix: RowMatrix) -> bool:
        """Rational feasibility of ``matrix``'s rows over ``x >= 0``.

        Two exact shortcuts (:mod:`repro.solver.shortcuts`) come first.
        One propagation pass over the rows ``matrix.base`` lacks, from
        the base's bounds, may prove the rows infeasible; the base's
        integer witness may satisfy those rows, proving them feasible.
        Otherwise HiGHS answers: the rounded vertex of a feasible
        answer becomes this matrix's witness if it checks exactly, and
        an infeasible answer always carries an integer Farkas
        certificate that has been checked exactly.  When HiGHS is
        undecided, which includes an infeasible answer whose ray does
        not round to a certificate, the exact simplex decides on the
        matrix's rows.
        """
        base = matrix.base
        rows = matrix.new_rows()
        bounds = propagate(rows, None if base is None else base.bounds)
        if bounds is None:
            self.bound_prunes += 1
            return False
        matrix.bounds = bounds
        if base is not None and base.witness is not None:
            if satisfies(rows, base.witness):
                self.witness_hits += 1
                matrix.witness = base.witness
                return True
        self.lp_calls += 1
        answer = float_feasible(matrix)
        if answer is None:
            return lp_feasible(matrix.rows).feasible
        if answer:
            matrix.witness = integer_witness(matrix.rows, matrix.vertex)
        else:
            self.certified += 1
        return answer

    def _set_feasible(self, flipped: frozenset) -> bool:
        """Cached order-insensitive prune for milestone sets."""
        cached = self._set_cache.get(flipped)
        if cached is not None:
            return cached
        answer = self._feasible(
            RowMatrix(self.encoder.encode_set_relaxation(flipped))
        )
        self._set_cache[flipped] = answer
        return answer

    def _replay(
        self,
        query: ReachQuery,
        valuation: Dict[str, int],
        placement: Dict[str, int],
        schedule: Tuple[Action, ...],
    ) -> bool:
        """Validate a decoded counterexample on the explicit semantics.

        Replay systems are built directly (not via ``shared_system``)
        and with a *private* intern table: decoded valuations are
        arbitrary, and pinning a warm system — or interning throwaway
        configs into the program-lifetime shared table — per decoded
        valuation would trade a lot of memory for very little reuse
        (and a full shared table resets the warm caches of every live
        system of the protocol).  The expensive part is still shared:
        ``CounterSystem`` binds the process-wide compiled program for
        the model structure, so a replay costs one guard-threshold
        evaluation, not a recompilation.
        """
        from repro.counter.store import InternTable

        try:
            system = CounterSystem(
                self.model, valuation, intern_table=InternTable()
            )
        except Exception as exc:
            logger.warning(
                "decoded witness does not replay: no counter system",
                extra={
                    "event": "parameterized.replay_error",
                    "query": query.name,
                    "valuation": dict(valuation),
                    "error": repr(exc),
                },
            )
            return False
        config = system.make_config(placement)
        witnessed = [event.holds(system, config) for event in query.events]
        for action in schedule:
            if not system.is_applicable(config, action):
                return False
            config = system.apply(config, action)
            for index, event in enumerate(query.events):
                if not witnessed[index] and event.holds(system, config):
                    witnessed[index] = True
        return all(witnessed)

    # ------------------------------------------------------------------
    def check_reach(self, query: ReachQuery) -> QueryOutcome:
        """Verify one A-query parametrically."""
        start = time.perf_counter()
        self.nodes = 0
        self.leaves = 0
        self.pruned = 0
        self.unknown_leaves = 0
        self.lp_calls = 0
        self.bound_prunes = 0
        self.witness_hits = 0
        self.certified = 0
        counterexample: Optional[CounterexampleData] = None
        deadline = self.query_deadline(start)

        def dfs(
            prefix, flipped, placed, parent, parent_matrix
        ) -> Optional[CounterexampleData]:
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise _Budget("max_nodes")
            if deadline is not None and not self.nodes & 0x3F and (
                time.perf_counter() > deadline
            ):
                raise _Budget("max_seconds")
            is_leaf = len(placed) == len(query.events)
            ends_with_event = bool(prefix) and isinstance(prefix[-1], EventItem)
            # Cheap cached pre-filter: an unflippable milestone *set*
            # prunes every ordering at once without an LP per node.
            if prefix and not ends_with_event:
                if not self._set_feasible(flipped):
                    self.pruned += 1
                    return None
            # Full order-sensitive prefix LP (event boundaries pinned),
            # encoded incrementally on top of the parent prefix's rows;
            # its float matrix likewise converts only the new rows.
            encoded = matrix = None
            if prefix:
                encoded = self.encoder.encode(prefix, query, parent)
                matrix = RowMatrix(encoded.rows, parent_matrix)
                if not self._feasible(matrix):
                    self.pruned += 1
                    return None
            elif is_leaf:
                encoded = self.encoder.encode(prefix, query)
                matrix = RowMatrix(encoded.rows)
            if is_leaf:
                self.leaves += 1
                # Fast path: round the float vertex and verify exactly.
                model_values = rounded_integer_model(matrix)
                if model_values is None:
                    result = ilp_feasible(
                        encoded.rows,
                        max_nodes=LEAF_ILP_NODES,
                        deadline=deadline,
                    )
                    if result.status == SAT:
                        model_values = result.model
                    elif result.status != UNSAT:
                        if deadline is not None and (
                            time.perf_counter() > deadline
                        ):
                            raise _Budget("max_seconds")
                        self.unknown_leaves += 1
                        return None
                if model_values is not None:
                    valuation, placement, schedule = self.encoder.extract(
                        encoded, model_values
                    )
                    if self._replay(query, valuation, placement, schedule):
                        return CounterexampleData(
                            valuation=valuation,
                            initial_placement={
                                k: v for k, v in placement.items() if v
                            },
                            schedule=schedule,
                            description=(
                                f"violates {query.name}: {query.formula} "
                                f"(parameterized witness, replayed)"
                            ),
                        )
                    # The encoding over-approximated; treat as unknown.
                    self.unknown_leaves += 1
                return None
            for item in iter_extensions(
                self.milestones,
                self.predecessors,
                flipped,
                placed,
                len(query.events),
            ):
                if isinstance(item, EventItem):
                    found = dfs(
                        prefix + [item],
                        flipped,
                        placed | {item.index},
                        encoded,
                        matrix,
                    )
                else:
                    found = dfs(
                        prefix + [item], flipped | {item}, placed, encoded, matrix
                    )
                if found is not None:
                    return found
            return None

        exhausted = True
        tripped = ""
        try:
            counterexample = dfs([], frozenset(), frozenset(), None, None)
        except _Budget as budget:
            exhausted = False
            tripped = budget.limit

        elapsed = time.perf_counter() - start
        schemas = self.nschemas(query)
        if counterexample is not None:
            return QueryOutcome(
                query=query.name,
                verdict=VIOLATED,
                counterexample=counterexample,
                states_explored=self.nodes,
                time_seconds=elapsed,
                nschemas=schemas,
                detail=f"{self.leaves} schemas decided, {self.pruned} pruned",
            )
        if not exhausted or self.unknown_leaves:
            return QueryOutcome(
                query=query.name,
                verdict=UNKNOWN,
                states_explored=self.nodes,
                time_seconds=elapsed,
                nschemas=schemas,
                detail=(
                    f"limit tripped={tripped or 'none'}, "
                    f"unknown leaves={self.unknown_leaves}"
                ),
                limit_tripped=tripped,
            )
        return QueryOutcome(
            query=query.name,
            verdict=HOLDS,
            states_explored=self.nodes,
            time_seconds=elapsed,
            nschemas=schemas,
            detail=f"{self.leaves} schemas decided, {self.pruned} pruned",
        )

    # ------------------------------------------------------------------
    def check_obligations(self, obligations: ObligationSet) -> ObligationOutcome:
        """Check the reach queries of a bundle; games are explicit-only
        and come back ``unknown``.

        The ``max_seconds`` budget covers the whole bundle, matching the
        explicit checker.  The Theorem 2 side conditions are omitted:
        they are discharged on the explicit engine.

        A query whose image under the value swap is an earlier query
        that ``holds`` reuses that outcome under its own name.  Only
        ``holds`` is reused: that DFS exhausted the tree, and every
        prune is a feasibility answer, so its counts do not depend on
        the visit order and the swap preserves them.  A ``violated``
        search stops at an order-dependent first witness.
        """
        start = time.perf_counter()
        self.mirrored = 0
        results: List[QueryOutcome] = []
        held: Dict[tuple, QueryOutcome] = {}
        with self.shared_deadline():
            for query in obligations.reach_queries:
                began = time.perf_counter()
                mate = None
                if self.swap is not None:
                    mate = held.get(query_image(query, self.swap))
                if mate is None:
                    outcome = self.check_reach(query)
                    if outcome.verdict == HOLDS:
                        held[query_image(query, {})] = outcome
                else:
                    self.mirrored += 1
                    logger.debug(
                        "reused the mirrored outcome",
                        extra={
                            "event": "parameterized.mirror_reused",
                            "query": query.name,
                            "mate": mate.query,
                        },
                    )
                    outcome = replace(
                        mate,
                        query=query.name,
                        time_seconds=time.perf_counter() - began,
                    )
                results.append(outcome)
        results.extend(unsupported(q.name) for q in obligations.game_queries)
        return ObligationOutcome(
            target=obligations.target,
            queries=tuple(results),
            time_seconds=time.perf_counter() - start,
        )


def unsupported(name: str) -> QueryOutcome:
    """The ``unknown`` outcome of a game query, which needs the explicit
    engine (Lemma 2's game reduction has no schema encoding)."""
    return QueryOutcome(
        query=name,
        verdict=UNKNOWN,
        detail="game queries require the explicit engine",
    )
