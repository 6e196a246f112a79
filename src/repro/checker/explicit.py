"""Exhaustive explicit-state checking for fixed parameters.

For a concrete admissible valuation (say ``n=4, t=1, f=1``) the
single-round counter system is finite; this module checks the paper's
queries exactly on it:

* :meth:`ExplicitChecker.check_reach` — A-queries.  The violation of
  ``A(F p → G q)`` is a finite schedule witnessing both ``p`` and
  ``¬q`` somewhere along the run, so we BFS over *(configuration,
  witnessed-event mask)* pairs; a full mask is a counterexample, and
  the BFS tree reconstructs the schedule.

* :meth:`ExplicitChecker.check_game` — E-queries from Lemma 2
  (``∀ adversary ∃ path``).  The violation is an adversary strategy
  forcing all events **against every coin outcome**, i.e. the adversary
  (choosing rules) plays against an angelic resolver of non-Dirac
  branches.  We solve the reachability game with a linear backward
  *worklist attractor*: predecessor lists plus a pending-branch counter
  per (state, move) — a move becomes winning exactly when its counter
  of not-yet-winning branch successors reaches 0, so every game edge is
  relaxed at most once (the quadratic re-scan fixed point it replaced
  visited all edges per round).

Engine notes: states are flat interned :class:`~repro.counter.config.
Config` tuples; successors come from the memoised
:meth:`~repro.counter.system.CounterSystem.successor_groups` cache,
which is **shared across every query** checked on one
:class:`ExplicitChecker` — in :meth:`check_obligations` the reach
queries, game queries and fairness side conditions all walk the same
explored graph instead of re-expanding it per query.  The bound system
itself comes from :func:`~repro.counter.system.shared_system`, so the
sharing extends *across checkers*: the compiled
:class:`~repro.counter.program.ProtocolProgram` is built once per model
structure per process, and successive checkers at the same valuation
(obligation targets of one task, tasks of one sweep job) inherit the
warm explored graph.  With an active persistent graph store
(:func:`repro.counter.store.activate_graph_store` — the sweep runner
installs one in every worker when asked) the sharing crosses
*processes* too: a cold system loads the successor graph a previous
process flushed, and :meth:`check_obligations` flushes what this
bundle explored.

Labelling: every distinct query proposition gets a program-wide bit in
the program's proposition table
(:meth:`~repro.counter.program.ProtocolProgram.prop_mask`), compiled
once into an index-based closure
(:meth:`repro.spec.propositions.Prop.compile`).  Each configuration
caches the bits evaluated so far (``Config.labels``), so it is labelled
once per proposition, however many edges and queries reach it; the
per-successor mask update is ``mask | (labels & query_bits)``, and the
masks live in program-bit space, one-to-one with per-query masks.  The
side conditions are walked once per bound system: the walks of
:mod:`repro.counter.fairness` memoise them on it.

Frontier-batched expansion: when numpy imports, the reach BFS and the
game-graph seeding drain their worklists a frontier at a time through
:class:`repro.counter.batch.BatchExpander`, which pre-fills the shared
successor cache with one vectorized numpy pass per frontier.  Without
numpy the scalar path expands each config itself.  It is the consumer
either way, and cached groups are bit-identical, so verdicts and
``states_explored`` do not depend on whether numpy is present.

The explicit checker is the ground truth the parameterized (schema)
checker is cross-validated against in the test suite.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.system import SystemModel
from repro.counter.actions import Action
from repro.counter.config import Config
from repro.counter.fairness import all_fair_executions_terminate, is_non_blocking
from repro.counter.store import active_graph_store
from repro.counter.system import shared_system
from repro.checker.result import (
    HOLDS,
    UNKNOWN,
    VIOLATED,
    CounterexampleData,
    ObligationOutcome,
    QueryOutcome,
)
from repro.checker.timebox import TimeBudgeted
from repro.errors import CheckError, DeadlineExceeded, StateBudgetExceeded
from repro.spec.obligations import ObligationSet
from repro.spec.queries import GameQuery, ReachQuery

State = Tuple[Config, int]
Event = Callable[[Config], bool]


class ExplicitChecker(TimeBudgeted):
    """Explicit-state verifier for one model and one parameter valuation."""

    def __init__(
        self,
        model: SystemModel,
        valuation: Mapping[str, int],
        max_states: int = 400_000,
        max_seconds: Optional[float] = None,
    ):
        self.original_model = model
        self.model = model.as_single_round()
        self.valuation = dict(valuation)
        # shared_system: checkers for the same protocol structure and
        # valuation (successive obligation targets, successive sweep
        # tasks in one persistent worker) reuse one bound system and
        # its warm successor caches — results-neutral, see its doc.
        self.system = shared_system(self.model, valuation)
        self.max_states = max_states
        # max_seconds: wall-clock budget per query — or per obligation
        # *bundle* when the queries run under check_obligations, which
        # pins a shared deadline across them (TimeBudgeted mixin).
        self._init_time_budget(max_seconds)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _initial_states(self, query, bits: int) -> List[Tuple[Config, int]]:
        configs = list(self.system.initial_configs(query.init_filter))
        if not configs:
            raise CheckError(
                f"{self.model.name}: no initial configuration matches the "
                f"init filter {query.init_filter!r}"
            )
        program = self.system.program
        return [(config, _labels(program, config) & bits) for config in configs]

    def _timeout_result(self, query, states: int, start: float) -> QueryOutcome:
        return QueryOutcome(
            query=query.name,
            verdict=UNKNOWN,
            states_explored=states,
            time_seconds=time.perf_counter() - start,
            detail=f"wall-clock limit {self.max_seconds}s exceeded",
            limit_tripped="max_seconds",
        )

    def _placement_of(self, config: Config) -> Dict[str, int]:
        placement = {}
        for index, loc in enumerate(self.system.locations):
            count = config.counter(0, index)
            if count:
                placement[loc.name] = count
        return placement

    # ------------------------------------------------------------------
    # A-queries
    # ------------------------------------------------------------------
    def check_reach(self, query: ReachQuery) -> QueryOutcome:
        """BFS for a schedule witnessing every event of the query."""
        start = time.perf_counter()
        program = self.system.program
        full = program.prop_mask(query.events)
        events = program.prop_events
        parents: Dict[State, Optional[Tuple[State, Action]]] = {}
        queue: deque = deque()
        for config, mask in self._initial_states(query, full):
            state = (config, mask)
            if state not in parents:
                parents[state] = None
                if mask == full:
                    return self._reach_violation(query, state, parents, start)
                queue.append(state)
        successor_groups = self.system.successor_groups
        expander = self.system.batch_expander()
        deadline = self.query_deadline(start)
        pops = 0
        while queue:
            if len(parents) > self.max_states:
                return QueryOutcome(
                    query=query.name,
                    verdict=UNKNOWN,
                    states_explored=len(parents),
                    time_seconds=time.perf_counter() - start,
                    detail=f"state budget {self.max_states} exceeded",
                    limit_tripped="max_states",
                )
            if deadline is not None:
                pops += 1
                if not pops & 0xFF and time.perf_counter() > deadline:
                    return self._timeout_result(query, len(parents), start)
            parent = queue.popleft()
            config, mask = parent
            if expander is not None:
                # Frontier-batched expansion: a cache miss on the popped
                # config vectorizes one numpy pass over every uncached
                # config currently queued; the consumption below then
                # runs on cache hits.  Results-neutral (the expander
                # fills _succ_cache with the scalar path's exact group
                # tuples), so order/verdicts/states stay bit-identical.
                expander.ensure(config, (c for c, _m in queue))
            for group in successor_groups(config):
                for action, succ in group:
                    if succ.label_events is not events:
                        _labels(program, succ)
                    succ_mask = mask | (succ.labels & full)
                    state = (succ, succ_mask)
                    if state in parents:
                        continue
                    parents[state] = (parent, action)
                    if succ_mask == full:
                        return self._reach_violation(query, state, parents, start)
                    queue.append(state)
        return QueryOutcome(
            query=query.name,
            verdict=HOLDS,
            states_explored=len(parents),
            time_seconds=time.perf_counter() - start,
        )

    def _reach_violation(
        self,
        query: ReachQuery,
        state: State,
        parents: Dict[State, Optional[Tuple[State, Action]]],
        start: float,
    ) -> QueryOutcome:
        actions: List[Action] = []
        cursor: Optional[State] = state
        while True:
            entry = parents[cursor]
            if entry is None:
                break
            cursor, action = entry[0], entry[1]
            actions.append(action)
        actions.reverse()
        counterexample = CounterexampleData(
            valuation=dict(self.valuation),
            initial_placement=self._placement_of(cursor[0]),
            schedule=tuple(actions),
            description=f"violates {query.name}: {query.formula}",
        )
        return QueryOutcome(
            query=query.name,
            verdict=VIOLATED,
            counterexample=counterexample,
            states_explored=len(parents),
            time_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    # E-queries (reachability games, Lemma 2)
    # ------------------------------------------------------------------
    def check_game(self, query: GameQuery) -> QueryOutcome:
        """Can a (coin-blind) adversary force all events?

        Builds the reachable game graph over *(config, mask)* states.
        The adversary picks an enabled rule; for a non-Dirac rule the
        angel picks the branch, so a move wins only when **all** of its
        branch successors win.
        """
        start = time.perf_counter()
        program = self.system.program
        full = program.prop_mask(query.events)
        events = program.prop_events
        initial = []
        explored: Dict[State, List[List[Tuple[Action, State]]]] = {}
        stack: List[State] = []
        for config, mask in self._initial_states(query, full):
            state = (config, mask)
            initial.append(state)
            if state not in explored:
                explored[state] = []
                stack.append(state)

        successor_groups = self.system.successor_groups
        expander = self.system.batch_expander()
        deadline = self.query_deadline(start)
        pops = 0
        while stack:
            if len(explored) > self.max_states:
                return QueryOutcome(
                    query=query.name,
                    verdict=UNKNOWN,
                    states_explored=len(explored),
                    time_seconds=time.perf_counter() - start,
                    detail=f"state budget {self.max_states} exceeded",
                    limit_tripped="max_states",
                )
            if deadline is not None:
                pops += 1
                if not pops & 0xFF and time.perf_counter() > deadline:
                    return self._timeout_result(query, len(explored), start)
            state = stack.pop()
            config, mask = state
            if mask == full:
                continue  # terminal for the game: adversary already won
            if expander is not None:
                # Same frontier-at-a-time draining as the reach BFS:
                # the game-graph seeding expands everything pending on
                # the stack in one vectorized pass (full-mask states
                # are terminal and never expanded, matching scalar).
                expander.ensure(
                    config, (c for c, m in stack if m != full)
                )
            moves: List[List[Tuple[Action, State]]] = []
            for group in successor_groups(config):
                branch_states: List[Tuple[Action, State]] = []
                for action, succ in group:
                    if succ.label_events is not events:
                        _labels(program, succ)
                    succ_state = (succ, mask | (succ.labels & full))
                    branch_states.append((action, succ_state))
                    if succ_state not in explored:
                        explored[succ_state] = []
                        stack.append(succ_state)
                moves.append(branch_states)
            explored[state] = moves

        winning = self._attractor(explored, full)
        for state in initial:
            if state in winning:
                schedule = self._strategy_play(explored, winning, state, full)
                counterexample = CounterexampleData(
                    valuation=dict(self.valuation),
                    initial_placement=self._placement_of(state[0]),
                    schedule=tuple(schedule),
                    description=(
                        f"adversary strategy forcing {query.name} violation "
                        f"(one play shown; all coin outcomes lose)"
                    ),
                )
                return QueryOutcome(
                    query=query.name,
                    verdict=VIOLATED,
                    counterexample=counterexample,
                    states_explored=len(explored),
                    time_seconds=time.perf_counter() - start,
                )
        return QueryOutcome(
            query=query.name,
            verdict=HOLDS,
            states_explored=len(explored),
            time_seconds=time.perf_counter() - start,
        )

    @staticmethod
    def _attractor(explored, full: int) -> set:
        """Linear-time backward worklist: adversary-winning states.

        For every (state, move) pair we keep a *pending* counter of
        branch successors that are not yet winning; predecessor lists
        route each newly-winning state to the counters it decrements.
        A state joins the attractor when one of its moves hits pending
        0 (all coin branches of that move are winning).  Each game edge
        is processed exactly once, versus once per iteration in the
        quadratic fixed point this replaced.
        """
        winning = set()
        worklist: deque = deque()
        pending: Dict[Tuple[State, int], int] = {}
        predecessors: Dict[State, List[Tuple[State, int]]] = {}
        for state, moves in explored.items():
            if state[1] == full:
                winning.add(state)
                worklist.append(state)
                continue
            for index, branch_states in enumerate(moves):
                pending[(state, index)] = len(branch_states)
                for _action, succ_state in branch_states:
                    predecessors.setdefault(succ_state, []).append((state, index))
        while worklist:
            newly_won = worklist.popleft()
            for state, index in predecessors.get(newly_won, ()):
                if state in winning:
                    continue
                key = (state, index)
                pending[key] -= 1
                if pending[key] == 0:
                    winning.add(state)
                    worklist.append(state)
        return winning

    def _strategy_play(self, explored, winning: set, state: State, full: int):
        """One play of the winning strategy (for the counterexample).

        At every step the adversary takes a winning move; when a move is
        probabilistic every branch is winning, so the play follows the
        first branch — the returned schedule is one representative path.
        """
        play: List[Action] = []
        visited = set()
        current = state
        while current[1] != full and current not in visited:
            visited.add(current)
            moves = explored.get(current, [])
            chosen = None
            for branch_states in moves:
                if all(succ in winning for _act, succ in branch_states):
                    chosen = branch_states
                    break
            if chosen is None:
                break
            action, succ_state = chosen[0]
            play.append(action)
            current = succ_state
        return play

    # ------------------------------------------------------------------
    # Dispatch / bundles
    # ------------------------------------------------------------------
    def check(self, query: Union[ReachQuery, GameQuery]) -> QueryOutcome:
        if isinstance(query, ReachQuery):
            return self.check_reach(query)
        if isinstance(query, GameQuery):
            return self.check_game(query)
        raise CheckError(f"unsupported query type {type(query).__name__}")

    def side_condition(self, name: str) -> bool:
        """Theorem 2 side conditions on the single-round system.

        Honours ``max_seconds`` like the queries do (one budget of its
        own standalone, the shared deadline inside a bundle), raising
        :class:`~repro.errors.DeadlineExceeded` on expiry and
        :class:`~repro.errors.StateBudgetExceeded` when ``max_states``
        overflows (an incomplete search must not report ``True``).

        Each condition is walked once per bound system: the walks of
        :mod:`repro.counter.fairness` memoise it and replay the budget
        check on a later call.
        """
        deadline = self.query_deadline(time.perf_counter())
        if name == "non_blocking":
            return is_non_blocking(
                self.system, max_states=self.max_states, deadline=deadline
            )
        if name == "fair_termination":
            return all_fair_executions_terminate(
                self.system, max_states=self.max_states, deadline=deadline
            )
        raise CheckError(f"unknown side condition {name!r}")

    def check_obligations(self, obligations: ObligationSet) -> ObligationOutcome:
        """Check every obligation, sharing one explored graph.

        All queries (and the side conditions) run on the same
        :class:`CounterSystem`, whose successor cache persists across
        them — after the first query expands a configuration, every
        later query resolves its successors with a single dict hit.

        The ``max_seconds`` budget covers the whole bundle: one shared
        deadline spans every query *and* the side conditions.  A side
        condition cut off by a budget (the deadline, before or
        mid-exploration, or the ``max_states`` cap) is reported in
        ``skipped_side_conditions`` with the limit that cut it —
        distinguishable from a genuine failure — and the aggregate
        verdict degrades to ``unknown``.
        """
        start = time.perf_counter()
        results = []
        sides = {}
        skipped = {}
        with self.shared_deadline():
            for query in obligations.reach_queries:
                results.append(self.check_reach(query))
            for query in obligations.game_queries:
                results.append(self.check_game(query))
            for name in obligations.side_conditions:
                if self.deadline_expired():
                    skipped[name] = "max_seconds"
                    continue
                try:
                    sides[name] = self.side_condition(name)
                except DeadlineExceeded:
                    skipped[name] = "max_seconds"
                except StateBudgetExceeded:
                    skipped[name] = "max_states"
        # Persist what this bundle explored: with an active graph
        # store (sweep workers, `verify` under a store) the warm
        # successor graph survives this process and a later run warms
        # itself from disk instead of re-expanding.  Best-effort and
        # skip-if-unchanged inside the store; a no-op otherwise.
        store = active_graph_store()
        if store is not None:
            store.flush(self.system)
        return ObligationOutcome(
            target=obligations.target,
            queries=tuple(results),
            side_conditions=sides,
            time_seconds=time.perf_counter() - start,
            skipped_side_conditions=skipped,
        )


def _labels(program, config: Config) -> int:
    """``config``'s truth bits over ``program``'s proposition table.

    Bits the config already carries for this program are kept and only
    the props registered since are evaluated; labels left by another
    program (a config interned by two) are discarded.
    """
    events = program.prop_events
    seen = config.label_events or ()
    done = len(seen) if events[: len(seen)] == seen else 0
    labels = (config.labels if done else 0) | _mask(config, events[done:], 0) << done
    config.label_events = events
    config.labels = labels
    return labels


def _mask(config: Config, events: Sequence[Event], base: int) -> int:
    """Fold newly-witnessed events into ``base`` (monotone bit mask)."""
    mask = base
    for bit, event in enumerate(events):
        flag = 1 << bit
        if not (mask & flag) and event(config):
            mask |= flag
    return mask
