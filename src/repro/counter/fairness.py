"""Fairness and termination of single-round systems.

Theorem 2 requires the single-round system to be *non-blocking* and all
its fair executions to terminate.  An infinite path is fair when no
transition stays applicable forever (§III-D); in a single-round system
whose border copies only carry self-loops, fair termination is
equivalent to the absence of *progress cycles* — cycles in the
reachable configuration graph built from configuration-changing
actions.  Shared variables only grow, so any such cycle would have to
move processes around a zero-update location cycle; canonical automata
make this detectable by plain cycle search on the explicit graph.

Both conditions depend only on the bound system, so the public walks
memoise a complete walk from the system's own initial configurations
(``initial=None``) in :attr:`CounterSystem.side_conditions`, with the
smallest ``max_states`` it needed, and answer later such calls from it:
a call whose budget is below the recorded one raises the walk's own
:class:`~repro.errors.StateBudgetExceeded`.  A walk that raised is never
recorded; a walk from explicitly passed configurations is never memoised.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.counter.actions import Action
from repro.counter.config import Config
from repro.counter.system import CounterSystem
from repro.errors import DeadlineExceeded, StateBudgetExceeded


def _check_deadline(count: int, deadline: Optional[float]) -> None:
    """Raise once ``deadline`` has passed (polled every 256 expansions)."""
    if deadline is not None and not count & 0xFF and (
        time.perf_counter() > deadline
    ):
        raise DeadlineExceeded("side-condition wall-clock budget exhausted")


def progress_successors(system: CounterSystem, config: Config) -> List[Config]:
    """Successor configurations via configuration-changing actions.

    Served from :meth:`CounterSystem.successor_groups`, so the side
    conditions share the explored graph with the reach/game queries run
    on the same system.  The "did the configuration change" test
    compares the flat ``data`` tuples: a successor shares its source's
    layout, so this is still value equality, without the Python-level
    :meth:`Config.__eq__` call (identity is not semantically
    load-bearing — the intern table may be recycled).
    """
    data = config.data
    result = []
    for group in system.successor_groups(config):
        for _action, successor in group:
            if successor.data != data:
                result.append(successor)
    return result


#: The budget-exceeded message of each walk, shared by memo hits.
_BUDGET_MESSAGES = {
    "non_blocking": "non-blocking search exceeded {} states",
    "fair_termination": "progress-cycle search exceeded {} states",
}


def _budget_exceeded(name: str, max_states: int) -> StateBudgetExceeded:
    return StateBudgetExceeded(_BUDGET_MESSAGES[name].format(max_states))


def _memoised(system, initial, name: str, max_states: int, walk) -> bool:
    """Run ``walk(configs) -> (verdict, needed)``, once per system.

    ``needed`` is the smallest ``max_states`` under which the walk
    finishes, so a memo hit raises exactly when a fresh walk would.
    """
    if initial is not None:
        return walk(list(initial))[0]
    if name not in system.side_conditions:
        system.side_conditions[name] = walk(list(system.initial_configs()))
    verdict, needed = system.side_conditions[name]
    if max_states < needed:
        raise _budget_exceeded(name, max_states)
    return verdict


def find_progress_cycle(
    system: CounterSystem,
    initial: Iterable[Config],
    max_states: int = 200_000,
    deadline: Optional[float] = None,
) -> Optional[Tuple[Config, ...]]:
    """Search the reachable graph for a cycle of progress actions.

    Returns a witness cycle (as a tuple of configurations) or ``None``
    when every fair execution terminates.  An exhausted ``max_states``
    budget raises :class:`~repro.errors.StateBudgetExceeded` (the search
    is incomplete — "no cycle found so far" must not read as "none
    exists"); a passed ``deadline`` (absolute ``perf_counter`` time)
    raises :class:`~repro.errors.DeadlineExceeded` once exceeded.
    """
    return _progress_cycle_walk(system, initial, max_states, deadline)[0]


def _progress_cycle_walk(system, initial, max_states: int, deadline):
    """:func:`find_progress_cycle` plus the smallest budget it needs."""
    WHITE, GREY, BLACK = 0, 1, 2
    needed = 0
    colour: Dict[Config, int] = {}
    parent: Dict[Config, Optional[Config]] = {}

    for root in initial:
        if colour.get(root, WHITE) is not WHITE:
            continue
        stack: List[Tuple[Config, Iterable[Config]]] = [
            (root, iter(progress_successors(system, root)))
        ]
        colour[root] = GREY
        parent[root] = None
        while stack:
            node, successors = stack[-1]
            advanced = False
            for succ in successors:
                state = colour.get(succ, WHITE)
                if state == GREY:
                    # Reconstruct the cycle from the grey stack.
                    cycle = [succ, node]
                    cursor = parent[node]
                    while cursor is not None and cursor != succ:
                        cycle.append(cursor)
                        cursor = parent[cursor]
                    cycle.reverse()
                    return tuple(cycle), needed
                if state == WHITE:
                    if len(colour) >= max_states:
                        raise _budget_exceeded("fair_termination", max_states)
                    _check_deadline(len(colour), deadline)
                    colour[succ] = GREY
                    needed = len(colour)
                    parent[succ] = node
                    stack.append((succ, iter(progress_successors(system, succ))))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None, needed


def all_fair_executions_terminate(
    system: CounterSystem,
    initial: Optional[Iterable[Config]] = None,
    max_states: int = 200_000,
    deadline: Optional[float] = None,
) -> bool:
    """Theorem 2's side condition for the single-round system.

    Memoised on ``system`` when ``initial`` is ``None`` (module note).
    """
    def walk(configs):
        cycle, needed = _progress_cycle_walk(system, configs, max_states, deadline)
        return cycle is None, needed

    return _memoised(system, initial, "fair_termination", max_states, walk)


def is_non_blocking(
    system: CounterSystem,
    initial: Optional[Iterable[Config]] = None,
    max_states: int = 200_000,
    deadline: Optional[float] = None,
) -> bool:
    """Every reachable configuration with an unfinished automaton can move.

    "Unfinished" means some process sits outside border-copy/final
    locations (or the coin outside its final/copy locations).  We
    explore the reachable graph and verify that every such configuration
    enables at least one progress action.  The resting-location set is
    precompiled into the shared :class:`~repro.counter.program.
    ProtocolProgram` (it depends only on location kinds).  Memoised on
    ``system`` when ``initial`` is ``None`` (module note).
    """
    return _memoised(
        system, initial, "non_blocking", max_states,
        lambda configs: _non_blocking_walk(system, configs, max_states, deadline),
    )


def _non_blocking_walk(system, configs, max_states: int, deadline):
    """:func:`is_non_blocking` plus the smallest budget it needs."""
    resting = system.program.resting_locations
    seen: Set[Config] = set(configs)
    frontier = list(configs)
    pops = 0
    while frontier:
        if len(seen) > max_states:
            raise _budget_exceeded("non_blocking", max_states)
        # Poll on a per-iteration counter: len(seen) grows in batches
        # and could stride over the residue forever.
        pops += 1
        _check_deadline(pops, deadline)
        config = frontier.pop()
        successors = progress_successors(system, config)
        if not successors and any(
            config.counter(k, i) > 0
            for k in range(config.rounds)
            for i in range(len(system.locations))
            if i not in resting
        ):
            # The walk passed every budget check so far, and seen has
            # not grown since the last one: len(seen) is what it needs.
            return False, len(seen)
        for succ in successors:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return True, len(seen)
