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

One colour DFS over that graph decides both conditions: it meets every
reachable configuration (the non-blocking test) and every cycle through
them (a grey successor).  Both depend only on the bound system, so the
walk from the system's own initial configurations (``initial=None``)
records each condition it settles in :attr:`CounterSystem.
side_conditions`, with the smallest ``max_states`` it needed, and later
such calls for either condition answer from there: a call whose budget
is below the recorded one raises the walk's own
:class:`~repro.errors.StateBudgetExceeded`.  A walk that hit its
deadline records nothing; a walk from explicitly passed configurations
is never memoised.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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


#: The budget-exceeded message of each condition, shared by memo hits.
_BUDGET_MESSAGES = {
    "non_blocking": "non-blocking search exceeded {} states",
    "fair_termination": "progress-cycle search exceeded {} states",
}


def _memoised(system, initial, name: str, max_states: int, deadline) -> bool:
    """``name``'s verdict, from one :func:`_side_walk` per system.

    ``needed`` is the smallest ``max_states`` under which the walk
    settles a condition, so a memo hit raises exactly when a fresh walk
    would.
    """
    if initial is not None:
        settled = _side_walk(system, initial, max_states, deadline)
    else:
        settled = system.side_conditions
        if name not in settled:
            settled.update(_side_walk(
                system, system.initial_configs(), max_states, deadline
            ))
    if name not in settled or max_states < settled[name][1]:
        raise StateBudgetExceeded(_BUDGET_MESSAGES[name].format(max_states))
    return settled[name][0]


def _side_walk(system, initial, max_states: int, deadline):
    """Decide both side conditions in one colour DFS.

    A grey successor closes a progress cycle; a config that has no
    progress successor while a process sits outside the resting
    locations is blocked.  Returns ``name -> (verdict, needed)`` for each
    condition settled before the ``max_states`` budget ran out.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    resting = system.program.resting_locations
    settled: Dict[str, Tuple[bool, int]] = {}
    needed = 0
    colour: Dict[Config, int] = {}
    stack: List[Tuple[Config, Iterator[Config]]] = []

    def enter(config: Config) -> None:
        colour[config] = GREY
        successors = progress_successors(system, config)
        if not successors and "non_blocking" not in settled and any(
            config.counter(k, i) > 0
            for k in range(config.rounds)
            for i in range(len(system.locations))
            if i not in resting
        ):
            settled["non_blocking"] = (False, needed)
        stack.append((config, iter(successors)))

    for root in initial:
        if root in colour:
            continue
        enter(root)
        while stack:
            if len(settled) == 2:
                return settled
            node, successors = stack[-1]
            for succ in successors:
                state = colour.get(succ, WHITE)
                if state == WHITE:
                    if len(colour) >= max_states:
                        return settled
                    _check_deadline(len(colour), deadline)
                    needed = len(colour) + 1
                    enter(succ)
                    break
                if state == GREY and "fair_termination" not in settled:
                    settled["fair_termination"] = (False, needed)
                    if len(settled) == 2:
                        return settled
            else:
                colour[node] = BLACK
                stack.pop()
    settled.setdefault("non_blocking", (True, needed))
    settled.setdefault("fair_termination", (True, needed))
    return settled


def all_fair_executions_terminate(
    system: CounterSystem,
    initial: Optional[Iterable[Config]] = None,
    max_states: int = 200_000,
    deadline: Optional[float] = None,
) -> bool:
    """Theorem 2's side condition: no reachable progress cycle.

    An exhausted ``max_states`` budget raises
    :class:`~repro.errors.StateBudgetExceeded` (the search is incomplete
    — "no cycle found so far" must not read as "none exists"); a passed
    ``deadline`` (absolute ``perf_counter`` time) raises
    :class:`~repro.errors.DeadlineExceeded`.  Memoised on ``system``
    when ``initial`` is ``None`` (module note).
    """
    return _memoised(system, initial, "fair_termination", max_states, deadline)


def is_non_blocking(
    system: CounterSystem,
    initial: Optional[Iterable[Config]] = None,
    max_states: int = 200_000,
    deadline: Optional[float] = None,
) -> bool:
    """Every reachable configuration with an unfinished automaton can move.

    "Unfinished" means some process sits outside border-copy/final
    locations (or the coin outside its final/copy locations).  The
    resting-location set is precompiled into the shared
    :class:`~repro.counter.program.ProtocolProgram` (it depends only on
    location kinds).  Budgets and memo as for
    :func:`all_fair_executions_terminate`.
    """
    return _memoised(system, initial, "non_blocking", max_states, deadline)
