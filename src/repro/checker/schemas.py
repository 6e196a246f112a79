"""Schema enumeration and counting.

A *schema* is an interleaving of milestone flips and the query's
temporal events: milestones respect the precedence order, each of the
query's events occurs exactly once, and the sequence ends with the last
event (trailing milestones cannot contribute to an already-witnessed
violation).  Each schema denotes the family of schedules whose guard
flips and property observations happen in that order; §V reduces the
existence of a violating schedule within a schema to linear-arithmetic
feasibility (see :mod:`repro.checker.encoder`).

The *number of schemas* — ``nschemas`` in the paper's Tables II/IV — is
computed analytically by :func:`count_schemas`: a DP over (downward-
closed milestone set, events already placed).  This reproduces the
paper's observation that the schema count explodes with the milestone
count (Table IV) without enumerating anything.

:func:`iter_extensions` drives the DFS of the parameterized checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Mapping, Sequence, Tuple, Union

from repro.checker.milestones import Milestone


@dataclass(frozen=True)
class EventItem:
    """A placement of the query's ``index``-th temporal event."""

    index: int

    def __str__(self) -> str:
        return f"<event {self.index}>"


SchemaItem = Union[Milestone, EventItem]


def addable_milestones(
    milestones: Sequence[Milestone],
    predecessors: Mapping[Milestone, FrozenSet[Milestone]],
    flipped: FrozenSet[Milestone],
) -> List[Milestone]:
    """Milestones whose predecessors have all flipped already."""
    result = []
    for m in milestones:
        if m in flipped:
            continue
        if predecessors[m] <= flipped:
            result.append(m)
    return result


def iter_extensions(
    milestones: Sequence[Milestone],
    predecessors: Mapping[Milestone, FrozenSet[Milestone]],
    flipped: FrozenSet[Milestone],
    events_placed: FrozenSet[int],
    n_events: int,
) -> Iterator[SchemaItem]:
    """All items that may extend the current schema prefix.

    Events come first so that counterexample-bearing branches (which
    need all events placed) are reached as early as possible.
    """
    for index in range(n_events):
        if index not in events_placed:
            yield EventItem(index)
    for m in addable_milestones(milestones, predecessors, flipped):
        yield m


def count_schemas(
    milestones: Sequence[Milestone],
    predecessors: Mapping[Milestone, FrozenSet[Milestone]],
    n_events: int,
) -> int:
    """Number of schemas (unpruned enumeration leaves) for a query.

    DP on ``(flipped downset, number of events placed)``: a leaf is
    reached exactly when the last event is placed, so

        f(D, e_left) = sum over addable milestones m of f(D + m, e_left)
                       + e_left * [f(D, e_left - 1) if e_left > 1 else 1]

    (events are distinct, hence the factor ``e_left``).
    """
    order = {m: i for i, m in enumerate(milestones)}
    cache: Dict[Tuple[FrozenSet[int], int], int] = {}

    def visit(flipped: FrozenSet[Milestone], remaining: int) -> int:
        key = (frozenset(order[m] for m in flipped), remaining)
        if key in cache:
            return cache[key]
        total = 0
        # Place one of the remaining (distinct) events here.
        if remaining == 1:
            total += remaining  # placing the last event ends the schema
        elif remaining > 1:
            total += remaining * visit(flipped, remaining - 1)
        # Or flip an addable milestone.
        for m in addable_milestones(milestones, predecessors, flipped):
            total += visit(flipped | {m}, remaining)
        cache[key] = total
        return total

    if n_events == 0:
        return 1
    return visit(frozenset(), n_events)

