"""Schedules and paths (§III-D).

A *schedule* is a (finite) sequence of actions; it is applicable to a
configuration when each action is applicable to the configuration
obtained by executing its predecessors.  ``path(c, tau)`` interleaves
the visited configurations with the executed actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.counter.actions import Action
from repro.counter.config import Config
from repro.counter.system import CounterSystem


@dataclass(frozen=True)
class Schedule:
    """An immutable finite sequence of actions."""

    actions: Tuple[Action, ...]

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator[Action]:
        return iter(self.actions)

    def __getitem__(self, index):
        return self.actions[index]

    def rounds_used(self) -> Tuple[int, ...]:
        """Sorted distinct round labels appearing in the schedule."""
        return tuple(sorted({action.round for action in self.actions}))

    def __str__(self) -> str:
        return " ".join(str(action) for action in self.actions)


@dataclass(frozen=True)
class Path:
    """``path(c0, tau)``: configurations interleaved with actions."""

    configs: Tuple[Config, ...]
    schedule: Schedule

    @property
    def first(self) -> Config:
        return self.configs[0]

    @property
    def last(self) -> Config:
        return self.configs[-1]

    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self) -> Iterator[Config]:
        return iter(self.configs)


def is_applicable(
    system: CounterSystem, config: Config, schedule: Schedule
) -> bool:
    """Is the whole schedule applicable to ``config``?"""
    current = config
    for action in schedule:
        if not system.is_applicable(current, action):
            return False
        current = system.apply(current, action)
    return True


def apply_schedule(
    system: CounterSystem, config: Config, schedule: Schedule
) -> Config:
    """Execute the schedule; raises if some action is inapplicable."""
    current = config
    for action in schedule:
        current = system.apply(current, action)
    return current


def path(system: CounterSystem, config: Config, schedule: Schedule) -> Path:
    """The path visited by executing ``schedule`` from ``config``."""
    configs: List[Config] = [config]
    current = config
    for action in schedule:
        current = system.apply(current, action)
        configs.append(current)
    return Path(tuple(configs), schedule)


def random_schedule(
    system: CounterSystem,
    config: Config,
    rng,
    max_steps: int,
    include_stutters: bool = False,
) -> Schedule:
    """A random applicable schedule of up to ``max_steps`` actions.

    Used by property-based tests (e.g. for Theorem 1) to generate
    arbitrary applicable schedules.
    """
    actions: List[Action] = []
    current = config
    for _ in range(max_steps):
        options = system.enabled_actions(current, include_stutters=include_stutters)
        if not options:
            break
        action = options[rng.randrange(len(options))]
        actions.append(action)
        current = system.apply(current, action)
    return Schedule(tuple(actions))
