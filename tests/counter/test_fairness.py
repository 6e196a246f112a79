"""Tests for the Theorem 2 side conditions (fair termination, non-blocking)."""

import pytest

from repro.core.builder import AutomatonBuilder
from repro.core.system import SystemModel
from repro.counter.fairness import (
    all_fair_executions_terminate,
    find_progress_cycle,
    is_non_blocking,
)
from repro.counter.system import CounterSystem
from repro.errors import StateBudgetExceeded
from repro.protocols import mmr14, naive_voting


def pingpong_model() -> SystemModel:
    """Two locations with rules both ways: a progress cycle."""
    b = AutomatonBuilder("pingpong")
    b.initial("A")
    b.location("B")
    b.rule("go", "A", "B")
    b.rule("back", "B", "A")
    return SystemModel(
        name="pingpong",
        environment=naive_voting.model().environment,
        process=b.build(check=None),
    )


def stuck_model() -> SystemModel:
    """A process blocked before its final location."""
    b = AutomatonBuilder("stuck")
    b.shared("x")
    b.initial("A")
    b.final("B")
    # Guard can never fire: x is never incremented.
    b.rule("go", "A", "B", guard=b.var("x") >= 1)
    return SystemModel(
        name="stuck",
        environment=naive_voting.model().environment,
        process=b.build(check=None),
    )


class TestTermination:
    def test_naive_voting_terminates(self):
        system = CounterSystem(naive_voting.model(), {"n": 3, "f": 1})
        assert all_fair_executions_terminate(system)

    def test_mmr14_single_round_terminates(self):
        system = CounterSystem(mmr14.model().single_round(), {"n": 4, "t": 1, "f": 1})
        assert all_fair_executions_terminate(system)

    def test_ping_pong_cycle_detected(self):
        system = CounterSystem(pingpong_model(), {"n": 3, "f": 1})
        cycle = find_progress_cycle(system, system.initial_configs())
        assert cycle is not None
        assert len(cycle) >= 2
        assert not all_fair_executions_terminate(system)


class TestNonBlocking:
    def test_mmr14_single_round_non_blocking(self):
        system = CounterSystem(mmr14.model().single_round(), {"n": 4, "t": 1, "f": 1})
        assert is_non_blocking(system)

    def test_blocked_automaton_detected(self):
        system = CounterSystem(stuck_model(), {"n": 3, "f": 1})
        assert not is_non_blocking(system)


class TestMemo:
    """Walks from the system's own initial configs are memoised on it."""

    def test_walks_from_passed_configs_are_not_memoised(self):
        system = CounterSystem(stuck_model(), {"n": 3, "f": 1})
        initial = list(system.initial_configs())
        assert not is_non_blocking(system, initial)
        assert all_fair_executions_terminate(system, initial)
        assert system.side_conditions == {}

    def test_memo_hit_replays_the_walks_budget_error(self):
        system = CounterSystem(mmr14.model().single_round(), {"n": 4, "t": 1, "f": 1})
        for walk, name in ((is_non_blocking, "non_blocking"),
                           (all_fair_executions_terminate, "fair_termination")):
            fresh = CounterSystem(mmr14.model().single_round(), {"n": 4, "t": 1, "f": 1})
            with pytest.raises(StateBudgetExceeded) as cold:
                walk(fresh, max_states=10)
            assert walk(system)
            assert system.side_conditions[name][0] is True
            with pytest.raises(StateBudgetExceeded) as warm:
                walk(system, max_states=10)
            assert str(warm.value) == str(cold.value)
