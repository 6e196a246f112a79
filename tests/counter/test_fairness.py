"""Tests for the Theorem 2 side conditions (fair termination, non-blocking)."""

from functools import partial

import pytest

from repro.core.builder import AutomatonBuilder
from repro.core.locations import LocKind
from repro.core.system import SystemModel
from repro.counter.fairness import (
    all_fair_executions_terminate,
    is_non_blocking,
    progress_successors,
)
from repro.counter.system import CounterSystem
from repro.errors import StateBudgetExceeded
from repro.protocols import mmr14, naive_voting
from repro.protocols.registry import by_name
from tests.checker.test_differential import SEEDS, random_model, small_valuation


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
        assert not all_fair_executions_terminate(system)
        assert not all_fair_executions_terminate(
            system, system.initial_configs()
        )


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


def oracle(system: CounterSystem):
    """``(non_blocking, fair_termination)`` without the colour DFS.

    A plain reachable set over :func:`progress_successors` with the
    blocking test per config, then Kahn's algorithm: the progress graph
    is acyclic exactly when every reachable config gets removed.
    """
    resting = {
        index for index, loc in enumerate(system.locations)
        if loc.kind in (LocKind.BORDER_COPY, LocKind.FINAL)
    }
    edges = {}
    non_blocking = True
    frontier = list(system.initial_configs())
    while frontier:
        config = frontier.pop()
        if config in edges:
            continue
        edges[config] = successors = progress_successors(system, config)
        if not successors and any(
            config.counter(k, i)
            for k in range(config.rounds)
            for i in range(len(system.locations))
            if i not in resting
        ):
            non_blocking = False
        frontier.extend(successors)
    indegree = dict.fromkeys(edges, 0)
    for successors in edges.values():
        for succ in successors:
            indegree[succ] += 1
    ready = [config for config, degree in indegree.items() if not degree]
    removed = 0
    while ready:
        removed += 1
        for succ in edges[ready.pop()]:
            indegree[succ] -= 1
            if not indegree[succ]:
                ready.append(succ)
    return non_blocking, removed == len(edges)


def _cc85a_failing():
    entry = by_name("cc85a")
    model = entry.build_model(coin="failing:1/8").as_single_round()
    return CounterSystem(model, entry.small_valuation)


def _fuzz_system(seed):
    model = random_model(seed)
    return CounterSystem(model, small_valuation(model))


ORACLE_CASES = {
    "pingpong": lambda: CounterSystem(pingpong_model(), {"n": 3, "f": 1}),
    "stuck": lambda: CounterSystem(stuck_model(), {"n": 3, "f": 1}),
    "mmr14-rd": lambda: CounterSystem(
        mmr14.model().single_round(), {"n": 4, "t": 1, "f": 1}
    ),
    "cc85a-failing": _cc85a_failing,
}
for _seed in SEEDS:
    ORACLE_CASES[f"fuzz{_seed}"] = partial(_fuzz_system, _seed)


class TestOracle:
    """The one walk agrees with a reachable set plus a separate cycle check."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_walk_matches_oracle(self, case):
        # Each condition asked first on a fresh system, so each is
        # decided by the walk itself, not by the other's memo entry.
        nb_first = ORACLE_CASES[case]()
        ft_first = ORACLE_CASES[case]()
        nb = is_non_blocking(nb_first)
        ft = all_fair_executions_terminate(ft_first)
        assert (nb, ft) == oracle(nb_first)
        assert all_fair_executions_terminate(nb_first) == ft
        assert is_non_blocking(ft_first) == nb

    def test_corpus_covers_both_failures(self):
        assert oracle(ORACLE_CASES["pingpong"]())[1] is False
        assert oracle(ORACLE_CASES["stuck"]())[0] is False
        assert oracle(ORACLE_CASES["cc85a-failing"]())[0] is False
