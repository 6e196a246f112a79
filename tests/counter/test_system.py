"""Unit tests for the explicit counter-system semantics."""

import gc
import weakref
from fractions import Fraction

import pytest

from repro import api
from repro.counter import program as program_module
from repro.counter.actions import Action
from repro.counter.batch import batch_available
from repro.counter.program import ProtocolProgram
from repro.counter.store import GraphStore
from repro.counter.system import (
    _SYSTEM_CACHE,
    CounterSystem,
    _compositions,
    clear_shared_caches,
    shared_system,
)
from repro.errors import SemanticsError
from repro.protocols import mmr14, naive_voting

VAL = {"n": 4, "t": 1, "f": 1}


@pytest.fixture
def mmr_system():
    return CounterSystem(mmr14.model(), VAL)


@pytest.fixture
def voting_system():
    return CounterSystem(naive_voting.model(), {"n": 3, "f": 1})


class TestCompositions:
    def test_counts(self):
        assert len(list(_compositions(3, 2))) == 4
        assert len(list(_compositions(3, 3))) == 10

    def test_zero_parts(self):
        assert list(_compositions(0, 0)) == [()]
        assert list(_compositions(1, 0)) == []

    def test_sum_invariant(self):
        for split in _compositions(5, 3):
            assert sum(split) == 5


class TestSetup:
    def test_sizes(self, mmr_system):
        assert mmr_system.n_processes == 3
        assert mmr_system.n_coins == 1
        assert len(mmr_system.locations) == 25

    def test_start_locations(self, mmr_system):
        assert {l.name for l in mmr_system.process_start} == {"J0", "J1"}
        assert {l.name for l in mmr_system.coin_start} == {"J2"}

    def test_no_coin_protocol(self, voting_system):
        assert voting_system.n_coins == 0
        assert {l.name for l in voting_system.process_start} == {"I0", "I1"}

    def test_guard_compiled_against_params(self, mmr_system):
        rule = mmr_system.rules["r7"]  # b0 >= 2t+1-f = 2
        (lhs, _cmp, rhs) = rule.guard[0]
        assert rhs == 2

    def test_round_switch_detection(self, mmr_system):
        assert mmr_system.rules["rs1"].is_round_switch
        assert not mmr_system.rules["r3"].is_round_switch
        assert mmr_system.rules["re"].is_round_switch  # coin C0 -> J2


class TestBoundedInsert:
    """Pin the cache eviction policy: FIFO over insertion order.

    The docstring promises plain FIFO — *not* LRU: hits never refresh a
    key's position, and reaching the cap drops the oldest quarter by
    insertion order.  These tests are the contract; if eviction is ever
    made recency-aware, they must change together with the docstring.
    """

    def test_oldest_quarter_evicted_at_cap(self, monkeypatch):
        monkeypatch.setattr(CounterSystem, "SUCCESSOR_CACHE_CAP", 8)
        cache = {}
        for key in range(8):
            CounterSystem._bounded_insert(cache, key, f"v{key}")
        assert len(cache) == 8
        # The insert at the cap drops the oldest quarter (8 // 4 = 2).
        CounterSystem._bounded_insert(cache, 8, "v8")
        assert list(cache) == [2, 3, 4, 5, 6, 7, 8]

    def test_hits_do_not_refresh_recency(self, monkeypatch):
        monkeypatch.setattr(CounterSystem, "SUCCESSOR_CACHE_CAP", 8)
        cache = {}
        for key in range(8):
            CounterSystem._bounded_insert(cache, key, f"v{key}")
        # "Hit" the two oldest entries the way the engine does — plain
        # dict reads.  FIFO means they are still evicted first.
        assert cache[0] == "v0" and cache[1] == "v1"
        CounterSystem._bounded_insert(cache, 8, "v8")
        assert 0 not in cache and 1 not in cache
        assert list(cache) == [2, 3, 4, 5, 6, 7, 8]

    def test_reinsert_after_eviction_lands_at_the_tail(self, monkeypatch):
        monkeypatch.setattr(CounterSystem, "SUCCESSOR_CACHE_CAP", 8)
        cache = {}
        for key in range(9):  # evicts 0 and 1
            CounterSystem._bounded_insert(cache, key, f"v{key}")
        CounterSystem._bounded_insert(cache, 0, "v0-again")
        assert list(cache)[-1] == 0
        assert cache[0] == "v0-again"

    def test_below_cap_never_evicts(self, monkeypatch):
        monkeypatch.setattr(CounterSystem, "SUCCESSOR_CACHE_CAP", 8)
        cache = {}
        for key in range(7):
            CounterSystem._bounded_insert(cache, key, key)
        assert list(cache) == list(range(7))


class TestInitialConfigs:
    def test_count(self, mmr_system):
        # 3 processes over {J0, J1} = 4 splits, coin pinned at J2.
        assert len(list(mmr_system.initial_configs())) == 4

    def test_filter(self, mmr_system):
        configs = list(mmr_system.initial_configs({"J1": 0}))
        assert len(configs) == 1
        only = configs[0]
        assert only.counter(0, mmr_system.loc_index["J0"]) == 3
        assert only.counter(0, mmr_system.loc_index["J2"]) == 1

    def test_all_variables_zero(self, mmr_system):
        for config in mmr_system.initial_configs():
            assert all(v == 0 for v in config.g[0])


class TestSemantics:
    def test_apply_moves_and_updates(self, voting_system):
        config = voting_system.make_config({"I0": 2, "I1": 0})
        after = voting_system.apply(config, Action("r1", 0))
        assert after.counter(0, voting_system.loc_index["I0"]) == 1
        assert after.counter(0, voting_system.loc_index["S"]) == 1
        assert voting_system.value_of(after, "v0") == 1

    def test_guard_blocks(self, voting_system):
        config = voting_system.make_config({"S": 2})
        # 2*v0 >= n+1-2f = 2 needs v0 >= 1.
        assert not voting_system.is_applicable(config, Action("r3", 0))
        primed = voting_system.make_config({"S": 2}, {"v0": 1})
        assert voting_system.is_applicable(primed, Action("r3", 0))

    def test_apply_rejects_inapplicable(self, voting_system):
        config = voting_system.make_config({"I0": 1})
        with pytest.raises(SemanticsError):
            voting_system.apply(config, Action("r3", 0))

    def test_round_switch_moves_to_next_round(self, mmr_system):
        config = mmr_system.make_config({"E0": 1})
        after = mmr_system.apply(config, Action("rs1", 0))
        assert after.rounds == 2
        assert after.counter(1, mmr_system.loc_index["J0"]) == 1
        assert after.counter(0, mmr_system.loc_index["E0"]) == 0

    def test_actions_in_later_rounds_enabled(self, mmr_system):
        config = mmr_system.make_config({"E0": 1})
        after = mmr_system.apply(config, Action("rs1", 0))
        actions = mmr_system.enabled_actions(after)
        assert Action("r1", 1) in actions

    def test_coin_branch_actions_expanded(self, mmr_system):
        config = mmr_system.make_config({"I2": 1})
        actions = mmr_system.enabled_actions(config)
        assert Action("rb", 0, "T0") in actions
        assert Action("rb", 0, "T1") in actions

    def test_branch_apply_requires_branch(self, mmr_system):
        config = mmr_system.make_config({"I2": 1})
        with pytest.raises(SemanticsError):
            mmr_system.apply(config, Action("rb", 0))

    def test_invalid_branch_rejected(self, mmr_system):
        config = mmr_system.make_config({"I2": 1})
        with pytest.raises(SemanticsError):
            mmr_system.apply(config, Action("rb", 0, "C0"))

    def test_prob_transitions(self, mmr_system):
        config = mmr_system.make_config({"I2": 1})
        moves = mmr_system.prob_transitions(config, "rb", 0)
        assert len(moves) == 2
        assert all(p == Fraction(1, 2) for p, _ in moves)
        targets = {
            c.counter(0, mmr_system.loc_index["T0"]) + 2 * c.counter(0, mmr_system.loc_index["T1"])
            for _, c in moves
        }
        assert targets == {1, 2}

    def test_prob_transitions_rejects_blocked(self, mmr_system):
        config = mmr_system.make_config({"J2": 1})
        with pytest.raises(SemanticsError):
            mmr_system.prob_transitions(config, "rb", 0)

    def test_per_round_variables_are_separate(self, mmr_system):
        config = mmr_system.make_config({"E0": 1, "I0": 1}, {"b0": 5})
        after = mmr_system.apply(config, Action("rs1", 0))   # E0 -> J0 (round 1)
        after = mmr_system.apply(after, Action("r1", 1))     # J0 -> I0 (round 1)
        after = mmr_system.apply(after, Action("r3", 1))     # broadcast in round 1
        assert after.variable(0, mmr_system.var_index["b0"]) == 5
        assert after.variable(1, mmr_system.var_index["b0"]) == 1


@pytest.fixture
def collector_off():
    """The cyclic collector disabled: only reference counting frees."""
    clear_shared_caches()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestDroppedSystemsAreFreed:
    """No reference cycle runs through a bound system or its program.

    With the collector disabled, a system (with its successor cache)
    and a program (with its intern table) must die the moment the
    shared caches let go of them.
    """

    def test_clear_shared_caches_frees_systems_and_programs(
        self, collector_off
    ):
        api.verify("mmr14")
        systems = list(_SYSTEM_CACHE._systems.values())
        programs = list(program_module._PROGRAM_CACHE._programs.values())
        assert systems and programs
        if batch_available():
            assert any(s._batch_expander is not None for s in systems)
        system_refs = [weakref.ref(s) for s in systems]
        program_refs = [weakref.ref(p) for p in programs]
        del systems, programs
        clear_shared_caches()
        assert [r for r in system_refs if r() is not None] == []
        assert [r for r in program_refs if r() is not None] == []

    def test_fifo_evicted_system_is_freed(self, collector_off):
        model = naive_voting.model()
        refs = {}
        for n in range(3, 3 + _SYSTEM_CACHE.CAP + 1):
            system = shared_system(model, {"n": n, "f": 1})
            expander = system.batch_expander()
            if expander is not None:
                expander.expand_frontier(system.initial_configs())
            else:
                for config in system.initial_configs():
                    system.successor_groups(config)
            refs[n] = weakref.ref(system)
            del system, expander
        cached = {id(s) for s in _SYSTEM_CACHE._systems.values()}
        evicted = [ref for ref in refs.values()
                   if ref() is None or id(ref()) not in cached]
        assert evicted, "the 9th valuation must evict a cached system"
        assert [ref for ref in evicted if ref() is not None] == []


def _action_copies(system):
    """Labels in the system's caches that more than one object carries."""
    objects = {}
    for groups in system._succ_cache.values():
        for group in groups:
            for action, _successor in group:
                objects.setdefault(
                    (action.rule, action.round, action.branch), set()
                ).add(id(action))
    for options in system._options_cache.values():
        for action in options:
            objects.setdefault(
                (action.rule, action.round, action.branch), set()
            ).add(id(action))
    assert objects, "the caches must hold something"
    return {label: len(ids) for label, ids in objects.items() if len(ids) > 1}


def _fresh_mmr_system():
    model = mmr14.model()
    return CounterSystem(model, VAL, program=ProtocolProgram(model))


def _scalar_explore(system, limit=400):
    frontier = list(system.initial_configs())
    seen = set(frontier)
    while frontier and len(seen) < limit:
        config = frontier.pop(0)
        system.rule_options(config)
        for group in system.successor_groups(config):
            for _action, successor in group:
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)


class TestOneActionTable:
    """Every path that builds actions shares one object per label."""

    @pytest.mark.skipif(not batch_available(), reason="needs numpy")
    def test_cold_batch_expansion(self):
        system = _fresh_mmr_system()
        expander = system.batch_expander()
        level = list(system.initial_configs())
        while level and len(system._succ_cache) < 400:
            expander.expand_frontier(level)
            level = [
                successor
                for config in level
                for group in system._succ_cache[config]
                for _action, successor in group
                if successor not in system._succ_cache
            ]
        assert _action_copies(system) == {}

    def test_cold_scalar_expansion(self):
        system = _fresh_mmr_system()
        _scalar_explore(system)
        assert _action_copies(system) == {}

    def test_warm_store_load(self, tmp_path):
        source = _fresh_mmr_system()
        _scalar_explore(source)
        assert GraphStore(tmp_path, version="v1").flush(source)
        warm = _fresh_mmr_system()
        assert GraphStore(tmp_path, version="v1").load_into(warm)
        assert len(warm._succ_cache) == len(source._succ_cache)
        assert _action_copies(warm) == {}
