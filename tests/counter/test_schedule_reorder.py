"""Tests for schedules, paths and the Theorem 1 reordering."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counter.actions import Action
from repro.counter.reorder import check_reorder_theorem, round_rigid_reorder
from repro.counter.schedule import (
    Schedule,
    apply_schedule,
    is_applicable,
    path,
    random_schedule,
)
from repro.counter.system import CounterSystem
from repro.errors import SemanticsError
from repro.protocols import mmr14

VAL = {"n": 4, "t": 1, "f": 1}


@pytest.fixture(scope="module")
def system():
    return CounterSystem(mmr14.model(), VAL)


def start_config(system):
    return next(iter(system.initial_configs({"J1": 1})))


def is_round_rigid(schedule):
    """True iff round labels are non-decreasing (s0 · s1 · s2 ...)."""
    rounds = [action.round for action in schedule]
    return all(a <= b for a, b in zip(rounds, rounds[1:]))


class TestSchedule:
    def test_applicability_and_path(self, system):
        config = start_config(system)
        schedule = Schedule((Action("r1", 0), Action("r3", 0)))
        assert is_applicable(system, config, schedule)
        trace = path(system, config, schedule)
        assert len(trace) == 3
        assert trace.first == config
        assert system.value_of(trace.last, "b0") == 1

    def test_inapplicable_detected(self, system):
        config = start_config(system)
        schedule = Schedule((Action("r3", 0),))  # nobody in I0 yet
        assert not is_applicable(system, config, schedule)
        with pytest.raises(SemanticsError):
            apply_schedule(system, config, schedule)

    def test_random_schedule_is_applicable(self, system):
        config = start_config(system)
        rng = random.Random(42)
        schedule = random_schedule(system, config, rng, max_steps=30)
        assert is_applicable(system, config, schedule)


class TestReorderTheorem:
    def test_stable_sort_by_round(self):
        schedule = Schedule(
            (Action("a", 1), Action("b", 0), Action("c", 1), Action("d", 0))
        )
        reordered = round_rigid_reorder(schedule)
        assert reordered.actions == (
            Action("b", 0),
            Action("d", 0),
            Action("a", 1),
            Action("c", 1),
        )
        assert is_round_rigid(reordered)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), steps=st.integers(1, 60))
    def test_theorem1_on_random_multiround_schedules(self, seed, steps):
        """Theorem 1: reordering applies and reaches the same config."""
        system = CounterSystem(mmr14.model(), VAL)
        config = start_config(system)
        rng = random.Random(seed)
        schedule = random_schedule(system, config, rng, max_steps=steps)
        reordered, final = check_reorder_theorem(system, config, schedule)
        assert is_round_rigid(reordered)
        assert final == apply_schedule(system, config, schedule)

    def test_multiround_instance(self, system):
        """Drive one process across the round boundary, then reorder."""
        config = start_config(system)
        rng = random.Random(7)
        # Keep sampling until the schedule genuinely spans two rounds.
        for attempt in range(50):
            schedule = random_schedule(system, config, rng, max_steps=120)
            if len(schedule.rounds_used()) >= 2:
                break
        else:
            pytest.skip("no multi-round schedule sampled")
        check_reorder_theorem(system, config, schedule)
