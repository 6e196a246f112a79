"""Direct unit tests for the Theorem 1 round-rigid reordering.

`tests/counter/test_schedule_reorder.py` drives the theorem on random
schedules; these tests pin the reordering *algorithm* itself on
hand-built instances — stability, idempotence, equivalence of the
reached configuration, and the failure mode on inapplicable input.
"""

import pytest

from repro.counter.actions import Action
from repro.counter.reorder import check_reorder_theorem, round_rigid_reorder
from repro.counter.schedule import Schedule, apply_schedule
from repro.counter.system import CounterSystem
from repro.errors import SemanticsError
from repro.protocols import mmr14
from tests.counter.test_schedule_reorder import is_round_rigid

VAL = {"n": 4, "t": 1, "f": 1}


@pytest.fixture(scope="module")
def system():
    return CounterSystem(mmr14.model(), VAL)


class TestRoundRigidReorder:
    def test_empty_schedule(self):
        assert round_rigid_reorder(Schedule(())).actions == ()

    def test_round_rigid_input_is_fixed_point(self):
        rigid = Schedule((Action("a", 0), Action("b", 0), Action("c", 2)))
        assert round_rigid_reorder(rigid).actions == rigid.actions

    def test_idempotent(self):
        loose = Schedule((Action("a", 2), Action("b", 0), Action("c", 1)))
        once = round_rigid_reorder(loose)
        assert round_rigid_reorder(once).actions == once.actions

    def test_stability_preserves_same_round_order(self):
        # Actions of one round keep their relative order — the sort key
        # is (round, original position).
        loose = Schedule((
            Action("x", 1), Action("a", 0), Action("y", 1),
            Action("b", 0), Action("z", 1),
        ))
        reordered = round_rigid_reorder(loose)
        assert [a.rule for a in reordered.actions] == ["a", "b", "x", "y", "z"]

    def test_branch_labels_survive_reordering(self):
        loose = Schedule((Action("rb", 1, "T1"), Action("rb", 0, "T0")))
        reordered = round_rigid_reorder(loose)
        assert reordered.actions == (Action("rb", 0, "T0"), Action("rb", 1, "T1"))


class TestCheckReorderTheorem:
    def test_equivalence_on_multiround_instance(self, system):
        """A hand-built cross-round schedule reorders to the same config."""
        config = next(system.initial_configs({"J1": 0}))
        # Drive one process across the round boundary, then wake a
        # laggard in round 0: E0 requires the full pipeline first.
        prefix = [Action("r1", 0), Action("r1", 0), Action("r3", 0),
                  Action("r3", 0), Action("r7", 0)]
        current = config
        for action in prefix:
            current = system.apply(current, action)
        # Find a round switch to cross into round 1, then interleave a
        # round-0 action after a round-1 action.
        tail = []
        probe = current
        for _ in range(40):
            options = system.enabled_actions(probe, include_stutters=False)
            switch = [a for a in options if a.round == 1]
            if switch:
                round1 = switch[0]
                round0 = [a for a in options if a.round == 0]
                if round0:
                    tail = [round1, round0[0]]
                break
            action = options[0]
            prefix.append(action)
            probe = system.apply(probe, action)
        if not tail:
            pytest.skip("no cross-round interleaving reachable")
        schedule = Schedule(tuple(prefix + tail))
        assert not is_round_rigid(schedule)
        reordered, final = check_reorder_theorem(system, config, schedule)
        assert is_round_rigid(reordered)
        assert final == apply_schedule(system, config, schedule)
        # Same multiset of actions, only the order changed.
        assert sorted(map(str, reordered.actions)) == sorted(
            map(str, schedule.actions)
        )

    def test_rejects_inapplicable_input(self, system):
        config = next(system.initial_configs({"J1": 0}))
        bogus = Schedule((Action("r7", 0),))  # guard b0 >= 2 unmet
        with pytest.raises(SemanticsError, match="not applicable"):
            check_reorder_theorem(system, config, bogus)
