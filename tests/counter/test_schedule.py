"""Direct unit tests for schedules under round-robin vs adversarial orderings.

The naive-voting model makes the orderings easy to read: every process
broadcasts (``r1``/``r2``) and decides once a majority is visible
(``r3``/``r4``).  A *round-robin* schedule interleaves the processes
fairly; an *adversarial* one drives a single process as far as possible
before anyone else moves.  Counter-system semantics only track counters,
so both orderings of the same action multiset must commute to the same
final configuration — and the `Schedule`/`Path` helpers must report
applicability, prefixes and visited configurations consistently.
"""

import pytest

from repro.counter.actions import Action
from repro.counter.schedule import (
    Schedule,
    apply_schedule,
    is_applicable,
    path,
)
from repro.counter.system import CounterSystem
from repro.errors import SemanticsError
from repro.protocols import naive_voting

VAL = {"n": 3, "f": 1}


@pytest.fixture(scope="module")
def system():
    return CounterSystem(naive_voting.model(), VAL)


def initial(system, placement):
    return system.make_config(placement)


#: Two processes propose 0, none proposes 1 (n - f = 2 modelled).
START = {"I0": 2, "I1": 0}

#: Round-robin: alternate broadcasts, then alternate decisions.
ROUND_ROBIN = Schedule((
    Action("r1", 0), Action("r1", 0),      # each process broadcasts in turn
    Action("r3", 0), Action("r3", 0),      # each decides in turn
))

#: Adversarial: run one process to completion before the other moves.
#: With 2*v0 >= n+1-2f = 2, a single broadcast already unlocks r3.
ADVERSARIAL = Schedule((
    Action("r1", 0), Action("r3", 0),      # first process runs to the end
    Action("r1", 0), Action("r3", 0),      # then the second one
))


class TestOrderings:
    def test_round_robin_is_applicable(self, system):
        assert is_applicable(system, initial(system, START), ROUND_ROBIN)

    def test_adversarial_is_applicable(self, system):
        assert is_applicable(system, initial(system, START), ADVERSARIAL)

    def test_same_action_multiset_reaches_same_config(self, system):
        config = initial(system, START)
        assert apply_schedule(system, config, ROUND_ROBIN) == apply_schedule(
            system, config, ADVERSARIAL
        )

    def test_final_config_decides_everyone(self, system):
        config = initial(system, START)
        final = apply_schedule(system, config, ROUND_ROBIN)
        assert final.counter(0, system.loc_index["D0"]) == 2
        assert system.value_of(final, "v0") == 2

    def test_intermediate_configs_differ_between_orderings(self, system):
        """The orderings commute at the end but not along the way."""
        config = initial(system, START)
        robin = path(system, config, ROUND_ROBIN)
        greedy = path(system, config, ADVERSARIAL)
        assert robin.configs[2] != greedy.configs[2]
        assert robin.last == greedy.last

    def test_premature_decision_is_inapplicable(self, system):
        """Adversarial reordering beyond commutation limits is rejected:
        deciding before any broadcast leaves the guard locked."""
        too_greedy = Schedule((Action("r3", 0), Action("r1", 0)))
        config = initial(system, START)
        assert not is_applicable(system, config, too_greedy)
        with pytest.raises(SemanticsError):
            apply_schedule(system, config, too_greedy)

    def test_mixed_inputs_split_decision(self, system):
        """1 vs 1 inputs with f=1: both decision guards unlock — the
        adversary can split the decisions (the paper's Fig. 2 scenario)."""
        config = initial(system, {"I0": 1, "I1": 1})
        split = Schedule((
            Action("r1", 0), Action("r2", 0),
            Action("r3", 0), Action("r4", 0),
        ))
        final = apply_schedule(system, config, split)
        assert final.counter(0, system.loc_index["D0"]) == 1
        assert final.counter(0, system.loc_index["D1"]) == 1


class TestPathHelpers:
    def test_path_interleaves_configs_and_actions(self, system):
        config = initial(system, START)
        trace = path(system, config, ROUND_ROBIN)
        assert len(trace) == len(ROUND_ROBIN) + 1
        assert trace.first == config
        # Every adjacent pair is one action application.
        for i, action in enumerate(ROUND_ROBIN):
            assert system.apply(trace.configs[i], action) == trace.configs[i + 1]

    def test_schedule_indexing_and_iteration(self):
        schedule = Schedule((Action("a", 0), Action("b", 1)))
        assert schedule[0] == Action("a", 0)
        assert list(schedule) == [Action("a", 0), Action("b", 1)]
        assert len(schedule) == 2

    def test_rounds_used(self):
        schedule = Schedule((Action("a", 0), Action("b", 2), Action("c", 0)))
        assert schedule.rounds_used() == (0, 2)

    def test_empty_schedule_applies_to_anything(self, system):
        config = initial(system, START)
        assert is_applicable(system, config, Schedule(()))
        assert apply_schedule(system, config, Schedule(())) == config
