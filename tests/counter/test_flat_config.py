"""Property tests: the flat interned engine matches the seed semantics.

``_SeedConfig`` below is the original nested-tuple implementation the
flat :class:`repro.counter.config.Config` replaced; randomized move
sequences must produce identical observable state through both.
"""

from dataclasses import dataclass
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counter.system import CounterSystem
from repro.errors import SemanticsError
from repro.protocols import mmr14, naive_voting
from tests.counter.test_config import bump, config

Row = Tuple[int, ...]


@dataclass(frozen=True)
class _SeedConfig:
    """Reference implementation: the seed's nested-tuple configuration."""

    kappa: Tuple[Row, ...]
    g: Tuple[Row, ...]

    @property
    def rounds(self) -> int:
        return len(self.kappa)

    def counter(self, round_no: int, loc_index: int) -> int:
        if round_no >= len(self.kappa):
            return 0
        return self.kappa[round_no][loc_index]

    def variable(self, round_no: int, var_index: int) -> int:
        if round_no >= len(self.g):
            return 0
        return self.g[round_no][var_index]

    def ensure_rounds(self, rounds: int) -> "_SeedConfig":
        if rounds <= self.rounds:
            return self
        width_kappa = len(self.kappa[0]) if self.kappa else 0
        width_g = len(self.g[0]) if self.g else 0
        extra = rounds - self.rounds
        return _SeedConfig(
            self.kappa + ((0,) * width_kappa,) * extra,
            self.g + ((0,) * width_g,) * extra,
        )

    def bump(self, round_no, src_index, dst_index, dst_round, updates):
        base = self.ensure_rounds(max(round_no, dst_round) + 1)
        kappa = [list(row) for row in base.kappa]
        if kappa[round_no][src_index] < 1:
            raise SemanticsError("empty source")
        kappa[round_no][src_index] -= 1
        kappa[dst_round][dst_index] += 1
        if updates:
            g = [list(row) for row in base.g]
            for var_index, increment in updates:
                g[round_no][var_index] += increment
            new_g = tuple(tuple(row) for row in g)
        else:
            new_g = base.g
        return _SeedConfig(tuple(tuple(row) for row in kappa), new_g)


# ---------------------------------------------------------------------------
# Randomized move sequences through both implementations
# ---------------------------------------------------------------------------
moves = st.tuples(
    st.integers(0, 2),   # round_no
    st.integers(0, 2),   # src_index
    st.integers(0, 2),   # dst_index
    st.integers(0, 3),   # dst_round
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(-2, 3)), max_size=2
    ).map(tuple),        # updates (var_index, increment)
)


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(0, 4), min_size=3, max_size=3),
    values=st.lists(st.integers(0, 3), min_size=2, max_size=2),
    sequence=st.lists(moves, max_size=8),
)
def test_flat_matches_seed_on_random_moves(counts, values, sequence):
    flat = config([counts], [values])
    seed = _SeedConfig((tuple(counts),), (tuple(values),))
    for round_no, src, dst, dst_round, updates in sequence:
        flat_err = seed_err = None
        try:
            next_flat = bump(flat, round_no, src, dst, dst_round, updates)
        except (SemanticsError, IndexError) as exc:
            flat_err = type(exc)
        try:
            next_seed = seed.bump(round_no, src, dst, dst_round, updates)
        except (SemanticsError, IndexError) as exc:
            seed_err = type(exc)
        assert flat_err == seed_err
        if flat_err is not None:
            continue
        flat, seed = next_flat, next_seed
        assert flat.rounds == seed.rounds
        assert flat.kappa == seed.kappa
        assert flat.g == seed.g
        for k in range(seed.rounds + 1):
            for i in range(len(counts)):
                assert flat.counter(k, i) == seed.counter(k, i)
            for j in range(len(values)):
                assert flat.variable(k, j) == seed.variable(k, j)


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.integers(0, 4), min_size=2, max_size=3),
    rounds=st.integers(1, 5),
)
def test_ensure_rounds_matches_seed(counts, rounds):
    flat = config([counts], [(0, 0)])
    seed = _SeedConfig((tuple(counts),), ((0, 0),))
    extended_flat = flat.ensure_rounds(rounds)
    extended_seed = seed.ensure_rounds(rounds)
    assert extended_flat.rounds == extended_seed.rounds
    assert extended_flat.kappa == extended_seed.kappa
    assert extended_flat.g == extended_seed.g
    if rounds <= 1:
        assert extended_flat is flat  # seed no-op contract preserved


@settings(max_examples=100, deadline=None)
@given(
    a_counts=st.lists(st.integers(0, 3), min_size=2, max_size=2),
    b_counts=st.lists(st.integers(0, 3), min_size=2, max_size=2),
)
def test_equality_and_hash_follow_values(a_counts, b_counts):
    a = config([a_counts], [(0,)])
    b = config([b_counts], [(0,)])
    assert (a == b) == (a_counts == b_counts)
    if a == b:
        assert hash(a) == hash(b)


def test_different_round_horizons_stay_distinct():
    # The seed dataclass distinguished (k,) from (k, zero-row); so must we.
    base = config([(1, 0)], [(0,)])
    extended = base.ensure_rounds(2)
    assert base != extended
    assert extended.counter(1, 0) == 0


def test_layout_widths_distinguish_configs():
    # Same flat cells, different kappa/g split -> different configs.
    a = config([(1, 2)], [(3,)])       # wk=2, wg=1
    b = config([(1,)], [(2, 3)])       # wk=1, wg=2
    assert a.data == b.data
    assert a != b


# ---------------------------------------------------------------------------
# Interning
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def system():
    return CounterSystem(mmr14.model(), {"n": 4, "t": 1, "f": 1})


class TestInterning:
    def test_equal_configs_become_pointer_equal(self, system):
        a = system.make_config({"J0": 2, "J1": 1, "J2": 1})
        b = system.make_config({"J1": 1, "J0": 2, "J2": 1})
        assert a is b
        assert a.intern_id >= 0

    def test_apply_interns_successors(self, system):
        from repro.counter.actions import Action

        config = system.make_config({"J0": 3, "J2": 1})
        once = system.apply(config, Action("r1", 0))
        again = system.apply(config, Action("r1", 0))
        assert once is again

    def test_distinct_configs_get_distinct_ids(self, system):
        a = system.make_config({"J0": 3, "J2": 1})
        b = system.make_config({"J1": 3, "J2": 1})
        assert a is not b
        assert a.intern_id != b.intern_id

    def test_foreign_interned_config_cannot_poison_cache(self):
        # Regression: a config first interned by system A used to carry
        # its A-assigned intern_id into system B's successor cache,
        # where it collided with B's own ids and returned the wrong
        # successor groups.  The cache is now keyed by the config
        # itself, so sharing configs across systems is safe.
        val = {"n": 4, "t": 1, "f": 1}
        sys_a = CounterSystem(mmr14.model(), val)
        sys_b = CounterSystem(mmr14.model(), val)
        # Stamp a few intern ids in A first.
        configs_a = list(sys_a.initial_configs())
        for config in configs_a:
            sys_a.successor_groups(config)
        # Feed A's objects to B interleaved with B's own configs.
        foreign = configs_a[-1]
        groups_via_b = sys_b.successor_groups(foreign)
        for config in sys_b.initial_configs():
            expected = [
                action
                for group in sys_b.successor_groups(config)
                for action, _succ in group
            ]
            assert expected == sys_b.enabled_actions(
                config, include_stutters=False
            )
        flattened = [a for group in groups_via_b for a, _s in group]
        assert flattened == sys_b.enabled_actions(foreign, include_stutters=False)

    def test_intern_table_recycles_at_cap(self):
        from repro.counter.program import ProtocolProgram

        # A private program gives a private intern table: the *shared*
        # program's table may already hold every config this loop will
        # touch (it is shared across all systems of the structure), in
        # which case no miss — and therefore no reset — would occur.
        model = naive_voting.model()
        system = CounterSystem(model, {"n": 3, "f": 1},
                               program=ProtocolProgram(model))
        system.INTERN_TABLE_CAP = 4  # force generation resets
        seen = set()
        config = next(system.initial_configs())
        for _ in range(6):
            groups = system.successor_groups(config)
            assert groups  # still enumerates correctly after resets
            config = groups[0][0][1]
            seen.add(config)
            if not system.enabled_actions(config, include_stutters=False):
                break
        assert len(system._intern) <= 4

    def test_successor_groups_flatten_to_enabled_actions(self, system):
        for config in system.initial_configs():
            flattened = [
                action
                for group in system.successor_groups(config)
                for action, _succ in group
            ]
            assert flattened == system.enabled_actions(
                config, include_stutters=False
            )

    def test_successor_groups_match_apply(self, system):
        config = next(system.initial_configs())
        for group in system.successor_groups(config):
            for action, succ in group:
                assert succ is system.apply(config, action)


class TestUncheckedApply:
    def test_matches_checked_apply(self):
        from repro.counter.actions import Action

        system = CounterSystem(naive_voting.model(), {"n": 3, "f": 1})
        config = system.make_config({"I0": 2, "I1": 0})
        rule = system.rules["r1"]
        assert system.apply_unchecked(config, rule, 0) is system.apply(
            config, Action("r1", 0)
        )

    def test_empty_source_still_raises(self):
        system = CounterSystem(naive_voting.model(), {"n": 3, "f": 1})
        config = system.make_config({"I1": 3})
        rule = system.rules["r1"]  # source I0 is empty
        with pytest.raises(SemanticsError):
            system.apply_unchecked(config, rule, 0)
