"""Tests for schema enumeration and analytic counting."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker.milestones import Milestone
from repro.checker.schemas import (
    EventItem,
    addable_milestones,
    count_schemas,
    iter_extensions,
)
from repro.core.expression import ParamExpr


def mk(name: str) -> Milestone:
    return Milestone(((name, 1),), ParamExpr.constant(1))


def chain_preds(milestones):
    """Total order m0 < m1 < ... (a chain poset)."""
    return {
        m: frozenset(milestones[:i]) for i, m in enumerate(milestones)
    }


def antichain_preds(milestones):
    return {m: frozenset() for m in milestones}


class TestAddable:
    def test_chain_exposes_one(self):
        ms = [mk("a"), mk("b"), mk("c")]
        preds = chain_preds(ms)
        assert addable_milestones(ms, preds, frozenset()) == [ms[0]]
        assert addable_milestones(ms, preds, frozenset({ms[0]})) == [ms[1]]

    def test_antichain_exposes_all(self):
        ms = [mk("a"), mk("b")]
        assert len(addable_milestones(ms, antichain_preds(ms), frozenset())) == 2


class TestCounting:
    def test_zero_milestones_one_event(self):
        assert count_schemas([], {}, 1) == 1

    def test_zero_events(self):
        ms = [mk("a")]
        assert count_schemas(ms, antichain_preds(ms), 0) == 1

    def test_single_milestone_single_event(self):
        # Sequences: [e], [m, e] -> 2 schemas.
        ms = [mk("a")]
        assert count_schemas(ms, antichain_preds(ms), 1) == 2

    def test_antichain_two_milestones_one_event(self):
        # [e], [a e], [b e], [a b e], [b a e] -> 5.
        ms = [mk("a"), mk("b")]
        assert count_schemas(ms, antichain_preds(ms), 1) == 5

    def test_chain_two_milestones_one_event(self):
        # [e], [a e], [a b e] -> 3.
        ms = [mk("a"), mk("b")]
        assert count_schemas(ms, chain_preds(ms), 1) == 3

    def test_two_events_order_matters(self):
        # No milestones: [e0 e1], [e1 e0] -> 2.
        assert count_schemas([], {}, 2) == 2

    def test_chain_reduces_count(self):
        ms = [mk(c) for c in "abcd"]
        loose = count_schemas(ms, antichain_preds(ms), 2)
        tight = count_schemas(ms, chain_preds(ms), 2)
        assert tight < loose

    def test_matches_bruteforce_enumeration(self):
        """The DP equals a brute-force walk of the same tree."""
        ms = [mk("a"), mk("b"), mk("c")]
        preds = {ms[0]: frozenset(), ms[1]: frozenset({ms[0]}), ms[2]: frozenset()}
        n_events = 2

        def walk(flipped, placed):
            if len(placed) == n_events:
                return 1
            total = 0
            for item in iter_extensions(ms, preds, flipped, placed, n_events):
                if isinstance(item, EventItem):
                    total += walk(flipped, placed | {item.index})
                else:
                    total += walk(flipped | {item}, placed)
            return total

        assert walk(frozenset(), frozenset()) == count_schemas(ms, preds, n_events)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 5), events=st.integers(1, 2))
def test_antichain_count_grows_with_milestones(n, events):
    ms = [mk(f"m{i}") for i in range(n)]
    preds = antichain_preds(ms)
    smaller = count_schemas(ms[:-1], {m: frozenset() for m in ms[:-1]}, events)
    assert count_schemas(ms, preds, events) > smaller


class TestExtensionsOrder:
    def test_events_offered_first(self):
        ms = [mk("a")]
        items = list(
            iter_extensions(ms, antichain_preds(ms), frozenset(), frozenset(), 1)
        )
        assert isinstance(items[0], EventItem)
        assert items[1] == ms[0]

    def test_placed_events_not_reoffered(self):
        items = list(iter_extensions([], {}, frozenset(), frozenset({0}), 2))
        assert items == [EventItem(1)]
