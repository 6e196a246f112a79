"""Structural tests for all benchmark protocol models."""

import pytest

from repro.checker.milestones import CombinedModel, extract_milestones
from repro.core.locations import LocKind
from repro.protocols import aby22, benchmark, by_name, mmr14
from repro.protocols.registry import BENCHMARK


class TestRegistry:
    def test_eight_protocols_in_table_ii_order(self):
        names = [entry.name for entry in benchmark()]
        assert names == [
            "rabin83", "cc85a", "cc85b", "fmr05",
            "ks16", "mmr14", "miller18", "aby22",
        ]

    def test_by_name(self):
        assert by_name("mmr14").category == "C"
        with pytest.raises(KeyError):
            by_name("paxos")

    def test_category_split(self):
        categories = {entry.name: entry.category for entry in BENCHMARK}
        assert categories["rabin83"] == "A"
        assert all(
            categories[name] == "B" for name in ("cc85a", "cc85b", "fmr05", "ks16")
        )
        assert all(
            categories[name] == "C" for name in ("mmr14", "miller18", "aby22")
        )

    def test_only_mmr14_has_paper_counterexample(self):
        flagged = [e.name for e in BENCHMARK if e.paper_termination_ce]
        assert flagged == ["mmr14"]


@pytest.mark.parametrize("entry", BENCHMARK, ids=lambda e: e.name)
class TestEveryModel:
    def test_multi_round_form_valid(self, entry):
        model = entry.model()
        model.process.check_multi_round_form()
        assert model.coin.is_canonical()

    def test_small_valuation_admissible(self, entry):
        model = entry.model()
        assert model.environment.admits(entry.small_valuation)

    def test_single_round_transform_valid(self, entry):
        rd = entry.model().single_round()
        rd.process.check_single_round_form()

    def test_size_tracks_paper(self, entry):
        locs, rules = entry.model().paper_size()
        paper_locs, paper_rules = entry.paper_size
        # Remodelled automata stay within a modest margin of Table II
        # (the refined forms close most of the remaining gap).
        assert abs(locs - paper_locs) <= 6
        assert abs(rules - paper_rules) <= 16

    def test_category_c_has_refined_model(self, entry):
        if entry.category == "C":
            refined = entry.refined()
            for role in ("M0", "M1", "Mbot", "N0", "N1", "Nbot"):
                assert role in refined.crusader_locations
        else:
            assert entry.refined is None

    def test_coin_automaton_is_strong(self, entry):
        coin = entry.model().coin
        (toss,) = [rule for rule in coin.rules if not rule.is_dirac]
        assert all(p == pytest.approx(0.5) for _t, p in toss.branches)

    def test_decision_locations_match_category(self, entry):
        process = entry.model().process
        decisions = process.locations_of(kind=LocKind.FINAL, decision=True)
        if entry.category == "A":
            assert not decisions  # category A: no decide action
        else:
            assert {loc.name for loc in decisions} == {"D0", "D1"}


class TestMMR14Details:
    def test_rule_table_i_guards(self):
        """Spot-check Table I: thresholds of the named rules."""
        ta = mmr14.automaton()
        val = {"n": 4, "t": 1, "f": 1}
        # r7: b0 >= 2t+1-f = 2
        (guard,) = ta.rule("r7").guard
        assert guard.rhs.evaluate(val) == 2
        # r5 (relay): b1 >= t+1-f = 1
        (guard,) = ta.rule("r5").guard
        assert guard.rhs.evaluate(val) == 1
        # r15: a0 >= n-t-f = 2
        (guard,) = ta.rule("r15").guard
        assert guard.rhs.evaluate(val) == 2
        # r21: a0 + a1 >= n-t-f
        (guard,) = ta.rule("r21").guard
        assert guard.lhs == (("a0", 1), ("a1", 1))

    def test_updates_match_table_i(self):
        ta = mmr14.automaton()
        assert ta.rule("r3").update == (("b0", 1),)
        assert ta.rule("r5").update == (("b1", 1),)
        assert ta.rule("r7").update == (("a0", 1),)
        assert ta.rule("r13").update == ()

    def test_milestone_count(self):
        combined = CombinedModel(mmr14.model().single_round())
        assert len(extract_milestones(combined)) == 9

    def test_refined_milestone_count(self):
        combined = CombinedModel(mmr14.refined_model().single_round())
        assert len(extract_milestones(combined)) == 11


class TestABY22Variants:
    def test_variant_milestones_decrease_by_one(self):
        counts = []
        for level in range(5):
            combined = CombinedModel(aby22.variant(level).single_round())
            counts.append(len(extract_milestones(combined)))
        assert counts == sorted(counts, reverse=True)
        assert all(a - b == 1 for a, b in zip(counts, counts[1:]))

    def test_variant_sizes_identical(self):
        sizes = {aby22.variant(level).paper_size() for level in range(5)}
        assert len(sizes) == 1

    def test_invalid_merge_level_rejected(self):
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            aby22.automaton(5)
