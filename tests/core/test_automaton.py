"""Unit tests for threshold automata: structure, validation, canonicity."""

import pytest

from repro.core.automaton import ThresholdAutomaton, strongly_connected_components
from repro.core.builder import AutomatonBuilder
from repro.core.guards import Var
from repro.core.locations import LocKind, border, final, initial, intermediate
from repro.core.rules import Rule, make_update
from repro.errors import ValidationError
from repro.protocols import mmr14, naive_voting


class TestSCC:
    def test_chain_has_singleton_components(self):
        comp = strongly_connected_components("abc", [("a", "b"), ("b", "c")])
        assert len({comp["a"], comp["b"], comp["c"]}) == 3

    def test_cycle_is_one_component(self):
        comp = strongly_connected_components(
            "abc", [("a", "b"), ("b", "c"), ("c", "a")]
        )
        assert comp["a"] == comp["b"] == comp["c"]

    def test_two_components(self):
        comp = strongly_connected_components(
            "abcd", [("a", "b"), ("b", "a"), ("c", "d")]
        )
        assert comp["a"] == comp["b"]
        assert comp["c"] != comp["d"]


class TestBasicValidation:
    def _base(self, rules, coin_vars=("cc0",), role="process"):
        return ThresholdAutomaton(
            "t",
            [initial("A"), final("B")],
            ["x"],
            list(coin_vars),
            rules,
            role=role,
        )

    def test_unknown_location_rejected(self):
        with pytest.raises(ValidationError):
            self._base([Rule("r", "A", "Z")])

    def test_undeclared_guard_variable_rejected(self):
        with pytest.raises(ValidationError):
            self._base([Rule("r", "A", "B", guard=(Var("nope") >= 1,))])

    def test_mixed_guard_rejected(self):
        guard = (Var("x") + Var("cc0") >= 1,)
        with pytest.raises(ValidationError):
            self._base([Rule("r", "A", "B", guard=guard)])

    def test_process_rule_updating_coin_rejected(self):
        with pytest.raises(ValidationError):
            self._base([Rule("r", "A", "B", update=make_update({"cc0": 1}))])

    def test_coin_role_rule_updating_shared_rejected(self):
        with pytest.raises(ValidationError):
            self._base(
                [Rule("r", "A", "B", update=make_update({"x": 1}))], role="coin"
            )

    def test_coin_role_coin_guard_rejected(self):
        with pytest.raises(ValidationError):
            self._base(
                [Rule("r", "A", "B", guard=(Var("cc0") >= 1,))], role="coin"
            )

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValidationError):
            self._base([Rule("r", "A", "B"), Rule("r", "A", "B")])

    def test_duplicate_locations_rejected(self):
        with pytest.raises(ValidationError):
            ThresholdAutomaton("t", [initial("A"), initial("A")], ["x"], [], [])

    def test_unknown_role_rejected(self):
        with pytest.raises(ValidationError):
            ThresholdAutomaton("t", [initial("A")], [], [], [], role="oracle")


class TestQueries:
    def test_mmr14_partitions(self):
        ta = mmr14.automaton()
        assert {l.name for l in ta.border_locations} == {"J0", "J1"}
        assert {l.name for l in ta.initial_locations} == {"I0", "I1"}
        assert {l.name for l in ta.final_locations} == {"E0", "E1", "D0", "D1"}
        decisions = ta.locations_of(kind=LocKind.FINAL, decision=True)
        assert {l.name for l in decisions} == {"D0", "D1"}
        decide0 = ta.locations_of(kind=LocKind.FINAL, value=0, decision=True)
        assert {l.name for l in decide0} == {"D0"}

    def test_mmr14_round_switches(self):
        ta = mmr14.automaton()
        switches = {(r.source, r.target) for r in ta.round_switch_rules}
        assert switches == {("E0", "J0"), ("E1", "J1"), ("D0", "J0"), ("D1", "J1")}

    def test_mmr14_border_entries(self):
        ta = mmr14.automaton()
        entries = {(r.source, r.target) for r in ta.border_entry_rules}
        assert entries == {("J0", "I0"), ("J1", "I1")}

    def test_mmr14_coin_based_rules(self):
        ta = mmr14.automaton()
        coins = set(ta.coin_vars)
        coin_rules = {
            r.name for r in ta.rules
            if r.guard and r.guard_variables() <= coins
        }
        assert coin_rules == {"r22", "r23", "r24", "r25", "r26", "r27"}

    def test_mmr14_guard_atoms_deduplicated(self):
        ta = mmr14.automaton()
        atoms = ta.guard_atoms()
        # relay0, relay1, bin0, bin1, aux0, aux1, aux_any, coin0, coin1
        assert len(atoms) == 9

    def test_rules_from_to(self):
        ta = naive_voting.automaton()
        assert {r.name for r in ta.rules_from("S")} == {"r3", "r4"}
        assert {r.name for r in ta.rules_to("S")} == {"r1", "r2"}

    def test_size(self):
        assert naive_voting.automaton().size() == (5, 4)


class TestCanonicity:
    def test_mmr14_is_canonical(self):
        assert mmr14.automaton().is_canonical()

    def test_update_on_in_round_cycle_rejected(self):
        b = AutomatonBuilder("bad")
        b.shared("x")
        b.initial("A")
        b.location("B")
        b.rule("r1", "A", "B", update={"x": 1})
        b.rule("r2", "B", "A")
        with pytest.raises(ValidationError):
            b.build(check="canonical")

    def test_self_loop_with_update_rejected(self):
        b = AutomatonBuilder("bad")
        b.shared("x")
        b.initial("A")
        b.rule("r1", "A", "A", update={"x": 1})
        with pytest.raises(ValidationError):
            b.build(check="canonical")

    def test_round_switch_cycle_is_benign(self):
        # The multi-round loop through round switches must not count.
        assert mmr14.automaton().is_canonical()


class TestMultiRoundForm:
    def test_mmr14_passes(self):
        mmr14.automaton().check_multi_round_form()

    def test_missing_initial_partner_rejected(self):
        b = AutomatonBuilder("bad")
        b.border("J0", value=0)
        b.final("E0", value=0)
        b.round_switch("E0", "J0")
        # Border with no outgoing border-entry rule.
        with pytest.raises(ValidationError):
            b.build(check="multi_round")

    def test_guarded_round_switch_rejected(self):
        b = AutomatonBuilder("bad")
        b.shared("x")
        b.border("J0", value=0)
        b.initial("I0", value=0)
        b.final("E0", value=0)
        b.border_entry("J0", "I0")
        b.rule("rx", "I0", "E0")
        b.rule("rs", "E0", "J0", guard=Var("x") >= 1)
        with pytest.raises(ValidationError):
            b.build(check="multi_round")

    def test_value_crossing_round_switch_rejected(self):
        b = AutomatonBuilder("bad")
        b.border("J0", value=0)
        b.border("J1", value=1)
        b.initial("I0", value=0)
        b.initial("I1", value=1)
        b.final("E0", value=0)
        b.final("E1", value=1)
        b.border_entry("J0", "I0")
        b.border_entry("J1", "I1")
        b.rule("r1", "I0", "E0")
        b.rule("r2", "I1", "E1")
        b.round_switch("E0", "J1")  # crosses values
        b.round_switch("E1", "J0")
        with pytest.raises(ValidationError):
            b.build(check="multi_round")
