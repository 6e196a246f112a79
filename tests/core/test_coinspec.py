"""The CoinSpec hierarchy: parsing, identity, automaton shapes.

The contract every other layer leans on:

* the spec grammar and the JSON form both round-trip exactly;
* :class:`PerfectCoin` is *the* default — the spec-built standard coin
  automaton equals the historical spec-less one, dataclass-for-
  dataclass, so coin-free behaviour is bit-identical everywhere;
* the extra-outcome specs grow the Fig. 4(b) lozenge by exactly one
  publish path (nothing for a failed round, the secondary pair for a
  split round) and stay canonical;
* :meth:`DisagreeingCoin.adapt_process` twins exactly the coin-guarded
  rules, appended after the originals.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.coin import standard_coin_automaton
from repro.core.coinspec import (
    SPLIT_RULE_SUFFIX,
    BiasedCoin,
    CoinSpec,
    DeltaFailingCoin,
    DisagreeingCoin,
    PerfectCoin,
    coin_spec_from_dict,
    parse_coin_spec,
    resolve_coin_spec,
    split_coin_vars,
)
from repro.errors import ValidationError
from repro.protocols import mmr14

SPECS = (
    PerfectCoin(),
    BiasedCoin(Fraction(1, 4)),
    DeltaFailingCoin(Fraction(1, 8)),
    DisagreeingCoin(Fraction(1, 8)),
)


class TestGrammar:
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_spec_str_round_trips(self, spec):
        assert parse_coin_spec(spec.spec_str()) == spec

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_dict_round_trips(self, spec):
        assert coin_spec_from_dict(spec.to_dict()) == spec

    def test_decimal_and_fraction_both_parse(self):
        assert parse_coin_spec("biased:0.25") == parse_coin_spec("biased:1/4")

    @pytest.mark.parametrize("text", (
        "weighted:1/4",      # unknown kind
        "biased",            # missing parameter
        "biased:",           # empty parameter
        "biased:x",          # unparseable probability
        "perfect:1/2",       # perfect takes no parameter
        "biased:0",          # out of range
        "biased:1",
        "failing:0",
        "disagreeing:5/4",
    ))
    def test_bad_specs_rejected(self, text):
        with pytest.raises(ValidationError):
            parse_coin_spec(text)

    def test_unknown_kind_error_lists_known_kinds(self):
        with pytest.raises(ValidationError, match="biased"):
            parse_coin_spec("weighted:1/4")

    def test_resolve_accepts_all_forms(self):
        spec = BiasedCoin(Fraction(1, 4))
        assert resolve_coin_spec(None) == PerfectCoin()
        assert resolve_coin_spec("biased:1/4") == spec
        assert resolve_coin_spec(spec) is spec
        assert resolve_coin_spec({"kind": "biased", "p1": "1/4"}) == spec
        with pytest.raises(ValidationError):
            resolve_coin_spec(0.25)

    def test_only_perfect_is_default(self):
        defaults = [spec for spec in SPECS if spec.is_default]
        assert defaults == [PerfectCoin()]


class TestLotteries:
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_probabilities_sum_to_one(self, spec):
        assert sum(spec.toss_probabilities()) == 1

    def test_exact_fractions(self):
        assert PerfectCoin().toss_probabilities() == (
            Fraction(1, 2), Fraction(1, 2), Fraction(0))
        assert BiasedCoin(Fraction(1, 4)).toss_probabilities() == (
            Fraction(3, 4), Fraction(1, 4), Fraction(0))
        assert DeltaFailingCoin(Fraction(1, 8)).toss_probabilities() == (
            Fraction(7, 16), Fraction(7, 16), Fraction(1, 8))
        assert DisagreeingCoin(Fraction(1, 8)).toss_probabilities() == (
            Fraction(7, 16), Fraction(7, 16), Fraction(1, 8))

    def test_split_coin_vars_conventional_and_custom(self):
        assert split_coin_vars(("cc0", "cc1")) == ("cd0", "cd1")
        assert split_coin_vars(("heads", "tails")) == ("headsd", "tailsd")


class TestStandardCoinAutomaton:
    SHARED = ("v0", "v1")

    def test_perfect_spec_equals_specless_default(self):
        plain = standard_coin_automaton(self.SHARED, prefix="x")
        spec = standard_coin_automaton(self.SHARED, prefix="x",
                                       spec=PerfectCoin())
        assert plain.locations == spec.locations
        assert plain.rules == spec.rules
        assert plain.coin_vars == spec.coin_vars

    def test_biased_keeps_shape_changes_lottery(self):
        automaton = standard_coin_automaton(
            self.SHARED, prefix="x", spec=BiasedCoin(Fraction(1, 4)))
        assert len(automaton.locations) == 6
        toss = automaton.rule("rb")
        assert dict(toss.branches) == {"T0": Fraction(3, 4),
                                       "T1": Fraction(1, 4)}
        assert automaton.coin_vars == ("cc0", "cc1")

    def test_failing_adds_silent_branch(self):
        automaton = standard_coin_automaton(
            self.SHARED, prefix="x", spec=DeltaFailingCoin(Fraction(1, 8)))
        assert {loc.name for loc in automaton.locations} >= {"Tbot", "Cbot"}
        assert dict(automaton.rule("rb").branches)["Tbot"] == Fraction(1, 8)
        # The failed round publishes no coin value at all.
        assert automaton.rule("rg").updated_variables() == set()
        assert automaton.coin_vars == ("cc0", "cc1")
        assert automaton.is_canonical()

    def test_disagreeing_publishes_secondary_pair(self):
        automaton = standard_coin_automaton(
            self.SHARED, prefix="x", spec=DisagreeingCoin(Fraction(1, 8)))
        assert {loc.name for loc in automaton.locations} >= {"TS", "CS"}
        assert automaton.coin_vars == ("cc0", "cc1", "cd0", "cd1")
        # A split round publishes *both* secondary variables.
        assert automaton.rule("rg").updated_variables() == {"cd0", "cd1"}
        assert automaton.is_canonical()


class TestAdaptProcess:
    def test_identity_for_single_valued_specs(self):
        process = mmr14.automaton()
        for spec in (PerfectCoin(), BiasedCoin(Fraction(1, 4)),
                     DeltaFailingCoin(Fraction(1, 8))):
            assert spec.adapt_process(process) is process

    def test_disagreeing_twins_exactly_the_coin_guarded_rules(self):
        process = mmr14.automaton()
        adapted = DisagreeingCoin(Fraction(1, 8)).adapt_process(process)
        base = set(process.coin_vars)
        originals = [r for r in process.rules]
        twins = [r for r in adapted.rules
                 if r.name.endswith(SPLIT_RULE_SUFFIX)]
        coin_guarded = [r for r in originals
                        if r.guard_variables() & base]
        assert coin_guarded, "mmr14 has coin-guarded rules"
        assert len(twins) == len(coin_guarded)
        # Original rules stay an untouched prefix; twins append after.
        assert adapted.rules[:len(originals)] == tuple(originals)
        mapping = dict(zip(process.coin_vars,
                           split_coin_vars(tuple(process.coin_vars))))
        for twin in twins:
            original = process.rule(twin.name[:-len(SPLIT_RULE_SUFFIX)])
            assert twin.source == original.source
            assert twin.target == original.target
            assert twin.update == original.update
            # Guards read the secondary pair instead of the primary.
            assert twin.guard_variables() & set(mapping.values())
            assert not twin.guard_variables() & base

    def test_adapted_coin_vars_match_coin_automaton(self):
        spec = DisagreeingCoin(Fraction(1, 8))
        model = mmr14.model(coin=spec)
        assert model.process.coin_vars == model.coin.coin_vars


class TestAbstractBase:
    def test_base_spec_is_abstract(self):
        spec = CoinSpec()
        for method in (spec.spec_str, spec.to_dict,
                       spec.toss_probabilities):
            with pytest.raises(NotImplementedError):
                method()


# ----------------------------------------------------------------------
# Property round trips over generated probabilities
# ----------------------------------------------------------------------
#: Probabilities strictly inside (0, 1).
_OPEN_UNIT = st.integers(2, 10_000).flatmap(
    lambda den: st.integers(1, den - 1).map(lambda num: Fraction(num, den))
)
_PARAMETERIZED = (BiasedCoin, DeltaFailingCoin, DisagreeingCoin)
_SPECS = st.one_of(
    st.just(PerfectCoin()),
    st.builds(lambda cls, p: cls(p), st.sampled_from(_PARAMETERIZED),
              _OPEN_UNIT),
)


class TestRoundTripProperties:
    @given(_SPECS)
    def test_spec_grammar_round_trips(self, spec):
        assert parse_coin_spec(spec.spec_str()) == spec

    @given(_SPECS)
    def test_json_form_round_trips(self, spec):
        assert coin_spec_from_dict(spec.to_dict()) == spec

    @given(st.sampled_from(_PARAMETERIZED), st.integers(1, 6), st.data())
    def test_decimal_and_fraction_spellings_agree(self, cls, digits, data):
        scale = 10 ** digits
        numerator = data.draw(st.integers(1, scale - 1))
        value = Fraction(numerator, scale)
        decimal = "0." + str(numerator).zfill(digits)
        fraction = f"{value.numerator}/{value.denominator}"
        assert parse_coin_spec(f"{cls.kind}:{decimal}") == \
            parse_coin_spec(f"{cls.kind}:{fraction}") == cls(value)
