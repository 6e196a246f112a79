"""Unit tests for the combined SystemModel."""

import pytest

from repro.core.coin import standard_coin_automaton
from repro.core.system import SystemModel
from repro.errors import ValidationError
from repro.protocols import mmr14, naive_voting


class TestValidation:
    def test_mmr14_model_valid(self):
        model = mmr14.model()
        model.process.check_multi_round_form()
        assert model.coin.is_canonical()

    def test_variable_space_mismatch_rejected(self):
        bad_coin = standard_coin_automaton(("other",), mmr14.COIN_VARS)
        with pytest.raises(ValidationError):
            SystemModel(
                name="bad",
                environment=mmr14.environment(),
                process=mmr14.automaton(),
                coin=bad_coin,
            )

    def test_unknown_category_rejected(self):
        with pytest.raises(ValidationError):
            SystemModel(
                name="bad",
                environment=naive_voting.model().environment,
                process=naive_voting.automaton(),
                category="D",
            )

    def test_unknown_crusader_location_rejected(self):
        with pytest.raises(ValidationError):
            SystemModel(
                name="bad",
                environment=mmr14.environment(),
                process=mmr14.automaton(),
                coin=standard_coin_automaton(mmr14.SHARED_VARS, mmr14.COIN_VARS),
                category="C",
                crusader_locations={"M0": "nowhere"},
            )

    def test_location_namespace_overlap_rejected(self):
        from repro.core.builder import AutomatonBuilder

        b = AutomatonBuilder("clash")
        b.shared(*mmr14.SHARED_VARS)
        b.coins(*mmr14.COIN_VARS)
        b.initial("J2")  # clashes with the coin automaton
        process = b.build(check=None)
        with pytest.raises(ValidationError):
            SystemModel(
                name="bad",
                environment=mmr14.environment(),
                process=process,
                coin=standard_coin_automaton(mmr14.SHARED_VARS, mmr14.COIN_VARS),
            )


class TestSizes:
    def test_mmr14_paper_size_matches_table2(self):
        # Table II row: MMR14 has |L| = 17, |R| = 29.
        assert mmr14.model().paper_size() == (17, 29)

    def test_combined_size_includes_coin(self):
        locs, rules = mmr14.model().size()
        assert locs == 19 + 6
        assert rules == 31 + 6

    def test_naive_voting_size(self):
        assert naive_voting.model().size() == (5, 4)


class TestTransformedViews:
    def test_single_round_model(self):
        rd = mmr14.model().single_round()
        rd.process.check_single_round_form()
        assert rd.coin is not None
        assert rd.category == "C"

    def test_as_single_round_cuts_only_multi_round_models(self):
        rd = mmr14.model().as_single_round()
        assert rd.name == "mmr14-rd"
        rd.process.check_single_round_form()
        assert rd.as_single_round() is rd
        model = naive_voting.model()
        assert model.as_single_round() is model

    def test_has_coin(self):
        assert mmr14.model().has_coin
        assert not naive_voting.model().has_coin

    def test_derandomized_view(self):
        np_model = mmr14.model().derandomized()
        assert np_model.coin is None
        assert np_model.coin_np is not None
        assert np_model.coin_np.role == "coin"
