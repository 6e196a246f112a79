"""Tests for the property library (Table III formulas and location sets)."""

import pytest

from repro.errors import CheckError
from repro.protocols import mmr14, naive_voting
from repro.spec.obligations import (
    agreement_obligations,
    obligations_for,
    termination_obligations,
    validity_obligations,
)
from repro.spec.properties import PropertyLibrary


@pytest.fixture(scope="module")
def lib():
    return PropertyLibrary(mmr14.model())


@pytest.fixture(scope="module")
def refined_lib():
    return PropertyLibrary(mmr14.refined_model())


class TestLocationSets:
    def test_partitions(self, lib):
        assert lib._initial[0] == ("I0",)
        assert set(lib._final[1]) == {"E1", "D1"}
        assert lib._decision[0] == ("D0",)
        assert lib.estimate_locs(0) == ("E0",)

    def test_undecided_finals(self, lib):
        assert set(lib.undecided_finals(0)) == {"E0", "E1", "D1"}

    def test_start_filter(self, lib):
        assert lib.all_start_with(0) == {"J1": 0}
        assert lib.all_start_with(1) == {"J0": 0}

    def test_start_filter_without_borders(self):
        lib = PropertyLibrary(naive_voting.model())
        assert lib.all_start_with(0) == {"I1": 0}

    def test_crusader_roles(self, refined_lib):
        assert refined_lib.crusader("M0") == "M0"
        assert refined_lib.crusader("Nbot") == "Nbot"

    def test_missing_crusader_role_raises(self, lib):
        with pytest.raises(CheckError):
            lib.crusader("N0")


class TestTableIIIFormulas:
    def test_inv1(self, lib):
        query = lib.inv1(0)
        assert query.formula == "A F (EX{D0}) → G (¬EX{E1, D1})"
        assert len(query.events) == 2

    def test_inv2(self, lib):
        query = lib.inv2(0)
        assert query.formula == "A ALL{I0} → G (¬EX{E1, D1})"
        assert query.init_filter == {"J1": 0}
        assert len(query.events) == 1

    def test_c1(self, lib):
        query = lib.c1()
        assert query.formula == "A F (EX{E0, D0}) → G (¬EX{E1, D1})"

    def test_c2_shares_inv2_formula(self, lib):
        assert lib.c2(0).formula == lib.inv2(0).formula

    def test_c2prime(self, lib):
        query = lib.c2prime(0)
        assert "ALL{I0}" in query.formula
        assert set(query.events[0].locations) == {"E0", "E1", "D1"}

    def test_cb0(self, refined_lib):
        query = refined_lib.cb(0)
        assert query.formula == "A F (EX{M0}) → G (¬EX{M1})"

    def test_cb2_uses_refinement_location(self, refined_lib):
        query = refined_lib.cb(2)
        assert query.formula == "A F (EX{N0}) → G (¬EX{M1})"

    def test_cb4_excludes_both(self, refined_lib):
        query = refined_lib.cb(4)
        assert set(query.events[1].locations) == {"M0", "M1"}

    def test_unknown_cb_rejected(self, refined_lib):
        with pytest.raises(CheckError):
            refined_lib.cb(5)


class TestObligations:
    def test_agreement_bundle(self):
        bundle = agreement_obligations(mmr14.model())
        assert len(bundle.reach_queries) == 2
        assert bundle.target == "agreement"

    def test_validity_bundle(self):
        bundle = validity_obligations(mmr14.model())
        assert {q.name for q in bundle.reach_queries} == {"inv2[0]", "inv2[1]"}

    def test_category_c_termination_bundle(self):
        bundle = termination_obligations(mmr14.refined_model())
        assert len(bundle.reach_queries) == 5  # CB0..CB4
        assert len(bundle.game_queries) == 2   # C2'[0], C2'[1]

    def test_category_missing_raises(self):
        with pytest.raises(CheckError):
            termination_obligations(naive_voting.model())

    def test_dispatch(self):
        bundle = obligations_for(mmr14.model(), "validity")
        assert bundle.target == "validity"
        with pytest.raises(CheckError):
            obligations_for(mmr14.model(), "liveness")
