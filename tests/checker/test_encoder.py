"""Tests for the schema-to-ILP encoder."""

import pytest

from repro.checker.encoder import SchemaEncoder
from repro.checker.milestones import CombinedModel, Milestone, extract_milestones
from repro.checker.parameterized import ParameterizedChecker
from repro.checker.schemas import EventItem
from repro.protocols import fmr05, mmr14, naive_voting
from repro.solver.floatlp import RowMatrix, float_feasible
from repro.solver.ilp import SAT, ilp_feasible
from repro.solver.linear import LinearProblem
from repro.spec.properties import PropertyLibrary


@pytest.fixture(scope="module")
def naive_setup():
    model = naive_voting.model()
    combined = CombinedModel(model)
    encoder = SchemaEncoder(combined)
    milestones = {str(m): m for m in extract_milestones(combined)}
    lib = PropertyLibrary(model)
    return model, encoder, milestones, lib


class TestEmptyPrefix:
    def test_root_is_feasible(self, naive_setup):
        _model, encoder, _ms, lib = naive_setup
        encoded = encoder.encode([], lib.inv1(0))
        result = ilp_feasible(encoded.rows)
        assert result.status == SAT
        # The model must respect the resilience condition n > 2f.
        assert result.model["n"] > 2 * result.model.get("f", 0)

    def test_population_constraint(self, naive_setup):
        _model, encoder, _ms, lib = naive_setup
        encoded = encoder.encode([], lib.inv1(0))
        result = ilp_feasible(encoded.rows)
        k0 = sum(
            result.model.get(var, 0) for var in encoded.start_vars.values()
        )
        assert k0 == result.model["n"] - result.model.get("f", 0)


class TestEventEncoding:
    def test_event_at_initial_boundary_infeasible(self, naive_setup):
        """EX{D0} cannot hold before anything executed."""
        _model, encoder, _ms, lib = naive_setup
        encoded = encoder.encode([EventItem(0)], lib.inv1(0))
        assert float_feasible(RowMatrix(encoded.rows)) is False

    def test_event_after_milestone_feasible(self, naive_setup):
        _model, encoder, milestones, lib = naive_setup
        m0 = milestones["[2*v0 reaches -2*f + n + 1]"]
        encoded = encoder.encode([m0, EventItem(0)], lib.inv1(0))
        result = ilp_feasible(encoded.rows)
        assert result.status == SAT

    def test_init_filter_pins_start(self, naive_setup):
        _model, encoder, milestones, lib = naive_setup
        query = lib.inv2(0)  # all processes start with 0
        m1 = milestones["[2*v1 reaches -2*f + n + 1]"]
        # With nobody starting at I1 the v1 threshold can never fire.
        encoded = encoder.encode([m1], query)
        assert float_feasible(RowMatrix(encoded.rows)) is False


class TestScheduleExtraction:
    def test_extract_round_trips(self, naive_setup):
        model, encoder, milestones, lib = naive_setup
        query = lib.inv1(0)
        m0 = milestones["[2*v0 reaches -2*f + n + 1]"]
        m1 = milestones["[2*v1 reaches -2*f + n + 1]"]
        prefix = [m0, m1, EventItem(0), EventItem(1)]
        encoded = encoder.encode(prefix, query)
        result = ilp_feasible(encoded.rows)
        assert result.status == SAT
        valuation, placement, schedule = encoder.extract(encoded, result.model)
        from repro.counter.schedule import Schedule, is_applicable
        from repro.counter.system import CounterSystem

        system = CounterSystem(model, valuation)
        config = system.make_config(placement)
        assert is_applicable(system, config, Schedule(schedule))


class TestCoinBranchEncoding:
    def test_branch_actions_decoded(self):
        model = mmr14.model().single_round()
        combined = CombinedModel(model)
        encoder = SchemaEncoder(combined)
        info = combined.branch_info["rb@T1"]
        assert (info.original_rule, info.branch) == ("rb", "T1")

    def test_set_relaxation_weaker_than_prefix(self):
        """An infeasible set-relaxation implies every ordering fails."""
        model = mmr14.model().single_round()
        combined = CombinedModel(model)
        encoder = SchemaEncoder(combined)
        milestones = {str(m): m for m in extract_milestones(combined)}
        # Both coin outcomes in one round: impossible (one coin process).
        both_coins = frozenset(
            {milestones["[cc0 reaches 1]"], milestones["[cc1 reaches 1]"]}
        )
        rows = encoder.encode_set_relaxation(both_coins)
        assert float_feasible(RowMatrix(rows)) is False
        # A single outcome is fine.
        one_coin = frozenset({milestones["[cc0 reaches 1]"]})
        rows = encoder.encode_set_relaxation(one_coin)
        assert float_feasible(RowMatrix(rows)) is True


def _dfs_encodings(checker, query):
    """Run the DFS, recording every ``encode`` call it makes."""
    calls = []
    original = checker.encoder.encode

    def spy(prefix, query, parent=None):
        encoded = original(prefix, query, parent)
        calls.append((list(prefix), parent, encoded))
        return encoded

    checker.encoder.encode = spy
    try:
        checker.check_reach(query)
    finally:
        del checker.encoder.encode
    return calls


def _reference_problem(rows):
    """The rows rebuilt through the ``LinearProblem.ge``/``eq`` API."""
    problem = LinearProblem()
    for coeffs, const, is_eq in rows:
        (problem.eq if is_eq else problem.ge)(dict(coeffs), const)
    return problem


class TestIncrementalEncoding:
    """Encoding on top of the parent prefix equals encoding from scratch."""

    @pytest.mark.parametrize(
        "factory, builder, value",
        [(naive_voting.model, "inv1", 0), (fmr05.model, "inv2", 0)],
        ids=["naive_voting-inv1[0]", "fmr05-inv2[0]"],
    )
    def test_every_dfs_prefix(self, factory, builder, value):
        model = factory()
        checker = ParameterizedChecker(model)
        query = getattr(PropertyLibrary(model), builder)(value)
        calls = _dfs_encodings(checker, query)
        assert sum(parent is not None for _p, parent, _e in calls) > 0
        for prefix, _parent, encoded in calls:
            scratch = checker.encoder.encode(prefix, query)
            assert encoded.rows == scratch.rows
            assert encoded.blocks == scratch.blocks
            assert encoded.start_vars == scratch.start_vars
            assert (encoded.kappa, encoded.g) == (scratch.kappa, scratch.g)
            assert encoded.positions == scratch.positions
            assert encoded.rows == _reference_problem(encoded.rows)

    def test_child_extends_its_parent_without_changing_it(self, naive_setup):
        _model, encoder, milestones, lib = naive_setup
        m0 = milestones["[2*v0 reaches -2*f + n + 1]"]
        query = lib.inv1(0)
        parent = encoder.encode([m0], query)
        before = list(parent.rows)
        child = encoder.encode([m0, EventItem(0)], query, parent)
        assert parent.rows == before
        assert child.rows[: len(before)] == before
        assert len(child.rows) > len(before)

    def test_rows_are_integer_and_canonical(self, naive_setup):
        _model, encoder, milestones, lib = naive_setup
        m0 = milestones["[2*v0 reaches -2*f + n + 1]"]
        encoded = encoder.encode([m0, EventItem(0)], lib.inv1(0))
        for coeffs, const, is_eq in encoded.rows:
            assert type(const) is int and type(is_eq) is bool
            assert all(type(c) is int and c for _name, c in coeffs)
            assert list(coeffs) == sorted(coeffs)
