"""Engine adapters: golden equivalence, limits, and custom queries."""

import gc
import json
from pathlib import Path

import pytest

from repro import api
from repro.api import engines as engines_module
from repro.counter.system import clear_shared_caches
from repro.errors import CheckError
from repro.protocols import cc85, mmr14

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "checker" / "data" / "seed_verdicts.json")
    .read_text()
)

#: Protocols whose full bundles are cheap enough for tier-1 (the slow
#: trio is covered by the gated sweep test in test_sweep.py).
FAST_PROTOCOLS = ("cc85a", "cc85b", "fmr05", "ks16", "aby22")


def stable_projection(outcome: api.ObligationOutcome) -> dict:
    return {
        "queries": [
            [q.query, q.verdict, q.states_explored] for q in outcome.queries
        ],
        "sides": dict(outcome.side_conditions),
    }


class TestExplicitEngine:
    @pytest.mark.parametrize("name", FAST_PROTOCOLS)
    def test_matches_seed_verdicts(self, name):
        result = api.verify(name, limits=api.Limits(max_states=150_000))
        assert result.engine == "explicit"
        for outcome in result.obligations:
            assert stable_projection(outcome) == GOLDEN[name][outcome.target]

    def test_state_budget_reports_limit(self):
        result = api.verify("cc85b", target="agreement",
                            limits=api.Limits(max_states=100))
        outcome = result.outcome("agreement")
        assert outcome.verdict == "unknown"
        assert outcome.limit_tripped == "max_states"

    def test_wall_clock_reports_limit(self):
        # A deadline already in the past trips at the first periodic
        # check; cc85b agreement explores far more than the check stride.
        result = api.verify("cc85b", target="agreement",
                            limits=api.Limits(max_seconds=0.0))
        outcome = result.outcome("agreement")
        assert outcome.verdict == "unknown"
        assert outcome.limit_tripped == "max_seconds"

    def test_wall_clock_covers_side_conditions(self):
        # Once the bundle deadline expires, side conditions are skipped
        # (distinguishable from genuine failure) instead of launching
        # more exploration; the verdict degrades to unknown.
        result = api.verify("cc85b", target="agreement",
                            limits=api.Limits(max_seconds=0.0))
        outcome = result.outcome("agreement")
        assert outcome.side_conditions == {}
        assert outcome.skipped_side_conditions == {
            "non_blocking": "max_seconds",
            "fair_termination": "max_seconds",
        }
        assert outcome.verdict == "unknown"
        assert "max_seconds" in outcome.limits_tripped

    def test_state_budget_covers_side_conditions(self):
        # An overflowing max_states must not report a side condition as
        # established — the incomplete search is recorded as skipped.
        result = api.verify("cc85a", target="validity",
                            limits=api.Limits(max_states=10))
        outcome = result.outcome("validity")
        assert outcome.skipped_side_conditions == {
            "non_blocking": "max_states",
            "fair_termination": "max_states",
        }
        assert outcome.verdict == "unknown"

    def test_custom_query_on_custom_model(self):
        from repro.spec.properties import PropertyLibrary

        model = mmr14.refined_model()
        result = api.verify(
            model=model,
            valuation={"n": 4, "t": 1, "f": 1},
            queries=(PropertyLibrary(model).cb(2),),
        )
        (query,) = result.queries
        assert query.verdict == "violated"
        assert query.counterexample is not None
        assert result.outcome("custom").verdict == "violated"

    def test_custom_model_needs_valuation(self):
        with pytest.raises(CheckError):
            api.verify(model=cc85.model_a(), target="validity")


class TestCollectorPause:
    """ExplicitEngine.run pauses the cyclic collector and puts it back."""

    def test_collector_is_off_inside_and_back_on_after(self, monkeypatch):
        seen = []
        original = engines_module.obligations_for

        def spy(model, target):
            seen.append(gc.isenabled())
            return original(model, target)

        monkeypatch.setattr(engines_module, "obligations_for", spy)
        assert gc.isenabled()
        api.verify("cc85a", target="validity")
        assert seen == [False]
        assert gc.isenabled()

    def test_collector_is_back_on_after_a_raise(self, monkeypatch):
        def boom(model, target):
            raise RuntimeError("injected")

        monkeypatch.setattr(engines_module, "obligations_for", boom)
        with pytest.raises(RuntimeError, match="injected"):
            api.verify("cc85a", target="validity")
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            api.verify("cc85a", target="validity")
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_an_explicit_task_leaves_no_cyclic_garbage(self):
        api.verify("cc85a")  # warm-up: lazy imports and first calls
        clear_shared_caches()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            api.verify("cc85a")
            # Dropping the task's graphs must not leave garbage either.
            clear_shared_caches()
            gc.collect()
            garbage = [type(obj).__name__ for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == []


class TestParameterizedEngine:
    def test_safety_holds_parametrically(self):
        result = api.verify("cc85a", targets=("validity",),
                            engine="parameterized")
        outcome = result.outcome("validity")
        assert outcome.verdict == "holds"
        assert outcome.nschemas > 0
        assert result.valuation == {}  # quantifies over all valuations

    def test_game_queries_reported_unknown(self):
        # Category B termination is all E-queries: explicit-only.
        result = api.verify("cc85a", target="termination",
                            engine="parameterized")
        outcome = result.outcome("termination")
        assert outcome.verdict == "unknown"
        assert all(q.verdict == "unknown" for q in outcome.queries)
        assert all("explicit engine" in q.detail for q in outcome.queries)

    def test_node_budget_reports_limit(self):
        result = api.verify("cc85a", targets=("agreement",),
                            engine="parameterized",
                            limits=api.Limits(max_nodes=10))
        outcome = result.outcome("agreement")
        assert outcome.verdict == "unknown"
        assert outcome.limit_tripped == "max_nodes"

    def test_wall_clock_reports_limit(self):
        # cc85a's inv1 DFS needs ~27k nodes, far beyond the wall-clock
        # check stride, so a zero budget trips deterministically.
        result = api.verify("cc85a", targets=("agreement",),
                            engine="parameterized",
                            limits=api.Limits(max_seconds=0.0))
        outcome = result.outcome("agreement")
        assert outcome.verdict == "unknown"
        assert outcome.limit_tripped == "max_seconds"

    def test_parameterized_witness_replayed(self):
        from repro.spec.properties import PropertyLibrary

        model = mmr14.refined_model()
        result = api.verify(model=model, engine="parameterized",
                            queries=(PropertyLibrary(model).cb(2),))
        (query,) = result.queries
        assert query.verdict == "violated"
        valuation = query.counterexample.valuation
        assert valuation["n"] > valuation["t"]


class TestEngineRegistry:
    def test_builtins_registered(self):
        assert api.engine_names() == ("explicit", "parameterized")

    def test_unknown_engine_rejected(self):
        with pytest.raises(CheckError):
            api.engine_for("quantum")


class TestTaskShape:
    def test_task_requires_exactly_one_source(self):
        with pytest.raises(CheckError):
            api.VerificationTask()
        with pytest.raises(CheckError):
            api.VerificationTask(protocol="mmr14", model=mmr14.model)

    def test_unknown_target_rejected(self):
        with pytest.raises(CheckError):
            api.VerificationTask(protocol="mmr14", targets=("liveness",))

    def test_defaults_to_all_targets(self):
        task = api.VerificationTask(protocol="mmr14")
        assert task.targets == api.TARGETS

    def test_task_id_is_deterministic(self):
        a = api.VerificationTask(protocol="mmr14", targets=("validity",))
        b = api.VerificationTask(protocol="mmr14", targets=("validity",))
        assert a.task_id == b.task_id == "mmr14[f=1,n=4,t=1]/validity@explicit"

    def test_termination_uses_refined_model(self):
        task = api.VerificationTask(protocol="mmr14")
        assert task.model_for_target("termination").name != \
            task.model_for_target("agreement").name
