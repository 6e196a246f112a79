"""The 0<->1 value swap of the parameterized checker, and its reuse.

:func:`~repro.checker.parameterized.value_swap` derives one permutation
of locations and variables that exchanges the values 0 and 1, and
keeps it only if it maps the combined single-round model onto itself.
``check_obligations`` then decides each mirrored query pair with one
DFS, reusing a ``holds``.  These tests pin three things:

* the swap is found on every registry model (both coins, all three
  targets) and maps each query onto its mate;
* a broken symmetry, or a first query that is not ``holds``, makes
  every query run its own DFS;
* the reuse changes no report field apart from ``time_seconds``: the
  reports with the swap and with the swap refused are compared on the
  registry bundles and on the fuzz models of ``test_differential.py``.
"""

import logging
from dataclasses import replace

import pytest

import repro.checker.parameterized as parameterized
from repro import api
from repro.checker.parameterized import (
    ParameterizedChecker,
    query_image,
    value_swap,
)
from repro.checker.result import HOLDS, VIOLATED
from repro.core.expression import params
from repro.core.guards import Var
from repro.protocols import cc85, naive_voting
from repro.protocols.common import voting_model
from repro.protocols.registry import BENCHMARK
from repro.spec.obligations import obligations_for
from tests.checker.test_differential import (
    LIMITS as FUZZ_LIMITS,
    SEEDS as FUZZ_SEEDS,
    TARGETS as FUZZ_TARGETS,
    random_model,
)

PROTOCOLS = tuple(entry.name for entry in BENCHMARK)
TARGETS = ("agreement", "validity", "termination")

#: query -> its mirror, per target (termination: only where defined)
MATES = {
    "agreement": {"inv1[0]": "inv1[1]"},
    "validity": {"inv2[0]": "inv2[1]"},
    "termination": {"c2[0]": "c2[1]", "cb0": "cb1", "cb2": "cb3"},
}


def _model(entry, target, coin=None):
    if target == "termination":
        return entry.verification_model(coin)
    return entry.build_model(coin)


class TestSwapFound:
    @pytest.mark.parametrize("coin", [None, "biased:1/4"])
    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("entry", BENCHMARK, ids=PROTOCOLS)
    def test_every_mirrored_pair_maps_onto_its_mate(self, entry, target, coin):
        checker = ParameterizedChecker(_model(entry, target, coin))
        assert checker.swap is not None, f"{entry.name}/{target}: no swap"
        assert checker.swap["J0"] == "J1"
        queries = {
            q.name: q
            for q in obligations_for(checker.model, target).reach_queries
        }
        pairs = [(a, b) for a, b in MATES[target].items() if a in queries]
        # Category B termination has game queries only.
        assert pairs or not queries, f"{entry.name}/{target}: no pair"
        for first, second in pairs:
            for a, b in ((first, second), (second, first)):
                assert query_image(queries[a], checker.swap) == query_image(
                    queries[b], {}
                ), f"{entry.name}/{target}: {a} does not map onto {b}"
        # A query that no other query mirrors is its own image (cb4).
        for name, query in queries.items():
            if not any(name in pair for pair in pairs):
                assert query_image(query, checker.swap) == query_image(
                    query, {}
                )

    def test_swap_pairs_the_values_and_fixes_the_rest(self):
        checker = ParameterizedChecker(cc85.model_a())
        swap = checker.swap
        assert swap["J0__end"] == "J1__end" and swap["cc1"] == "cc0"
        assert all(swap[swap[name]] == name for name in swap)
        assert "MC" not in swap and "w" not in swap


def _cc85a_with_stricter_strong_1():
    """cc85a whose ``strong(1)`` needs one vote more than ``strong(0)``."""
    n, t, f = params("n t f")
    v0, v1 = Var("v0"), Var("v1")
    strong = {0: (v0 >= n - t - f,), 1: (v1 >= n - t - f + 1,)}
    adopt = {
        0: (v0 + v0 >= n - f + 1, v1 >= t + 1 - f),
        1: (v1 + v1 >= n - f + 1, v0 >= t + 1 - f),
    }
    return voting_model(
        name="cc85a-broken",
        environment=cc85.environment_a(),
        category="B",
        strong=lambda v: strong[v],
        adopt=lambda v: adopt[v],
        mixed=(v0 + v1 >= n - t - f, v0 >= t + 1 - f, v1 >= t + 1 - f),
        description="cc85a with one side's strong threshold raised",
    )


def _spy_check_reach(monkeypatch):
    calls = []
    original = ParameterizedChecker.check_reach

    def spy(self, query):
        calls.append(query.name)
        return original(self, query)

    monkeypatch.setattr(ParameterizedChecker, "check_reach", spy)
    return calls


class TestReuse:
    def test_holds_is_reused_for_the_mate(self, monkeypatch, caplog):
        checker = ParameterizedChecker(cc85.model_a())
        calls = _spy_check_reach(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="repro.checker.parameterized"):
            outcome = checker.check_obligations(
                obligations_for(checker.model, "validity")
            )
        first, second = outcome.queries
        assert calls == ["inv2[0]"] and checker.mirrored == 1
        assert (first.query, second.query) == ("inv2[0]", "inv2[1]")
        assert first.verdict == second.verdict == HOLDS
        assert (second.states_explored, second.nschemas, second.detail) == (
            first.states_explored, first.nschemas, first.detail
        )
        assert second.time_seconds < first.time_seconds
        events = [
            (r.query, r.mate)
            for r in caplog.records
            if getattr(r, "event", "") == "parameterized.mirror_reused"
        ]
        assert events == [("inv2[1]", "inv2[0]")]
        assert all(r.levelno == logging.DEBUG for r in caplog.records)

    def test_broken_symmetry_runs_both_queries(self, monkeypatch, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.checker.parameterized"):
            checker = ParameterizedChecker(_cc85a_with_stricter_strong_1())
        assert checker.swap is None
        refusals = [
            r for r in caplog.records
            if getattr(r, "event", "") == "parameterized.no_value_swap"
        ]
        assert len(refusals) == 1 and refusals[0].levelno == logging.DEBUG
        assert refusals[0].mismatch.startswith("rule ")
        assert refusals[0].model == checker.model.name == "cc85a-broken-rd"
        calls = _spy_check_reach(monkeypatch)
        outcome = checker.check_obligations(
            obligations_for(checker.model, "validity")
        )
        first, second = outcome.queries
        # inv2[0] holds, so only the refused swap keeps inv2[1] running.
        assert first.verdict == HOLDS
        assert calls == ["inv2[0]", "inv2[1]"] and checker.mirrored == 0
        assert first.time_seconds > 0 and second.time_seconds > 0
        assert second.states_explored == checker.nodes

    def test_violated_first_query_is_never_reused(self, monkeypatch):
        checker = ParameterizedChecker(naive_voting.model())
        assert checker.swap is not None
        queries = obligations_for(checker.model, "agreement").reach_queries
        direct = ParameterizedChecker(naive_voting.model()).check_reach(
            queries[1]
        )
        calls = _spy_check_reach(monkeypatch)
        outcome = checker.check_obligations(
            obligations_for(checker.model, "agreement")
        )
        assert [q.query for q in outcome.queries] == ["inv1[0]", "inv1[1]"]
        assert outcome.queries[0].verdict == VIOLATED
        assert calls == ["inv1[0]", "inv1[1]"] and checker.mirrored == 0
        second = outcome.queries[1]
        assert (second.verdict, second.states_explored, second.counterexample) == (
            direct.verdict, direct.states_explored, direct.counterexample
        )

    def test_a_model_without_value_tags_is_refused_quietly(self, caplog):
        combined = ParameterizedChecker(cc85.model_a()).combined
        combined.locations = [
            replace(loc, value=None) for loc in combined.locations
        ]
        with caplog.at_level(logging.DEBUG, logger="repro.checker.parameterized"):
            assert value_swap(combined) is None
        assert not caplog.records


# ----------------------------------------------------------------------
# Differential: the swap on vs refused, reports equal apart from times
# ----------------------------------------------------------------------
def _without_times(data):
    if isinstance(data, dict):
        return {
            key: _without_times(value)
            for key, value in data.items()
            if key != "time_seconds"
        }
    if isinstance(data, list):
        return [_without_times(value) for value in data]
    return data


def _both_ways(monkeypatch, **kwargs):
    """The report as shipped and with the swap refused, without times."""
    shipped = api.verify(engine="parameterized", **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(parameterized, "value_swap", lambda combined: None)
        refused = api.verify(engine="parameterized", **kwargs)
    return _without_times(shipped.to_dict()), _without_times(refused.to_dict())


#: Agreement bundles that hold within a node budget, with that budget
#: (one inv1 DFS needs 2,366 nodes on fmr05 and 26,912 on cc85a): with
#: it, their inv1[1] reuses inv1[0].  The rest trip 3,000 nodes.
AGREEMENT_HOLDS = {
    "fmr05": 3_000, "mmr14": 8_000, "rabin83": 15_000,
    "cc85a": 27_000, "cc85b": 27_000,
}

#: Registry cells that take more than a few seconds (both runs).
SLOW_CELLS = {
    *((name, "agreement") for name in PROTOCOLS),
    ("ks16", "validity"), ("miller18", "validity"),
    ("miller18", "termination"),
}


#: Fuzz models whose two runs take more than a second.
SLOW_FUZZ_SEEDS = {10}


def _registry_limits(entry, target):
    """A node budget that ends the cell in seconds, and no time budget:
    a time trip would make the two runs differ by timing alone.  A
    tripped node budget is an ``unknown``, which is never reused."""
    if target == "agreement":
        return api.Limits(max_nodes=AGREEMENT_HOLDS.get(entry.name, 3_000))
    if target == "termination" and entry.category == "C":
        # cb4's leaves go to a slow exact branch and bound.
        return api.Limits(max_nodes=40)
    return api.Limits(max_nodes=3_000)


def _registry_cells():
    for entry in BENCHMARK:
        for target in TARGETS:
            marks = (
                [pytest.mark.slow_equivalence]
                if (entry.name, target) in SLOW_CELLS
                else []
            )
            yield pytest.param(
                entry, target, marks=marks, id=f"{entry.name}-{target}"
            )


class TestDifferential:
    @pytest.mark.parametrize("entry, target", list(_registry_cells()))
    def test_registry_bundle(self, entry, target, monkeypatch):
        shipped, refused = _both_ways(
            monkeypatch,
            protocol=entry.name,
            target=target,
            limits=_registry_limits(entry, target),
        )
        assert shipped == refused
        if target == "agreement" and entry.name in AGREEMENT_HOLDS:
            queries = shipped["obligations"][0]["queries"]
            assert {q["verdict"] for q in queries} == {HOLDS}

    @pytest.mark.parametrize("seed", [
        pytest.param(seed, marks=[pytest.mark.slow_equivalence])
        if seed in SLOW_FUZZ_SEEDS else seed
        for seed in FUZZ_SEEDS
    ])
    def test_fuzz_model(self, seed, monkeypatch):
        shipped, refused = _both_ways(
            monkeypatch,
            model=random_model(seed),
            targets=FUZZ_TARGETS,
            limits=FUZZ_LIMITS,
        )
        assert shipped == refused

    def test_fuzz_corpus_exercises_the_reuse(self):
        mirrored = 0
        for seed in FUZZ_SEEDS:
            model = random_model(seed)
            checker = ParameterizedChecker(model, node_budget=30_000)
            if checker.swap is None:
                continue
            for target in FUZZ_TARGETS:
                checker.check_obligations(obligations_for(checker.model, target))
                mirrored += checker.mirrored
        assert mirrored > 0
