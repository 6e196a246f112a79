"""Parameterized (schema) checking — the ByMC-replacement pipeline.

Times the full parameterized verification of the safety invariants for
the small-automaton protocols (the ones the paper verifies in seconds)
and the schema-count computation for the big ones.  The category-C
protocols' full parameterized sweeps are the paper's 10-hour MPI runs;
per DESIGN.md they are cross-checked exhaustively by the explicit
checker instead (see bench_table2_verification).
"""

import pytest

from repro.checker.milestones import CombinedModel, extract_milestones, precedence_order
from repro.checker.parameterized import ParameterizedChecker
from repro.checker.result import HOLDS, VIOLATED
from repro.checker.schemas import count_schemas
from repro.protocols import benchmark as protocol_benchmark
from repro.spec.properties import PropertyLibrary

SMALL = ("rabin83", "cc85a", "cc85b", "fmr05", "ks16")
ENTRIES = {e.name: e for e in protocol_benchmark()}


@pytest.mark.parametrize("name", SMALL)
def test_parameterized_validity(benchmark, run_once, name):
    """Inv2 for both values, verified for ALL admissible parameters."""
    model = ENTRIES[name].model()

    def check():
        checker = ParameterizedChecker(model)
        lib = PropertyLibrary(model)
        return [checker.check_reach(lib.inv2(v)) for v in (0, 1)]

    results = run_once(benchmark, check)
    assert all(r.verdict == HOLDS for r in results)
    benchmark.extra_info["nschemas"] = sum(r.nschemas for r in results)


@pytest.mark.parametrize("name", SMALL)
def test_parameterized_agreement(benchmark, run_once, name):
    """Inv1 (value 0) under a bounded node budget.

    Agreement's two temporal events make its schema tree the largest of
    the safety queries; the budget keeps the bench bounded — protocols
    whose tree fits verify outright, the rest report ``unknown`` (and
    are covered by the explicit checker in bench_table2).  A
    ``violated`` verdict would be a real bug either way.
    """
    model = ENTRIES[name].model()

    def check():
        checker = ParameterizedChecker(model, node_budget=6_000)
        lib = PropertyLibrary(model)
        return checker.check_reach(lib.inv1(0))

    result = run_once(benchmark, check)
    assert result.verdict != VIOLATED
    benchmark.extra_info["nschemas"] = result.nschemas
    benchmark.extra_info["verdict"] = result.verdict


@pytest.mark.parametrize("name", ("mmr14", "miller18", "aby22"))
def test_schema_counting_category_c(benchmark, name):
    """The analytic nschemas column for the big automata (Table II)."""
    entry = ENTRIES[name]
    model = entry.verification_model().single_round()

    def count():
        combined = CombinedModel(model)
        milestones = extract_milestones(combined)
        predecessors = precedence_order(milestones, model)
        lib = PropertyLibrary(model)
        return count_schemas(milestones, predecessors, len(lib.inv1(0).events))

    total = benchmark(count)
    benchmark.extra_info["nschemas_inv1"] = total
    assert total > 10_000  # category C: combinatorial explosion
