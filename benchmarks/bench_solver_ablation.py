"""Ablation: the solver stack behind the schema checker.

Three design choices are worth quantifying:

1. **float-LP pruning** (HiGHS) vs. the exact Fraction simplex for
   prefix feasibility — the reason the schema DFS is tractable;
2. **vertex rounding** vs. exact branch & bound at SAT leaves;
3. the cost of exact branch & bound itself on schema-sized systems.

Every solver reads the encoder's integer rows as they are.  One cost
around the solver is measured too: encoding a prefix incrementally on
top of its parent's encoding (what the DFS does) vs. from scratch.

The workload is a real encoding: prefixes of the MMR14 CB2 schema tree.

    PYTHONPATH=src python -m pytest benchmarks/bench_solver_ablation.py
"""

import pytest

from repro.checker.encoder import SchemaEncoder
from repro.checker.milestones import CombinedModel, extract_milestones
from repro.protocols import mmr14
from repro.solver.floatlp import RowMatrix, float_feasible, rounded_integer_model
from repro.solver.ilp import SAT, ilp_feasible
from repro.solver.shortcuts import satisfies
from repro.solver.simplex import lp_feasible
from repro.spec.properties import PropertyLibrary


@pytest.fixture(scope="module")
def setup():
    """Encoder, query and a feasible mid-depth prefix of refined MMR14."""
    model = mmr14.refined_model().single_round()
    combined = CombinedModel(model)
    encoder = SchemaEncoder(combined)
    milestones = extract_milestones(combined)
    by_name = {str(m): m for m in milestones}
    prefix = [
        by_name["[b0 reaches -f + t + 1]"],
        by_name["[b1 reaches -f + t + 1]"],
        by_name["[b0 reaches -f + 2*t + 1]"],
        by_name["[b1 reaches -f + 2*t + 1]"],
    ]
    query = PropertyLibrary(mmr14.refined_model()).cb(2)
    return encoder, query, prefix


@pytest.fixture(scope="module")
def encoded(setup):
    encoder, query, prefix = setup
    return encoder.encode(prefix, query)


@pytest.fixture(scope="module")
def workload(encoded):
    return encoded.rows


def test_float_lp_prefix_feasibility(benchmark, workload):
    feasible = benchmark(lambda: float_feasible(RowMatrix(workload)))
    assert feasible is True


def test_encode_from_scratch(benchmark, setup):
    encoder, query, prefix = setup
    result = benchmark(encoder.encode, prefix, query)
    assert result.rows


def test_encode_incremental(benchmark, setup, encoded):
    encoder, query, prefix = setup
    parent = encoder.encode(prefix[:-1], query)
    result = benchmark(encoder.encode, prefix, query, parent)
    assert result.rows == encoded.rows


def test_exact_lp_prefix_feasibility(benchmark, workload):
    result = benchmark(lp_feasible, workload)
    assert result.feasible


def test_vertex_rounding_fast_path(benchmark, workload):
    model = benchmark(rounded_integer_model, RowMatrix(workload))
    assert model is not None
    assert all(v >= 0 for v in model.values())
    assert satisfies(workload, model)


def test_exact_branch_and_bound(benchmark, run_once, workload):
    result = run_once(benchmark, ilp_feasible, workload)
    assert result.status == SAT
