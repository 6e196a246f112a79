"""The flat interned engine reproduces the seed engine bit-for-bit.

``data/seed_verdicts.json`` was recorded by running the seed
(nested-tuple, quadratic-attractor) ``ExplicitChecker`` over every
protocol in the registry at its small valuation: per query the verdict
AND ``states_explored`` (exploration-order sensitive on violations),
plus the fairness side conditions.  The current engine must match all
of it exactly.

The quick protocols run in the default suite; ``rabin83`` / ``mmr14``
/ ``miller18`` explore 6-figure state counts and are gated behind
``--run-slow-equivalence`` (see ``conftest.py``) so tier-1 stays fast —
CI and the benchmark harness exercise them.
"""

import json
from pathlib import Path

import pytest

from repro.checker.explicit import ExplicitChecker
from repro.protocols.registry import by_name
from repro.spec.obligations import obligations_for

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "seed_verdicts.json").read_text()
)

FAST_PROTOCOLS = ("cc85a", "cc85b", "fmr05", "ks16", "aby22")
SLOW_PROTOCOLS = ("rabin83", "mmr14", "miller18")
TARGETS = ("agreement", "validity", "termination")


def _observed(name: str, target: str):
    entry = by_name(name)
    model = entry.verification_model() if target == "termination" else entry.model()
    checker = ExplicitChecker(model, entry.small_valuation, max_states=150_000)
    report = checker.check_obligations(obligations_for(checker.model, target))
    return {
        "queries": [
            [r.query, r.verdict, r.states_explored] for r in report.queries
        ],
        "sides": dict(report.side_conditions),
    }


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("name", FAST_PROTOCOLS)
def test_verdicts_and_state_counts_match_seed(name, target):
    assert _observed(name, target) == GOLDEN[name][target]


@pytest.mark.slow_equivalence
@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("name", SLOW_PROTOCOLS)
def test_verdicts_and_state_counts_match_seed_slow(name, target):
    assert _observed(name, target) == GOLDEN[name][target]


def test_golden_fixture_covers_whole_registry():
    from repro.protocols.registry import benchmark

    assert set(GOLDEN) == {entry.name for entry in benchmark()}
    for record in GOLDEN.values():
        assert set(record) == set(TARGETS)
        for target_record in record.values():
            assert "error" not in target_record
