"""Golden parameterized verdicts: the schema DFS's observable counts.

``data/param_verdicts.json`` pins, per query, the verdict, the analytic
schema count and the DFS statistics (nodes, leaves decided, pruned
prefixes, unknown leaves) of :class:`ParameterizedChecker` with its
default settings.  The counts depend on every pruning decision, so any
change to the encoding or to the feasibility path that prunes more or
less than before shows up here.

Regenerate (only when a change is *meant* to move the counts)::

    PYTHONPATH=src python tests/checker/test_param_verdicts.py
"""

import json
from pathlib import Path

import pytest

from repro.checker.parameterized import ParameterizedChecker
from repro.protocols import mmr14, naive_voting
from repro.protocols.registry import by_name
from repro.spec.properties import PropertyLibrary

GOLDEN_PATH = Path(__file__).parent / "data" / "param_verdicts.json"

#: case name -> (model factory, [(query builder name, argument), ...])
CASES = {
    "naive_voting": (
        naive_voting.model, [("inv1", 0), ("inv2", 0), ("inv2", 1)]
    ),
    "mmr14-refined": (mmr14.refined_model, [("cb", 2)]),
    "fmr05": (by_name("fmr05").build_model, [("inv2", 0), ("inv2", 1)]),
    "cc85a": (by_name("cc85a").build_model, [("inv2", 0), ("inv2", 1)]),
    "rabin83": (by_name("rabin83").build_model, [("inv2", 0), ("inv2", 1)]),
}


def observe(case: str) -> dict:
    """Run every query of ``case`` on one checker; per-query counts."""
    factory, queries = CASES[case]
    model = factory()
    checker = ParameterizedChecker(model)
    lib = PropertyLibrary(model)
    observed = {}
    for builder, argument in queries:
        query = getattr(lib, builder)(argument)
        result = checker.check_reach(query)
        observed[query.name] = {
            "verdict": result.verdict,
            "nschemas": result.nschemas,
            "nodes": checker.nodes,
            "leaves": checker.leaves,
            "pruned": checker.pruned,
            "unknown_leaves": checker.unknown_leaves,
        }
    return observed


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_recording(case):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert observe(case) == golden[case]


if __name__ == "__main__":
    recording = {case: observe(case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(recording, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
